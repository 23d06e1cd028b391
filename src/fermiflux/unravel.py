"""Quantum-jump Monte Carlo unraveling of the thermal semigroup.

Trajectories are sampled exactly (no time-step discretization): between jumps
the unnormalized conditional state evolves as h(t) = e^{tG} h e^{tG*} with
G = -i H_S - (1/2) Phi(1) (``LindbladModel.no_jump``), the next jump time
solves survival(t) = u for a uniform u by safeguarded Newton on log survival
(a bisection step whenever Newton would leave the bracket), and the
jump channel (bath i, energy quantum delta) is drawn proportionally to
tr(R h): one contraction of h with the stacked rate operators
R = sum_K K^dagger K gives every channel weight.

A channel is a list of Kraus operators, the J_c = sqrt(n_c/2) sum_k conj(t_kc)
gamma_k of the eigenmodes c of kappa_i with energy w_c = delta
(``fock.jump_operators``); a jump maps h -> sum_K K h K^dagger.  The reference
route, run by the cross-check, builds the explicit system + bath realization
on the joint Fock space and sandwiches one interaction between bath-energy
eigenprojectors.

RNG: numpy's counter-based Philox generator, keyed (base_seed, trajectory
index); identical seeds reproduce trajectories bit for bit on any platform.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from . import superop as so
from .errors import MalformedInputError, UnsupportedModelError
from .thermal import ThermalQuasiFreeModel

CHANNEL_NORM_FLOOR = 1e-12

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class JumpChannel:
    """Completely positive piece transferring one energy quantum to one bath."""

    bath: int
    delta: float
    kraus: np.ndarray  # (k, d, d)

    def apply(self, h: np.ndarray) -> np.ndarray:
        """h -> sum_K K h K^dagger."""
        ks = self.kraus
        return (ks @ h @ ks.conj().transpose(0, 2, 1)).sum(axis=0)


def _mode_channels(model: ThermalQuasiFreeModel, i: int) -> dict:
    """Production route: the Kraus operators J_c of bath i grouped by energy w_c; empty ones dropped."""
    w, ks = fock.jump_operators(model, i)
    channels = {float(d): ks[w == d] for d in np.unique(w)}
    return {d: k for d, k in channels.items() if np.max(np.abs(so.kraus_rate(k))) > CHANNEL_NORM_FLOOR}


def _snap_delta(value: float, deltas) -> float:
    """Snap an energy difference onto 0 or one of the bath energies ``deltas``."""
    scale = 1e-8 * max(1.0, *map(abs, deltas))
    for d in (0.0, *deltas):
        if abs(value - d) < scale:
            return d
    raise UnsupportedModelError(f"energy quantum {value} outside the bath sectors {deltas}")


def _projector_channels(model: ThermalQuasiFreeModel, i: int) -> dict:
    """Reference route: sandwich one interaction between K_B eigenprojectors.

    On the joint (system + this bath) realization, the weak-coupling jump map
    of bath i resolves exactly into energy sectors: the Kraus operator for a
    bath transition |n> -> |m> of K_B is sqrt(p_n) <m| H_SB |n>, carrying the
    quantum delta = E_m - E_n into the bath.
    """
    sub = ThermalQuasiFreeModel(t_s=model.t_s, kappa_s=model.kappa_s, baths=(model.baths[i],))
    deltas = model.bath_modes(i)[0].tolist()
    real = fock.joint_realization(sub)
    dim_s = 2 ** real["n_system"]
    dim_b = 2 ** (real["n_total"] - real["n_system"])
    h_sb = real["h_coupling"].reshape(dim_b, dim_s, dim_b, dim_s)
    rho_b = real["rho_bath"]
    k_local = np.trace(real["k_bath"].reshape(dim_b, dim_s, dim_b, dim_s), axis1=1, axis2=3) / dim_s
    w, v = np.linalg.eigh(k_local)
    rho_diag = v.conj().T @ rho_b @ v  # diagonal in the K_B eigenbasis
    # Kraus operators of one weak interaction: sqrt(p_n) <m| H_SB |n> : S -> S
    h_eig = np.einsum("am,aibj,bn->minj", v.conj(), h_sb, v)
    channels = {}
    for n in range(dim_b):
        p = rho_diag[n, n].real
        if p < 1e-300:
            continue
        for m in range(dim_b):
            delta = _snap_delta(w[m] - w[n], deltas)
            kraus = np.sqrt(p) * h_eig[m, :, n, :]
            if np.max(np.abs(kraus)) < 1e-15:
                continue
            channels[delta] = channels.get(delta, 0.0) + so.sandwich(kraus, kraus.conj().T)
    return {d: s for d, s in channels.items() if np.max(np.abs(s)) > CHANNEL_NORM_FLOOR}


def extract_channels(model: ThermalQuasiFreeModel, cross_check: bool = True):
    """All jump channels of the model, by bath and ascending delta; requires single-mode baths.

    The eigenmode route is authoritative; with ``cross_check`` (the only d^2 x d^2
    step) the projector route must agree with its ``kraus_map`` to 1e-9.
    """
    channels = []
    for i, bath in enumerate(model.baths):
        if bath.n_modes != 1:
            raise UnsupportedModelError(
                f"bath {i} has {bath.n_modes} modes; jump channels are only defined for single-mode baths"
            )
        by_delta = _mode_channels(model, i)
        if cross_check:
            ref = _projector_channels(model, i)
            for d in sorted(set(by_delta) | set(ref)):
                mine = so.kraus_map(by_delta[d]) if d in by_delta else 0.0
                err = np.max(np.abs(mine - ref.get(d, 0.0)))
                if err > 1e-9:
                    raise UnsupportedModelError(
                        f"channel extraction routes disagree for bath {i}, delta {d}: {err:.3e}"
                    )
        channels.extend(JumpChannel(bath=i, delta=d, kraus=by_delta[d]) for d in sorted(by_delta))
    return channels


# ---------------------------------------------------------------------------
# trajectory sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One sampled trajectory: ordered jumps and accumulated per-bath energy."""

    seed: int
    horizon: float
    jumps: tuple  # ((t, bath, delta), ...)
    totals: np.ndarray  # energy delivered to each bath

    @property
    def n_jumps(self) -> int:
        return len(self.jumps)


class _SurvivalSolver:
    """Exact survival function s(t) = tr(e^{tG} h e^{tG*}) via eigendecomposition.

    With G = V diag(lam) V^{-1} and h~ = V^{-1} h V^{-dagger}, the survival is
    a finite sum of exponentials s(t) = sum_{jk} c_jk e^{t (lam_j + conj(lam_k))}
    whose coefficients are recomputed once per no-jump segment.
    ``evaluations`` counts the sums over exp(mu t) that ``invert`` computed.
    """

    def __init__(self, g: np.ndarray):
        lam, v = np.linalg.eig(g)
        self.lam = lam
        self.v = v
        self.vinv = np.linalg.inv(v)
        self.mu = (lam[:, None] + lam.conj()[None, :]).reshape(-1)
        self.w = (v.conj().T @ v).T  # w[j, k] = (V^dagger V)_{kj}
        self.evaluations = 0

    def coefficients(self, h: np.ndarray) -> np.ndarray:
        ht = self.vinv @ h @ self.vinv.conj().T
        return (self.w * ht).reshape(-1)

    def evolve(self, h: np.ndarray, t: float) -> np.ndarray:
        expd = (self.v * np.exp(self.lam * t)) @ self.vinv
        return expd @ h @ expd.conj().T

    def invert(self, coef: np.ndarray, target: float, t_max: float):
        """Smallest t in (0, t_max] with s(t) = target, or None if s stays above it.

        Newton on log s(t) = log target from t = 0, exact for one exponential.
        s is non-increasing (s' = -tr(Phi(1) h_t) <= 0), but log s need not be
        convex (mu is complex), so every evaluation tightens a bracket [lo, hi]
        and a step that leaves it, or a point with s <= 0 or s' >= 0, becomes
        the midpoint.  One exp(mu t) gives both s and s'.  Stops on a step or a
        bracket of 1e-13 max(1, t): a tighter stop sends the rounding-level last
        steps out of the bracket and back to bisection.
        """
        mu = self.mu
        dcoef = coef * mu
        e = np.exp(mu * t_max)
        self.evaluations += 1
        if (coef @ e).real > target:
            return None
        log_u = math.log(target) if target > 0.0 else -math.inf
        lo, hi = 0.0, t_max
        t = 0.0
        s, ds = float(coef.sum().real), float(dcoef.sum().real)
        for _ in range(100):
            if s > target:
                lo = t
            else:
                hi = t
            t_new = t - (math.log(s) - log_u) * s / ds if s > 0.0 and ds < 0.0 else math.nan
            if abs(t_new - t) <= 1e-13 * max(1.0, t):
                return min(max(t_new, lo), hi)  # a rounding-level step may overshoot the bracket
            if not lo < t_new < hi:
                t_new = 0.5 * (lo + hi)
                if hi - lo <= 1e-13 * max(1.0, t_new):
                    return t_new
            t = t_new
            e = np.exp(mu * t)
            self.evaluations += 1
            s, ds = float((coef @ e).real), float((dcoef @ e).real)
        return 0.5 * (lo + hi)


@dataclass
class _SimContext:
    solver: _SurvivalSolver
    channels: list
    rates: np.ndarray  # (n_channels, d, d): the rate operator sum K^dagger K of each channel

    def weights(self, h: np.ndarray) -> np.ndarray:
        """Channel weights tr(R h), clipped at 0."""
        return np.maximum(np.einsum("kij,ji->k", self.rates, h).real, 0.0)


def _make_context(model: ThermalQuasiFreeModel) -> _SimContext:
    channels = extract_channels(model, cross_check=False)
    g = fock.lindblad_model(model).no_jump()
    rates = np.array([so.kraus_rate(ch.kraus) for ch in channels])
    return _SimContext(solver=_SurvivalSolver(g), channels=channels, rates=rates)


def _draw_channel(rng: np.random.Generator, p: np.ndarray) -> int:
    """``rng.choice(len(p), p=p)`` without its validation: one uniform searched in the normalised cumsum."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def simulate(
    model: ThermalQuasiFreeModel,
    rho0: np.ndarray,
    horizon: float,
    seed: int,
    _context: _SimContext | None = None,
) -> TrajectoryRecord:
    """Sample one trajectory of the jump process up to time ``horizon``."""
    if not (np.isfinite(horizon) and horizon > 0):
        raise MalformedInputError("horizon must be finite and positive")
    ctx = _context if _context is not None else _make_context(model)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    solver = ctx.solver
    h = np.array(rho0, dtype=complex)
    tr0 = np.trace(h).real
    if abs(tr0 - 1.0) > 1e-8:
        raise MalformedInputError("rho0 must have unit trace")
    t_now = 0.0
    jumps = []
    totals = np.zeros(model.n_baths)
    n_channels = len(ctx.channels)
    if n_channels == 0:
        return TrajectoryRecord(seed=seed, horizon=horizon, jumps=(), totals=totals)
    while True:
        coef = solver.coefficients(h)
        u = rng.random()
        dt = solver.invert(coef, u, horizon - t_now)
        if dt is None:
            break  # survived to the horizon
        t_now += dt
        h = solver.evolve(h, dt)  # unnormalized, trace u
        weights = ctx.weights(h)
        total = weights.sum()
        if total <= 0.0:
            break  # dark state: no channel can fire
        k = _draw_channel(rng, weights / total)
        ch = ctx.channels[k]
        h = ch.apply(h)
        h = h / np.trace(h).real
        jumps.append((t_now, ch.bath, ch.delta))
        totals[ch.bath] += ch.delta
    return TrajectoryRecord(seed=seed, horizon=horizon, jumps=tuple(jumps), totals=totals)


def simulate_batch(
    model: ThermalQuasiFreeModel,
    rho0: np.ndarray,
    horizon: float,
    n_trajectories: int,
    base_seed: int = 0,
) -> list:
    """Independent trajectories with per-trajectory seeds base_seed, base_seed+1, ..."""
    if n_trajectories < 1:
        raise MalformedInputError("need at least one trajectory")
    ctx = _make_context(model)
    records = [
        simulate(model, rho0, horizon, base_seed + k, _context=ctx) for k in range(n_trajectories)
    ]
    jumps = sum(r.n_jumps for r in records)
    log.debug(
        "%d trajectories, %d jumps, %.2f survival evaluations per jump",
        n_trajectories, jumps, ctx.solver.evaluations / max(jumps, 1),
    )
    return records


def mean_rates(records) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and standard error of N_T / T across records; nan error for a single record."""
    rates = np.array([r.totals / r.horizon for r in records])
    mean = rates.mean(axis=0)
    if len(records) < 2:
        return mean, np.full_like(mean, np.nan)
    sem = rates.std(axis=0, ddof=1) / np.sqrt(len(records))
    return mean, sem


@dataclass(frozen=True)
class CgfEstimate:
    value: float
    ci_low: float
    ci_high: float
    effective_samples: float
    reliable: bool


def empirical_cgf(records, alpha) -> CgfEstimate:
    """(1/T) log mean exp(<alpha, N_T>) with a 99% percentile-bootstrap confidence interval.

    Needs at least 100 records and resamples them 2000 times.  The effective
    sample size (sum w)^2 / sum w^2 guards against estimates dominated by a
    handful of trajectories; below 30 the estimate is flagged unreliable.
    """
    records = list(records)
    if len(records) < 100:
        raise MalformedInputError(f"need at least 100 records, got {len(records)}")
    horizon = records[0].horizon
    alpha = np.asarray(alpha, dtype=float)
    exponents = np.array([float(alpha @ r.totals) for r in records])
    shift = exponents.max()
    w = np.exp(exponents - shift)
    n = len(w)
    value = (shift + np.log(w.mean())) / horizon
    ess = float(w.sum() ** 2 / (w**2).sum())
    rng = np.random.Generator(np.random.Philox(key=np.array([12345, 1], dtype=np.uint64)))
    idx = rng.integers(0, n, size=(2000, n))
    boot = (shift + np.log(w[idx].mean(axis=1))) / horizon
    tail = (1 - 0.99) / 2
    lo, hi = np.quantile(boot, [tail, 1 - tail])
    return CgfEstimate(
        value=float(value),
        ci_low=float(lo),
        ci_high=float(hi),
        effective_samples=ess,
        reliable=ess >= 30.0,
    )


def records_to_csv(records) -> str:
    """Per-trajectory CSV: seed, horizon, jump count, energy per bath."""
    records = list(records)
    n_baths = len(records[0].totals) if records else 0
    out = io.StringIO()
    cols = ",".join(f"N_{i}" for i in range(n_baths))
    out.write(f"seed,T,n_jumps{',' if cols else ''}{cols}\n")
    for r in records:
        vals = ",".join(f"{x:.12e}" for x in r.totals)
        out.write(f"{r.seed},{r.horizon:.12e},{r.n_jumps}{',' if vals else ''}{vals}\n")
    return out.getvalue()


def jump_log_csv(records) -> str:
    """Full jump log: one row per jump."""
    out = io.StringIO()
    out.write("seed,t,bath,delta\n")
    for r in records:
        for (t, b, d) in r.jumps:
            out.write(f"{r.seed},{t:.12e},{b},{d:.12e}\n")
    return out.getvalue()
