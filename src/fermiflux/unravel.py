"""Quantum-jump Monte Carlo unraveling of the thermal semigroup.

Trajectories are sampled exactly (no time-step discretization): between jumps
the unnormalized conditional state evolves as h(t) = e^{tG} h e^{tG*} with
G = -i H_S - (1/2) Phi(1) (``LindbladModel.no_jump``), the next jump time
solves survival(t) = u for a uniform u by safeguarded Newton on log survival
(a bisection step whenever Newton would leave the bracket), and the
jump channel (bath i, energy quantum delta) is drawn proportionally to
tr(R h): one contraction of h with the stacked rate operators
R = sum_K K^dagger K gives every channel weight.

All trajectories advance in lockstep rounds, one jump each per round, on
(n, d, d) stacks: one survival inversion with a bracket per trajectory, one
evolution in the eigenbasis of G, one weight contraction, one channel draw per
trajectory and one application per channel.  A trajectory leaves the stack
once it survives to the horizon or reaches a dark state.  With e = exp(lam t)
for the eigenvalues lam of G, the survival is the quadratic form
e^T C conj(e): d exponentials per evaluation.  Stacks hold at most
CHUNK_ENTRIES complex entries (1024 trajectories at d = 4, 4 at d = 64), so
memory stays flat in the chain length.

A channel is a list of Kraus operators, the J_c = sqrt(n_c/2) sum_k conj(t_kc)
gamma_k of the eigenmodes c of kappa_i with energy w_c = delta
(``fock.jump_operators``); a jump maps h -> sum_K K h K^dagger.  The reference
route, run by the cross-check, builds the explicit system + bath realization
on the joint Fock space and sandwiches one interaction between bath-energy
eigenprojectors.

RNG: numpy's counter-based Philox generator, one stream per trajectory keyed
(seed, 0), drawn survival first, then channel; a trajectory's jumps therefore
depend neither on the batch size nor on its place in the batch, and identical
seeds reproduce trajectories bit for bit on any platform.
"""

from __future__ import annotations

import io
import logging
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
        """h -> sum_K K h K^dagger, for one h or an (n, d, d) stack."""
        return sum(k @ h @ k.conj().T for k in self.kraus)


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


# Bound on the n * d^2 complex entries of one lockstep stack: 1024 trajectories
# at d = 4 and 4 at d = 64 (L = 6), so memory stays flat in the chain length.
CHUNK_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class _SimContext:
    """What every trajectory of one model shares: its channels and the eigenbasis of G.

    With G = V diag(lam) V^{-1} and h~ = V^{-1} h V^{-dagger}, the unnormalized
    state after a no-jump time t is h(t) = V (h~ * e e^dagger) V^dagger with
    e = exp(lam t), and the survival s(t) = tr h(t) is the quadratic form
    e^T C conj(e) with C = w * h~, w[j, k] = (V^dagger V)_{kj}: d exponentials
    per evaluation instead of the d^2 of sum_jk C_jk e^{t (lam_j + conj(lam_k))}.
    """

    channels: list
    rates: np.ndarray  # (n_channels, d, d): the rate operator sum K^dagger K of each channel
    lam: np.ndarray
    v: np.ndarray
    vinv: np.ndarray
    w: np.ndarray

    def weights(self, h: np.ndarray) -> np.ndarray:
        """Channel weights tr(R h) of each state in the (n, d, d) stack, clipped at 0."""
        return np.maximum(np.einsum("kij,nji->nk", self.rates, h).real, 0.0)

    def survival(self, c: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """s(t) and s'(t) for each (coefficients, time) row; C is Hermitian, so s' = 2 Re (lam e)^T C conj(e)."""
        e = np.exp(t[:, None] * self.lam)
        y = (c @ e.conj()[:, :, None])[:, :, 0]
        return (e * y).sum(axis=1).real, 2.0 * (self.lam * e * y).sum(axis=1).real

    def invert(self, c: np.ndarray, target: np.ndarray, t_max: np.ndarray) -> tuple[np.ndarray, int]:
        """Per row, the smallest t in (0, t_max] with s(t) = target, nan where s stays above it.

        Newton on log s(t) = log target from t = 0, exact for one exponential.
        s is non-increasing (s' = -tr(Phi(1) h_t) <= 0), but log s need not be
        convex (lam is complex), so every evaluation tightens a bracket [lo, hi]
        and a step that leaves it, or a point with s <= 0 or s' >= 0, becomes
        the midpoint.  Stops on a step or a bracket of 1e-13 max(1, t): a
        tighter stop sends the rounding-level last steps out of the bracket and
        back to bisection.  Rows that stop leave the stack; the second return
        value counts the survival evaluations of all rows.
        """
        s_end, _ = self.survival(c, t_max)
        evaluations = len(target)
        times = np.full(len(target), np.nan)
        rows = np.flatnonzero(s_end <= target)
        c, u, hi = c[rows], target[rows], t_max[rows]
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        lo = t = np.zeros(len(rows))
        s, ds = self.survival(c, t)
        for _ in range(100):
            if not rows.size:
                break
            above = s > u
            lo, hi = np.where(above, t, lo), np.where(above, hi, t)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_new = np.where((s > 0.0) & (ds < 0.0), t - (np.log(s) - log_u) * s / ds, np.nan)
            converged = np.abs(t_new - t) <= 1e-13 * np.maximum(1.0, t)
            outside = ~converged & ~((lo < t_new) & (t_new < hi))
            t_new = np.where(outside, 0.5 * (lo + hi), t_new)
            closed = outside & (hi - lo <= 1e-13 * np.maximum(1.0, t_new))
            done = converged | closed
            if done.any():
                # a rounding-level Newton step may overshoot the bracket
                times[rows[done]] = np.where(converged, np.clip(t_new, lo, hi), t_new)[done]
                keep = ~done
                rows, c, u, log_u, lo, hi, t_new = (a[keep] for a in (rows, c, u, log_u, lo, hi, t_new))
            t = t_new
            s, ds = self.survival(c, t)
            evaluations += rows.size
        times[rows] = 0.5 * (lo + hi)
        return times, evaluations


def _make_context(model: ThermalQuasiFreeModel) -> _SimContext:
    channels = extract_channels(model, cross_check=False)
    lam, v = np.linalg.eig(fock.lindblad_model(model).no_jump())
    rates = np.array([so.kraus_rate(ch.kraus) for ch in channels])
    return _SimContext(channels, rates, lam, v, np.linalg.inv(v), (v.conj().T @ v).T)


def _draw_channels(rngs: list, p: np.ndarray) -> np.ndarray:
    """Per row, ``rng.choice(len(p), p=p)`` without its validation: one uniform searched in the normalised cumsum."""
    u = np.array([rng.random() for rng in rngs])
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)  # searchsorted(u, side="right") of each row


def _lockstep(ctx: _SimContext, rho0: np.ndarray, horizon: float, seeds: range) -> tuple[list, int, int]:
    """Jump lists of the trajectories ``seeds``, all advanced one jump per round.

    Each round inverts the survival of every live trajectory, evolves the ones
    that jump, draws their channels and applies them; a trajectory leaves once
    it survives to the horizon or reaches a dark state.  Each trajectory draws
    from its own Philox stream, keyed (seed, 0), survival then channel, so its
    jumps depend neither on the batch size nor on its place in the batch.
    Returns the jump lists, the survival evaluations and the rounds.
    """
    rngs = [np.random.Generator(np.random.Philox(key=np.array([s, 0], dtype=np.uint64))) for s in seeds]
    jumps = [[] for _ in seeds]
    live = np.arange(len(seeds))
    t_now = np.zeros(len(seeds))
    h = np.repeat(rho0[None], len(seeds), axis=0)
    vinv_dag, v_dag = ctx.vinv.conj().T, ctx.v.conj().T
    evaluations = rounds = 0
    while live.size:
        rounds += 1
        ht = ctx.vinv @ h @ vinv_dag
        u = np.array([rngs[i].random() for i in live])
        dt, n_evals = ctx.invert(ctx.w * ht, u, horizon - t_now)
        evaluations += n_evals
        jumped = ~np.isnan(dt)  # the others survived to the horizon
        live, ht, dt = live[jumped], ht[jumped], dt[jumped]
        t_now = t_now[jumped] + dt
        e = np.exp(dt[:, None] * ctx.lam)
        h = ctx.v @ (ht * (e[:, :, None] * e.conj()[:, None, :])) @ v_dag  # unnormalized, trace u
        weights = ctx.weights(h)
        total = weights.sum(axis=1)
        bright = total > 0.0  # in a dark state no channel can fire
        live, h, t_now = live[bright], h[bright], t_now[bright]
        drawn = _draw_channels([rngs[i] for i in live], weights[bright] / total[bright, None])
        for k, ch in enumerate(ctx.channels):
            rows = np.flatnonzero(drawn == k)
            if rows.size:
                h[rows] = ch.apply(h[rows])
        h /= np.trace(h, axis1=1, axis2=2).real[:, None, None]
        for i, k, t in zip(live.tolist(), drawn.tolist(), t_now.tolist()):
            jumps[i].append((t, ctx.channels[k].bath, ctx.channels[k].delta))
    return jumps, evaluations, rounds


def simulate_batch(
    model: ThermalQuasiFreeModel,
    rho0: np.ndarray,
    horizon: float,
    n_trajectories: int,
    base_seed: int = 0,
) -> list:
    """Independent trajectories up to time ``horizon``, with seeds base_seed, base_seed+1, ...

    ``rho0`` must be a 2^L x 2^L density matrix: Hermitian, positive
    semidefinite and of unit trace to 1e-8.  Trajectories run in lockstep
    chunks of at most CHUNK_ENTRIES / d^2.
    """
    if n_trajectories < 1:
        raise MalformedInputError("need at least one trajectory")
    if not (np.isfinite(horizon) and horizon > 0):
        raise MalformedInputError("horizon must be finite and positive")
    rho0 = np.array(rho0, dtype=complex)
    d = 2**model.n_modes
    if rho0.shape != (d, d):
        raise MalformedInputError(f"rho0 must be {d} x {d} for {model.n_modes} modes, got shape {rho0.shape}")
    if abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise MalformedInputError("rho0 must have unit trace")
    if not (np.abs(rho0 - rho0.conj().T).max() <= 1e-8 and np.linalg.eigvalsh(rho0).min() >= -1e-8):  # nan fails
        raise MalformedInputError("rho0 must be Hermitian and positive semidefinite")
    ctx = _make_context(model)
    seeds = range(base_seed, base_seed + n_trajectories)
    jumps, evaluations, rounds = [[] for _ in seeds], 0, 0
    if ctx.channels:
        size = max(1, CHUNK_ENTRIES // len(rho0) ** 2)
        for start in range(0, n_trajectories, size):
            part, n_evals, n_rounds = _lockstep(ctx, rho0, horizon, seeds[start:start + size])
            jumps[start:start + size] = part
            evaluations += n_evals
            rounds += n_rounds
    records = []
    for seed, js in zip(seeds, jumps):
        totals = np.zeros(model.n_baths)
        for _, bath, delta in js:
            totals[bath] += delta
        records.append(TrajectoryRecord(seed=seed, horizon=horizon, jumps=tuple(js), totals=totals))
    n_jumps = sum(map(len, jumps))
    log.debug(
        "%d trajectories, %d jumps, %.2f survival evaluations per jump, %d lockstep rounds, "
        "at most %d jumps in one trajectory",
        n_trajectories, n_jumps, evaluations / max(n_jumps, 1), rounds, max(map(len, jumps)),
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

    Needs at least 100 records of one horizon and one alpha entry per bath,
    and resamples the records 2000 times.  The effective sample size
    (sum w)^2 / sum w^2 guards against estimates dominated by a handful of
    trajectories; below 30 the estimate is flagged unreliable.
    """
    records = list(records)
    if len(records) < 100:
        raise MalformedInputError(f"need at least 100 records, got {len(records)}")
    horizon = records[0].horizon
    if any(r.horizon != horizon for r in records):
        raise MalformedInputError("records must share one horizon")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != records[0].totals.shape or not np.isfinite(alpha).all():
        raise MalformedInputError(f"alpha must have {records[0].totals.size} finite entries, got {alpha.tolist()}")
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
