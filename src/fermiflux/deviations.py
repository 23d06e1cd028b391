"""Large deviations of energy exchanges: spectral/Riccati reduction and rate functions.

The long-time cumulant generating function of the vector N_T of energies
delivered to the baths,

    e(alpha) = lim (1/T) log E[ exp(<alpha, N_T>) ],

equals the dominant eigenvalue of the counting-field-deformed generator.  For
quasi-free models that eigenvalue reduces to a 4L x 4L spectral problem: with

    A = -i T_S + sum_i (M_{beta_i} - 1/2) Theta_i Theta_i^*,
    B(alpha) = sum_i e^{alpha_i kappa_S} M_{beta_i} Theta_i Theta_i^*,
    Z(alpha) = [[A, B(alpha)], [B(-alpha at -beta), -A^*]],

one has e(alpha) = (1/2) sum_{Re lambda > 0} lambda(Z) - (1/4) sum_i tr(Theta_i Theta_i^*).
The eigenvalues of positive real part also determine the maximal solution of
the associated algebraic Riccati equation, whose inverse-shifted form is the
covariance of the deformed semigroup's dominant eigenvector.

Everything in Z but the factors e^{+-alpha_i kappa_S} is independent of alpha,
so it is computed once per model: A, the eigendecomposition
kappa_S = V diag(w) V^* and the per-bath factors C+_i = V^* M_{beta_i} D_i,
C-_i = V^* (1 - M_{beta_i}) D_i with D_i = Theta_i Theta_i^*.  Each evaluation
then only forms B(+-alpha) = V sum_i e^{+-alpha_i w} C+-_i.  Z has one
assembly, from these factors: ``z_matrix`` returns the full Majorana Z, which
``riccati_max`` and ``riccati_residual`` read their blocks from, and
``e_alpha`` assembles the same Z sector by sector.

Gauge-invariant models (the chain, the ``uniform`` and ``tr_broken`` random
families) split further.  When kappa_S, A, M_{beta_i} D_i and
(1 - M_{beta_i}) D_i are all block diagonal in the creation/annihilation basis,
to SECTOR_TOL relative, Z is permutation-similar to
diag(Z_particle, Z_hole), each 2L x 2L, and e(alpha) comes from the union of
the two sector spectra with the same half-spectrum formula and checks.  Pairing
models keep the single 4L x 4L problem in the Majorana basis.

Sign conventions (pinned against the Fock oracle and the jump Monte Carlo):
grad e(0) = +J (fluxes into the baths), e(alpha - beta) = e(-alpha), and the
two-bath rate function I(zeta) = sup_a (a zeta - e((a, 0))) vanishes at
zeta = +J_0 and satisfies I(zeta) - I(-zeta) = -(beta_0 - beta_1) zeta.
"""

from __future__ import annotations

import io
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import phasespace as ps
from .errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    MalformedInputError,
    NumericDegeneracyError,
    UnsupportedModelError,
)
from .phasespace import Basis, PhaseSpaceMatrix
from .thermal import ThermalQuasiFreeModel

SPLIT_TOL = 1e-8
ALPHA_MAX = 50.0
# off-diagonal CA blocks at most this fraction of the largest entry count as zero
SECTOR_TOL = 1e-14
# failures of the spectral evaluation itself, reported as non-convergence
NUMERIC_ERRORS = (DegenerateSpectrumError, NumericDegeneracyError, InternalConsistencyError)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class _Sector:
    """The alpha-independent factors of Z on one invariant subspace.

    With kappa_S = V diag(w) V^* there, B(alpha) = V sum_i e^{alpha_i w} C+_i
    and B(-alpha at -beta) = V sum_i e^{-alpha_i w} C-_i.
    """

    a: np.ndarray        # A
    w: np.ndarray        # eigenvalues of kappa_S
    v: np.ndarray        # its eigenvectors, as columns
    c_plus: np.ndarray   # (n_baths, m, m): C+_i = V^* M_beta_i D_i
    c_minus: np.ndarray  # (n_baths, m, m): C-_i = V^* (1 - M_beta_i) D_i

    @classmethod
    def restrict(cls, kappa, a, md, omd, idx) -> "_Sector":
        """Factors of the diagonal block ``idx`` of kappa_S, A, M D and (1 - M) D."""
        k = kappa[idx, idx]
        w, v = np.linalg.eigh(0.5 * (k + k.conj().T))
        vh = v.conj().T
        m = len(w)

        def factor(mats):
            return np.array([vh @ x[idx, idx] for x in mats], dtype=complex).reshape(len(mats), m, m)

        return cls(*map(_frozen, (a[idx, idx], w, v, factor(md), factor(omd))))

    def b_plus(self, alpha: np.ndarray) -> np.ndarray:
        return self.v @ np.einsum("ik,ikl->kl", np.exp(np.outer(alpha, self.w)), self.c_plus)

    def b_minus(self, alpha: np.ndarray) -> np.ndarray:
        return self.v @ np.einsum("ik,ikl->kl", np.exp(np.outer(-alpha, self.w)), self.c_minus)

    def z(self, alpha: np.ndarray) -> np.ndarray:
        """[[A, B+], [B-, -A^*]], filled in place (np.block costs as much as a small eigensolve)."""
        m = self.a.shape[0]
        z = np.empty((2 * m, 2 * m), dtype=complex)
        z[:m, :m] = self.a
        z[:m, m:] = self.b_plus(alpha)
        z[m:, :m] = self.b_minus(alpha)
        z[m:, m:] = -self.a.conj().T
        return z


@dataclass(frozen=True, eq=False)
class _Factors:
    """Per-model factors: the full Majorana problem and the sectors e(alpha) solves."""

    full: _Sector
    sectors: tuple       # (particle, hole) in the CA basis, or (full,)
    theta_trace: float   # sum_i tr(Theta_i Theta_i^*)


def _block_diagonal(x: np.ndarray, n_modes: int) -> bool:
    off = max(np.max(np.abs(x[:n_modes, n_modes:])), np.max(np.abs(x[n_modes:, :n_modes])))
    return off <= SECTOR_TOL * np.max(np.abs(x))


def _build_factors(model: ThermalQuasiFreeModel) -> _Factors:
    n_modes = model.n_modes
    eye = np.eye(2 * n_modes)
    kappa = model.kappa_s.maj
    a = -1j * model.t_s.maj
    md, omd = [], []
    theta_trace = 0.0
    for i, bath in enumerate(model.baths):
        d = model.dissipation_matrix(i)
        m_b = model.gibbs_system_covariance(bath.beta).maj
        a = a + (m_b - 0.5 * eye) @ d
        md.append(m_b @ d)
        omd.append((eye - m_b) @ d)
        theta_trace += float(np.trace(d).real)
    full = _Sector.restrict(kappa, a, md, omd, slice(None))
    p, p_inv = ps.ca_change_matrix(n_modes), ps.ca_change_inverse(n_modes)
    kappa_ca, a_ca, *rest = [p @ x @ p_inv for x in (kappa, a, *md, *omd)]
    if all(_block_diagonal(x, n_modes) for x in (kappa_ca, a_ca, *rest)):
        nb = model.n_baths
        sectors = tuple(
            _Sector.restrict(kappa_ca, a_ca, rest[:nb], rest[nb:], idx)
            for idx in (slice(0, n_modes), slice(n_modes, 2 * n_modes))
        )
    else:
        sectors = (full,)
    return _Factors(full=full, sectors=sectors, theta_trace=theta_trace)


# Models are immutable, so their factors are cached by identity and freed with them.
_FACTORS: "weakref.WeakKeyDictionary[ThermalQuasiFreeModel, _Factors]" = weakref.WeakKeyDictionary()
_FACTORS_LOCK = threading.Lock()


def _factors(model: ThermalQuasiFreeModel) -> _Factors:
    with _FACTORS_LOCK:
        f = _FACTORS.get(model)
        if f is None:
            f = _FACTORS[model] = _build_factors(model)
    return f


def _check_alpha(model: ThermalQuasiFreeModel, alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (model.n_baths,):
        raise MalformedInputError("alpha must have one entry per bath")
    return alpha


def z_matrix(model: ThermalQuasiFreeModel, alpha) -> np.ndarray:
    """The 4L x 4L Majorana Z(alpha), whose right-half-plane spectrum carries e(alpha)."""
    return _factors(model).full.z(_check_alpha(model, alpha))


def _split_spectrum(lam: np.ndarray, split_tol: float) -> np.ndarray:
    """The eigenvalues of positive real part, which must be exactly half of ``lam``."""
    near = np.abs(lam.real) < split_tol
    if np.any(near):
        raise DegenerateSpectrumError(
            f"{int(near.sum())} eigenvalue(s) within {split_tol:.1e} of the imaginary axis"
        )
    plus = lam[lam.real > 0]
    if 2 * len(plus) != len(lam):
        raise DegenerateSpectrumError(
            f"right-half-plane count {len(plus)} != {len(lam) // 2}; spectrum not split evenly"
        )
    return plus


def e_alpha(model: ThermalQuasiFreeModel, alpha, split_tol: float = SPLIT_TOL, imag_tol: float = 1e-8) -> float:
    """Cumulant generating function by the half-spectrum sum over all sectors of Z."""
    alpha = _check_alpha(model, alpha)
    f = _factors(model)
    lam = np.concatenate([np.linalg.eigvals(s.z(alpha)) for s in f.sectors])
    plus = _split_spectrum(lam, split_tol)
    val = 0.5 * plus.sum() - 0.25 * f.theta_trace
    if abs(val.imag) > imag_tol:
        raise InternalConsistencyError(f"e(alpha) has imaginary part {val.imag:.3e}")
    return float(val.real)


@dataclass(frozen=True, eq=False)
class DeformedSpectrum:
    """Spectral data of the deformed problem, with the optional Riccati solution."""

    z: np.ndarray
    eigenvalues: np.ndarray
    e_value: float
    x_max: np.ndarray | None = None
    covariance: PhaseSpaceMatrix | None = None


def riccati_max(model: ThermalQuasiFreeModel, alpha, split_tol: float = SPLIT_TOL) -> DeformedSpectrum:
    """Maximal solution of X A + A* X + X B(alpha) X - B(-alpha,-beta) = 0.

    Built from the ordered Schur form of Z(alpha): stacking a basis of the
    invariant subspace for the right-half-plane eigenvalues as [V1; V2] gives
    X = V2 V1^{-1}.  The deformed semigroup's dominant eigenvector is the
    Gaussian state of covariance (1 + X)^{-1}.
    """
    z = z_matrix(model, alpha)
    lam = np.linalg.eigvals(z)
    plus = _split_spectrum(lam, split_tol)
    n = z.shape[0] // 2
    t, q, k = sla.schur(z, output="complex", sort=lambda x: x.real > 0)
    if k != n:
        raise DegenerateSpectrumError(f"Schur sort selected {k} eigenvalues, expected {n}")
    v1 = q[:n, :n]
    v2 = q[n:, :n]
    cond = np.linalg.cond(v1)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericDegeneracyError(f"invariant-subspace stacking is singular (cond {cond:.3e})")
    x = v2 @ np.linalg.inv(v1)
    x = 0.5 * (x + x.conj().T)
    m = np.linalg.inv(np.eye(n) + x)
    m = 0.5 * (m + m.conj().T)
    theta_trace = _factors(model).theta_trace
    e_spec = 0.5 * plus.sum().real - 0.25 * theta_trace
    e_trace = 0.5 * np.trace(z[:n, :n] + x @ z[:n, n:]).real - 0.25 * theta_trace
    if abs(e_trace - e_spec) > 1e-7 * max(1.0, abs(e_spec)):
        raise InternalConsistencyError(
            f"trace formula {e_trace:.6e} disagrees with half-spectrum sum {e_spec:.6e}"
        )
    return DeformedSpectrum(
        z=z,
        eigenvalues=lam,
        e_value=float(e_spec),
        x_max=x,
        covariance=PhaseSpaceMatrix(m, Basis.MAJORANA),
    )


def riccati_residual(model: ThermalQuasiFreeModel, alpha, x: np.ndarray) -> float:
    z = z_matrix(model, alpha)
    n = z.shape[0] // 2
    a, b_plus, b_minus = z[:n, :n], z[:n, n:], z[n:, :n]
    r = x @ a + a.conj().T @ x + x @ b_plus @ x - b_minus
    return float(np.linalg.norm(r, 2))


def e_two_bath(model: ThermalQuasiFreeModel, a: float, **kw) -> float:
    """Reduced scalar CGF e((a, 0)) for two-bath models; e(a1,a2) = e(a1-a2, 0)."""
    if model.n_baths != 2:
        raise UnsupportedModelError("the scalar reduction needs exactly two baths")
    return e_alpha(model, np.array([a, 0.0]), **kw)


# ---------------------------------------------------------------------------
# Legendre transform / rate function
# ---------------------------------------------------------------------------


@dataclass
class RatePoint:
    zeta: float
    rate: float
    alpha_star: float
    converged: bool


@dataclass
class RateCurve:
    """Sampled rate function with the metadata needed to reproduce it."""

    points: list
    metadata: dict = field(default_factory=dict)

    @property
    def zetas(self) -> np.ndarray:
        return np.array([p.zeta for p in self.points])

    @property
    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    def to_csv(self) -> str:
        out = io.StringIO()
        for k, v in self.metadata.items():
            out.write(f"# {k}: {v}\n")
        out.write("zeta,I,alpha_star,converged\n")
        for p in self.points:
            out.write(f"{p.zeta:.12e},{p.rate:.12e},{p.alpha_star:.12e},{int(p.converged)}\n")
        return out.getvalue()


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, xtol):
    """Golden-section maximization of a concave function inside a bracket."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _maximize_concave(f, start, alpha_max, xtol):
    """Expanding bracket around ``start`` followed by golden-section refinement.

    Returns ``(x*, f(x*), converged)``; converged is False when the walk hits
    the |alpha| <= alpha_max guard (supremum effectively unattained there).
    """
    step = 0.25
    x0 = float(np.clip(start, -alpha_max, alpha_max))
    f0 = f(x0)
    while True:
        lo = max(x0 - step, -alpha_max)
        hi = min(x0 + step, alpha_max)
        flo, fhi = f(lo), f(hi)
        if f0 >= flo and f0 >= fhi:
            x, fx = _golden_max(f, lo, hi, xtol)
            if fx < f0:
                x, fx = x0, f0
            return x, fx, True
        if fhi > flo:
            x0, f0 = hi, fhi
            if x0 >= alpha_max:
                return alpha_max, f0, False
        else:
            x0, f0 = lo, flo
            if x0 <= -alpha_max:
                return -alpha_max, f0, False
        step *= 2.0


def rate_function(
    model: ThermalQuasiFreeModel,
    zeta_grid,
    alpha_max: float = ALPHA_MAX,
    xtol: float = 1e-10,
    metadata: dict | None = None,
) -> RateCurve:
    """Legendre transform I(zeta) = sup_a (a zeta - e((a,0))) on a grid.

    Two-bath models only (the supremum is one-dimensional after the
    translation invariance e(alpha + c 1) = e(alpha)).  Each maximization is
    warm-started from the previous grid point's maximizer; points where the
    walk escapes |alpha| <= alpha_max, or where an evaluation of e inside
    the search fails numerically (one of NUMERIC_ERRORS), are reported as
    I = +inf with ``converged`` False, and the next point is searched.
    """
    if model.n_baths != 2:
        raise UnsupportedModelError("rate_function needs a two-bath model")
    zeta_grid = np.asarray(zeta_grid, dtype=float)
    cache: dict[float, float] = {}

    def e_of(a: float) -> float:
        if a not in cache:
            cache[a] = e_two_bath(model, a)
        return cache[a]

    points = []
    warm = 0.0
    for zeta in zeta_grid:
        def obj(a, _z=float(zeta)):
            return a * _z - e_of(a)

        try:
            astar, val, converged = _maximize_concave(obj, warm, alpha_max, xtol)
        except NUMERIC_ERRORS:
            points.append(RatePoint(zeta=float(zeta), rate=np.inf, alpha_star=np.nan, converged=False))
            continue
        if not converged:
            points.append(RatePoint(zeta=float(zeta), rate=np.inf, alpha_star=float(astar), converged=False))
        else:
            points.append(RatePoint(zeta=float(zeta), rate=float(val), alpha_star=float(astar), converged=True))
            warm = astar
    meta = dict(metadata or {})
    meta.setdefault("alpha_max", alpha_max)
    meta.setdefault("xtol", xtol)
    return RateCurve(points=points, metadata=meta)
