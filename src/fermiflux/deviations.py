"""Large deviations of energy exchanges: spectral/Riccati reduction and rate functions.

The long-time cumulant generating function of the vector N_T of energies
delivered to the baths,

    e(alpha) = lim (1/T) log E[ exp(<alpha, N_T>) ],

equals the dominant eigenvalue of the counting-field-deformed generator.  For
quasi-free models that eigenvalue reduces to a 4L x 4L spectral problem: with

    A = -i T_S + sum_i (M_{beta_i} - 1/2) Theta_i Theta_i^*,
    B(alpha) = sum_i e^{alpha_i kappa_S} M_{beta_i} Theta_i Theta_i^*,
    Z(alpha) = [[A, B(alpha)], [B(-alpha at -beta), -A^*]],

one has e(alpha) = (1/4) sum |Re lambda(Z)| - (1/4) sum_i tr(Theta_i Theta_i^*).
This is the half-spectrum sum (1/2) sum_{Re lambda > 0} lambda(Z): the two
B are Hermitian, so J Z is Hermitian (J = [[0, 1], [-1, 0]]) and the spectrum
is symmetric under lambda -> -conj(lambda).  The eigenvalues of positive real
part also determine the maximal solution of the associated algebraic Riccati
equation, whose inverse-shifted form is the covariance of the deformed
semigroup's dominant eigenvector.  One eigendecomposition per block serves
both that solution and the derivatives of e; e_alpha needs only eigenvalues.

Z is solved one eigenspace U_w of kappa_S at a time.  [T_S, kappa_S] = 0 and
Theta_i kappa_i = kappa_S Theta_i make A and B block diagonal there, with
e^{alpha_i kappa_S} = e^{alpha_i w} and M_{beta_i} = n_i(w) = expit(beta_i w)
scalars.  Bath i reaches U_w only through its own kappa_i eigenmodes V_iw at
energy w (none when w is not in spec(kappa_i); ``bath_modes`` gives them), so
with D_iw = T T^* and T = U_w^* Theta_i V_iw,

    A_w = -i U_w^* T_S U_w + sum_i (n_i(w) - 1/2) D_iw,
    Z_w(alpha) = [[A_w, sum_i e^{alpha_i w} n_i(w) D_iw],
                  [sum_i e^{-alpha_i w} (1 - n_i(w)) D_iw, -A_w^*]],

and e(alpha) is the same |Re lambda| sum over the union of the block spectra.
Only the scalars e^{+-alpha_i w} depend on alpha.  The support is imposed
exactly: in floating point the couplings outside it are residues of about
1e-16, which the full Z multiplies by e^{|alpha| (w_max - w)}.  The discarded
coupling, weighted by its energy gap (the intertwining residual it implies),
is logged at DEBUG and refused unless it is rounding.  Each block is solved
at alpha - c, c the centre of the range of the alpha_i that reach it:
Z_w(alpha - c) = S Z_w(alpha) S^{-1} with S = diag(e^{-cw/2}, e^{cw/2}), so
the spectrum is the same and B+ and B- are balanced.  For the chain, kappa_S
is the particle number and the blocks are its particle and hole sectors.

The blocks come in mirror pairs w <-> -w.  In the Majorana basis kappa_S,
T_S and every kappa_i are purely imaginary and Theta_i Theta_i^* is real, so
U_{-w} = conj(U_w) up to a basis of the eigenspace, D_{i,-w} = conj(D_iw)
and n_i(-w) = 1 - n_i(w); hence Z_{-w}(alpha) = P conj(Z_w(alpha)) P, with P
the swap of the two halves, at every alpha.  The mirror has the conjugate
spectrum, the same trace, the same baths and so the same shift: it adds to
e, e' and e'' exactly what its partner adds.  All three solvers therefore
solve only the blocks with w >= 0 and count a w > 0 block twice.  A w = 0
block (its own mirror) counts once, and it does not depend on alpha: every
e^{+-alpha_i w} is 1 at w = 0.  ``riccati_max`` takes the covariance's -w
block from the Majorana identity conj(M) = 1 - M, which needs no Riccati
solution at -w.  ``_build_factors`` refuses a model whose blocks do not pair
up this way.

Bath 0's energy alone has the rate function I(zeta) = sup_a (a zeta - e(a e_0)),
for any number of baths (list bath k first for bath k's).  Sign conventions
(pinned against the Fock oracle and the jump Monte Carlo): grad e(0) = +J
(fluxes into the baths), e(alpha - beta) = e(-alpha), and I vanishes at
zeta = +J_0; with two baths, I(zeta) - I(-zeta) = -(beta_0 - beta_1) zeta.
"""

from __future__ import annotations

import io
import logging
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import phasespace as ps
from .errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    MalformedInputError,
    NotErgodicError,
    NumericDegeneracyError,
)
from .phasespace import Basis, PhaseSpaceMatrix
from .thermal import ThermalQuasiFreeModel

SPLIT_TOL = 1e-8
ALPHA_MAX = 50.0
# largest Newton step or bracket width at which a rate-function point stops, stamped in the rate CSV
XTOL = 1e-10
# largest ``phasespace.covariance_residuals`` entry of a covariance that riccati_max returns
COVARIANCE_TOL = 1e-7
# failures of the spectral evaluation itself, reported as non-convergence
NUMERIC_ERRORS = (DegenerateSpectrumError, NumericDegeneracyError, InternalConsistencyError)

log = logging.getLogger(__name__)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class _Block:
    """The alpha-independent factors of Z on the eigenspace U of kappa_S at energy w."""

    w: float
    weight: int          # times e counts the block: 2 for w > 0 (it and its -w mirror), 1 for w = 0, 0 for w < 0
    trace: float         # sum_i tr D_iw
    baths: np.ndarray    # indices i of the baths with D_iw != 0
    u: np.ndarray        # U, orthonormal columns
    a: np.ndarray        # A_w
    c_plus: np.ndarray   # (n_baths, m * m): n_i(w) D_iw, flattened
    c_minus: np.ndarray  # (n_baths, m * m): (1 - n_i(w)) D_iw = expit(-beta_i w) D_iw, flattened

    def z(self, alpha: np.ndarray) -> np.ndarray:
        """Z_w(alpha), filled in place (np.block costs as much as a small eigensolve)."""
        m = self.a.shape[0]
        z = np.empty((2 * m, 2 * m), dtype=complex)
        z[:m, :m] = self.a
        z[:m, m:] = (np.exp(alpha * self.w) @ self.c_plus).reshape(m, m)
        z[m:, :m] = (np.exp(-alpha * self.w) @ self.c_minus).reshape(m, m)
        z[m:, m:] = -self.a.conj().T
        return z

    def shift(self, alpha: np.ndarray) -> float:
        """The shift c: centre of the range of alpha_i over the baths that reach U."""
        a = alpha[self.baths]
        return 0.5 * (a.max() + a.min()) if a.size else 0.0


def _build_factors(model: ThermalQuasiFreeModel) -> tuple:
    """One _Block per eigenspace of kappa_S, by increasing w; a w within rounding of 0 is taken as 0.

    InternalConsistencyError unless the block at w and the one at -w have the
    same dimension, the same baths and the same trace (see the module docstring).
    """
    kappa = model.kappa_s.maj
    us = ps.eigenspaces(kappa)
    ws = [float(np.trace(u.conj().T @ kappa @ u).real) / u.shape[1] for u in us]
    tol = ps.CLUSTER_RTOL * max(1.0, max(map(abs, ws)))
    ws = [0.0 if abs(w) <= tol else w for w in ws]
    modes = [model.bath_modes(i) for i in range(model.n_baths)]
    scales = [max(1.0, np.linalg.norm(tb, 2)) for _, _, tb in modes]
    nb, blocks, worst = model.n_baths, [], 0.0
    for w, u in zip(ws, us):
        m = u.shape[1]
        d = np.empty((nb, m, m), dtype=complex)
        for i, ((wb, _, tb), scale) in enumerate(zip(modes, scales)):
            at = np.abs(wb - w) <= tol  # bath i's eigenmodes at energy w
            t = u.conj().T @ tb[:, at]
            # U^* (Theta_i kappa_i - kappa_S Theta_i) on the discarded eigenmodes
            off = np.linalg.norm((u.conj().T @ tb[:, ~at]) * (wb[~at] - w), 2) / scale
            if off > ps.DEFAULT_TOL:
                raise MalformedInputError(
                    f"bath {i} couples {off:.3e} (relative) outside its energy support at kappa_S "
                    f"eigenvalue {w:.6g}: Theta_i kappa_i = kappa_S Theta_i does not hold"
                )
            worst = max(worst, off)
            d[i] = t @ t.conj().T
        n = expit(model.betas * w)
        a = -1j * u.conj().T @ model.t_s.maj @ u + np.tensordot(n - 0.5, d, axes=1)
        trace = float(np.trace(d, axis1=1, axis2=2).real.sum())
        d = d.reshape(nb, m * m)
        parts = (np.flatnonzero(np.any(d, axis=1)), u, a, n[:, None] * d, expit(-model.betas * w)[:, None] * d)
        blocks.append(_Block(w, 2 if w > 0 else int(w == 0), trace, *map(_frozen, parts)))
    log.debug("out-of-support coupling %.3e relative to max(1, ||Theta_i||), limit %.1e", worst, ps.DEFAULT_TOL)
    for b, p in zip(blocks, reversed(blocks)):
        if not (
            abs(b.w + p.w) <= tol
            and b.a.shape == p.a.shape
            and np.array_equal(b.baths, p.baths)
            and abs(b.trace - p.trace) <= ps.DEFAULT_TOL * max(1.0, abs(b.trace))
        ):
            raise InternalConsistencyError(
                f"the kappa_S block at {b.w:.6g} (dimension {b.a.shape[0]}, trace {b.trace:.6g}) has no mirror: "
                f"the block at {p.w:.6g} has dimension {p.a.shape[0]}, trace {p.trace:.6g}"
            )
    return tuple(blocks)


# Models are immutable, so their factors are cached by identity and freed with them.
_FACTORS: "weakref.WeakKeyDictionary[ThermalQuasiFreeModel, tuple]" = weakref.WeakKeyDictionary()


def _factors(model: ThermalQuasiFreeModel) -> tuple:
    f = _FACTORS.get(model)
    if f is None:
        f = _FACTORS[model] = _build_factors(model)
    return f


def _ergodic_factors(model: ThermalQuasiFreeModel) -> list:
    """The blocks of ``model`` with w >= 0, refused if a kappa_S eigenspace is reached by no bath.

    A -w block has the baths of its w partner (``_build_factors``), so the w >= 0 blocks decide.
    """
    blocks = [b for b in _factors(model) if b.weight]
    if any(not b.baths.size for b in blocks):
        raise NotErgodicError("a kappa_S eigenspace is reached by no bath: the model is not ergodic")
    return blocks


def _check_alpha(model: ThermalQuasiFreeModel, alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (model.n_baths,) or not np.isfinite(alpha).all():
        raise MalformedInputError("alpha must have one finite entry per bath")
    return alpha


def e_alpha(model: ThermalQuasiFreeModel, alpha) -> float:
    """Cumulant generating function (1/4) sum_w sum |Re lambda(Z_w)| - (1/4) sum_w trace_w.

    Summed over the blocks with w >= 0, by their weights.  Ergodicity is the
    caller's precondition (``dynamics.require_ergodic``): only a block that
    no bath reaches is refused here, with NotErgodicError.
    """
    alpha = _check_alpha(model, alpha)
    blocks = _ergodic_factors(model)
    abs_re = sum(b.weight * np.abs(np.linalg.eigvals(b.z(alpha - b.shift(alpha))).real).sum() for b in blocks)
    return float(0.25 * abs_re - 0.25 * sum(b.weight * b.trace for b in blocks))


@dataclass(frozen=True, eq=False)
class DeformedSpectrum:
    """Dominant eigenvalue e(alpha) of the deformed problem and its eigenvector's covariance."""

    e_value: float
    covariance: PhaseSpaceMatrix


def _block_eig(b: _Block, alpha: np.ndarray) -> tuple:
    """``(c, Z_w(alpha - c), lambda, eigenvectors, Re lambda > 0)`` for the block's shift c.

    DegenerateSpectrumError unless m eigenvalues lie right of the axis and none within SPLIT_TOL of it.
    """
    c = b.shift(alpha)
    z = b.z(alpha - c)
    lam, v = np.linalg.eig(z)
    plus = lam.real > 0
    margin = np.abs(lam.real).min()
    k = np.count_nonzero(plus)
    if k != b.a.shape[0] or margin < SPLIT_TOL:
        raise DegenerateSpectrumError(f"{k} of {lam.size} eigenvalues right of the axis; smallest |Re| {margin:.1e}")
    return c, z, lam, v, plus


def riccati_max(model: ThermalQuasiFreeModel, alpha) -> DeformedSpectrum:
    """e(alpha) and the covariance of the deformed semigroup's dominant eigenvector, by the maximal Riccati solution.

    X solves X A + A* X + X B(alpha) X - B(-alpha,-beta) = 0, and the
    dominant eigenvector is the Gaussian state of covariance M = (1 + X)^{-1}.
    On each block with w >= 0, X_w = e^{-cw} V2 V1^{-1} from the eigenvectors
    [V1; V2] of the right-half-plane eigenvalues of Z_w(alpha - c), so the
    block C_w = (1 + X_w)^{-1} = V1 W^{-1} with W = V1 + e^{-cw} V2: one
    solve, with neither X_w (about e^{40} at hot baths) nor V1^{-1} formed.
    The -w block follows from conj(M) = 1 - M: it is conj(U_w U_w^* - U_w C_w U_w^*),
    so nothing is solved at -w.  e is the half-spectrum sum, as in ``e_alpha``.
    NumericDegeneracyError if some cond(W) passes 1e12, or if the assembled M
    misses ``phasespace.covariance_residuals`` by more than COVARIANCE_TOL
    (its Hermitian part is returned).  The smallest |Re lambda|, the worst
    cond(W) and that residual are logged at DEBUG.  NotErgodicError if no bath reaches a block.
    """
    alpha = _check_alpha(model, alpha)
    blocks = _ergodic_factors(model)
    cov = np.zeros((2 * model.n_modes, 2 * model.n_modes), dtype=complex)
    abs_re, margin, worst = 0.0, np.inf, 0.0
    for b in blocks:
        c, _, lam, v, plus = _block_eig(b, alpha)
        m = b.a.shape[0]
        w = v[:m, plus] + np.exp(-c * b.w) * v[m:, plus]
        cond = np.linalg.cond(w)
        if not np.isfinite(cond) or cond > 1e12:
            raise NumericDegeneracyError(f"V1 + e^(-cw) V2 is singular (cond {cond:.3e})")
        abs_re += b.weight * np.abs(lam.real).sum()
        margin, worst = min(margin, np.abs(lam.real).min()), max(worst, cond)
        uc = b.u @ np.linalg.solve(w.T, v[:m, plus].T).T @ b.u.conj().T
        cov += uc
        if b.w > 0:
            cov += (b.u @ b.u.conj().T - uc).conj()
    resid = max(ps.covariance_residuals(PhaseSpaceMatrix(cov, Basis.MAJORANA)).values())
    log.debug("smallest |Re lambda| %.3e, worst cond(W) %.3e, covariance residual %.3e of %.1e",
              margin, worst, resid, COVARIANCE_TOL)
    if resid > COVARIANCE_TOL:
        raise NumericDegeneracyError(f"the covariance misses M = M^*, 0 <= M <= 1, M^T = 1 - M by {resid:.3e}")
    e_spec = 0.25 * abs_re - 0.25 * sum(b.weight * b.trace for b in blocks)
    return DeformedSpectrum(float(e_spec), covariance=PhaseSpaceMatrix(0.5 * (cov + cov.conj().T), Basis.MAJORANA))


def e_derivatives(model: ThermalQuasiFreeModel, a: float) -> tuple[float, float, float]:
    """e(a e_0) with its first two derivatives in a, from one eigendecomposition per block.

    Write Z_w = X diag(lambda) Y with Y = X^{-1}, and take M = Y Z_w' X and
    N = Y Z_w'' X, the primes being d/da at the block's shifted point (only
    bath 0's terms move: Z_w' = [[0, w e^{aw} C+_0], [-w e^{-aw} C-_0, 0]]
    and Z_w'' = [[0, w^2 e^{aw} C+_0], [w^2 e^{-aw} C-_0, 0]]).  Perturbation
    theory of the half-spectrum sum (Hellmann-Feynman) then gives

        e'  = (1/2) Re sum_{k in +} M_kk,
        e'' = (1/2) Re [sum_{k in +} N_kk + 2 sum_{k in +, j in -} M_kj M_jk / (lambda_k - lambda_j)],

    with + and - the eigenvalues right and left of the imaginary axis.  The
    ++ cross terms cancel in pairs, so every denominator is at least twice
    the smallest |Re lambda|.  A block that one bath alone reaches adds
    only rounding to either derivative: its shift absorbs the tilt.  Only
    the blocks with w >= 0 are solved, summed by their weights.  Raises
    MalformedInputError for a non-finite a, NotErgodicError if no bath reaches
    a block, DegenerateSpectrumError as ``_block_eig`` does, and
    NumericDegeneracyError when cond(X) (Frobenius norm) passes 1e12.
    """
    alpha = _check_alpha(model, [a] + [0.0] * (model.n_baths - 1))
    blocks = _ergodic_factors(model)
    abs_re, d1, d2 = 0.0, 0.0, 0.0
    for b in blocks:
        c, _, lam, x, plus = _block_eig(b, alpha)
        m = b.a.shape[0]
        y = np.linalg.inv(x)
        cond = np.linalg.norm(x) * np.linalg.norm(y)
        if not np.isfinite(cond) or cond > 1e12:
            raise NumericDegeneracyError(f"eigenvector matrix is singular (cond {cond:.3e})")
        abs_re += b.weight * np.abs(lam.real).sum()
        tilt = np.exp((a - c) * b.w)
        # Y Z_w' X = p - q and Y Z_w'' X = w (p + q)
        p = y[:, :m] @ ((tilt * b.w) * b.c_plus[0].reshape(m, m)) @ x[m:]
        q = y[:, m:] @ ((b.w / tilt) * b.c_minus[0].reshape(m, m)) @ x[:m]
        mm = p - q
        cross = mm[plus][:, ~plus] * mm[~plus][:, plus].T / (lam[plus, None] - lam[None, ~plus])
        d1 += 0.5 * b.weight * np.diagonal(mm)[plus].sum().real
        d2 += 0.5 * b.weight * (b.w * np.diagonal(p + q)[plus].sum() + 2.0 * cross.sum()).real
    e = 0.25 * abs_re - 0.25 * sum(b.weight * b.trace for b in blocks)
    return float(e), float(d1), float(d2)


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
    metadata: dict

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


def _legendre_point(model: ThermalQuasiFreeModel, zeta: float, start: float, alpha_max: float, counts: dict):
    """The maximizer of a zeta - e(a e_0) on |a| <= alpha_max: the root of e'(a) = zeta.

    e is convex, so e' - zeta is increasing: by its sign, each evaluation
    moves one end of a bracket [lo, hi] onto the point.  Newton starts from
    ``start``.  Once both ends are set, a step that leaves the bracket, or
    one longer than half the step before last (the rtsafe rule against
    cycling), bisects it instead; until then a step is taken as it is,
    except that one reaching past +-alpha_max evaluates that bound.  Stops
    once a step or the bracket is within XTOL.  Returns ``(a, e(a),
    converged)``; at a bound where e' - zeta has not changed sign the
    supremum is not attained and converged is False.
    """
    lo, hi = -np.inf, np.inf
    a = float(np.clip(start, -alpha_max, alpha_max))
    step = older = np.inf
    while True:
        e, d1, d2 = e_derivatives(model, a)
        counts["evaluations"] += 1
        g = d1 - zeta
        if g == 0.0:
            return a, e, True
        bound = alpha_max if g < 0 else -alpha_max
        if a == bound:
            return a, e, False
        if g < 0:
            lo = a
        else:
            hi = a
        nxt, kind = (a - g / d2 if d2 > 0 else bound), "newton"
        if np.isinf(hi - lo):
            if (nxt - bound) * g <= 0:
                nxt, kind = bound, "probes"
        elif not (lo <= nxt <= hi and abs(nxt - a) <= 0.5 * abs(older)):
            nxt, kind = 0.5 * (lo + hi), "bisections"
        older, step = step, nxt - a
        if kind != "probes" and (abs(step) <= XTOL or hi - lo <= XTOL):
            return a, e, True
        counts[kind] += 1
        a = nxt


def rate_function(
    model: ThermalQuasiFreeModel,
    zeta_grid,
    alpha_max: float = ALPHA_MAX,
    metadata: dict | None = None,
) -> RateCurve:
    """Bath 0's rate function I(zeta) = sup_a (a zeta - e(a e_0)) on a grid.

    Any number of baths; with two, translation invariance e(alpha + c 1) =
    e(alpha) makes it the full two-bath rate function.  Each point solves
    e'(a) = zeta by safeguarded Newton (``_legendre_point``), warm-started
    from the previous grid point's maximizer; points whose root lies beyond
    |alpha| <= alpha_max, or where an evaluation inside the search fails
    numerically (one of NUMERIC_ERRORS), are reported as I = +inf with
    ``converged`` False, and the next point is searched.  A model with a
    kappa_S eigenspace that no bath reaches raises NotErgodicError instead;
    a non-finite zeta or alpha_max, or alpha_max <= 0, MalformedInputError.
    """
    zeta_grid = np.asarray(zeta_grid, dtype=float)
    if not (np.isfinite(zeta_grid).all() and np.isfinite(alpha_max) and alpha_max > 0):
        raise MalformedInputError(f"need finite zetas and a finite positive alpha_max, got alpha_max {alpha_max}")
    counts = dict.fromkeys(("evaluations", "newton", "bisections", "probes"), 0)
    points = []
    warm = 0.0
    for zeta in map(float, zeta_grid):
        try:
            astar, e, converged = _legendre_point(model, zeta, warm, alpha_max, counts)
        except NUMERIC_ERRORS:
            points.append(RatePoint(zeta=zeta, rate=np.inf, alpha_star=np.nan, converged=False))
            continue
        rate = astar * zeta - e if converged else np.inf
        points.append(RatePoint(zeta=zeta, rate=rate, alpha_star=astar, converged=converged))
        if converged:
            warm = astar
    n = max(len(points), 1)
    log.debug(
        "%d points, %.2f evaluations and %.2f Newton steps per point, %d bisections, %d probes of +-alpha_max",
        len(points), counts["evaluations"] / n, counts["newton"] / n, counts["bisections"], counts["probes"],
    )
    meta = dict(metadata or {})
    meta.setdefault("alpha_max", alpha_max)
    meta.setdefault("xtol", XTOL)
    return RateCurve(points=points, metadata=meta)
