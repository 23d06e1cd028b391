"""Covariance-matrix dynamics: drift, time evolution, stationary Lyapunov solve.

The covariance of the reduced state obeys the closed linear equation

    dM/dt = G M + M G* + sum_i Theta_i M_{B_i} Theta_i^*,
    G = -i T_S - (1/2) Theta Theta^*,

and the model is ergodic iff the Kalman space span{ran(T_S^k Theta)} is the
whole phase space, in which case the Lyapunov equation G M + M G* + noise = 0
has a unique solution, the stationary covariance.

Ergodicity is tested in the Popov-Belevitch-Hautus (PBH) form, which is
equivalent to the Kalman rank condition: T_S is self-adjoint, so the
orthogonal complement of the Kalman space is spanned by the eigenvectors of
T_S that Theta^* annihilates.  With U_k an orthonormal basis of the k-th
eigenspace of T_S, the model is ergodic iff every Theta^* U_k has full column
rank, and the null vectors of the deficient ones span the unreachable
subspace.  This form needs one ``eigh`` and stays well conditioned, where the
monomial Krylov basis T_S^k Theta loses rank numerically on long chains.  The
Lyapunov equation is solved by the Bartels-Stewart (Schur) method in O((2L)^3).
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.linalg as sla

from .errors import NotErgodicError
from .phasespace import Basis, PhaseSpaceMatrix
from .thermal import ThermalQuasiFreeModel

LYAPUNOV_TOL = 1e-10
# eigenvalues of T_S closer than this, relative to max(1, ||T_S||), form one eigenspace
CLUSTER_RTOL = 1e-8
# singular values of Theta^* U_k at most this times ||Theta|| are unreachable directions
KALMAN_RTOL = 1e-9

log = logging.getLogger(__name__)


def drift(model: ThermalQuasiFreeModel) -> PhaseSpaceMatrix:
    """G = -i T_S - (1/2) Theta Theta^* in the Majorana basis."""
    theta = model.theta_total()
    g = -1j * model.t_s.maj - 0.5 * theta @ theta.conj().T
    return PhaseSpaceMatrix(g, Basis.MAJORANA)


def _reachable_basis(model: ThermalQuasiFreeModel, rtol: float) -> np.ndarray:
    """Orthonormal basis of the Kalman space, eigenspace by eigenspace of T_S.

    In each eigenspace U_k the directions with a singular value of Theta^* U_k
    at most rtol * ||Theta|| are unreachable; the right singular vectors above
    it, mapped back through U_k, are reachable.
    """
    theta = model.theta_total()
    t = model.t_s.maj
    w, u = np.linalg.eigh(0.5 * (t + t.conj().T))
    gap = CLUSTER_RTOL * max(1.0, float(np.abs(w).max()))
    threshold = rtol * (np.linalg.norm(theta, 2) if theta.size else 0.0)
    reach, margin = [], np.inf
    for uk in np.split(u, np.flatnonzero(np.diff(w) > gap) + 1, axis=1):
        _, s, vh = np.linalg.svd(theta.conj().T @ uk)
        reach.append(uk @ vh[: int(np.sum(s > threshold))].conj().T)
        margin = min(margin, s.min() if s.size == uk.shape[1] else 0.0)
    log.debug("PBH margin %.3e against threshold %.3e", margin, threshold)
    return np.hstack(reach)


def kalman_rank(model: ThermalQuasiFreeModel, rtol: float = KALMAN_RTOL) -> tuple[int, bool]:
    """Dimension of the Kalman space and whether it is the whole phase space (ergodicity)."""
    rank = _reachable_basis(model, rtol).shape[1]
    return rank, rank == 2 * model.n_modes


def require_ergodic(model: ThermalQuasiFreeModel) -> None:
    """Raise NotErgodicError unless the Kalman space is the whole phase space."""
    rank, full = kalman_rank(model)
    if not full:
        raise NotErgodicError(
            f"Kalman rank {rank} < {2 * model.n_modes}: stationary covariance is not unique"
        )


def evolve(m0: PhaseSpaceMatrix, model: ThermalQuasiFreeModel, t: float) -> PhaseSpaceMatrix:
    """Propagate a covariance for time t >= 0.

    Uses the block-triangular exponential of [[G, C], [0, -G*]] so both the
    homogeneous part and the integral term come from a single expm call:

        M(t) = F1 M0 F1^dagger + F2 F1^dagger,
        expm(t [[G, C], [0, -G*]]) = [[F1, F2], [0, F3]].
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = drift(model).maj
    c = model.noise_total()
    n = g.shape[0]
    big = np.zeros((2 * n, 2 * n), dtype=complex)
    big[:n, :n] = g
    big[:n, n:] = c
    big[n:, n:] = -g.conj().T
    e = sla.expm(t * big)
    f1 = e[:n, :n]
    f2 = e[:n, n:]
    m = f1 @ m0.maj @ f1.conj().T + f2 @ f1.conj().T
    m = 0.5 * (m + m.conj().T)
    return PhaseSpaceMatrix(m, Basis.MAJORANA)


def _lyapunov(g: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Hermitian solution M of G M + M G* + C = 0 (Bartels-Stewart) and its residual norm."""
    m = sla.solve_continuous_lyapunov(g, -c)
    m = 0.5 * (m + m.conj().T)
    resid = float(np.linalg.norm(g @ m + m @ g.conj().T + c, 2))
    log.debug("Lyapunov residual %.3e at dimension %d", resid, g.shape[0])
    return m, resid


def stationary_covariance(model: ThermalQuasiFreeModel, residual_tol: float = LYAPUNOV_TOL) -> PhaseSpaceMatrix:
    """Unique solution of G M + M G* + noise = 0 for an ergodic model.

    Solved by the Schur-based Bartels-Stewart method; refuses (rather than
    silently picking one of many solutions) when the Kalman rank is deficient.
    """
    require_ergodic(model)
    m, resid = _lyapunov(drift(model).maj, model.noise_total())
    if resid > residual_tol:
        raise NotErgodicError(f"Lyapunov residual {resid:.3e} exceeds {residual_tol:.1e}")
    return PhaseSpaceMatrix(m, Basis.MAJORANA)


def stationary_covariance_restricted(model: ThermalQuasiFreeModel):
    """Stationary covariance data for possibly non-ergodic models.

    Returns ``(m, ergodic)``.  When the Kalman space is a proper subspace V,
    the Lyapunov map is only invertible on operators over V; fluxes depend on
    the restriction only, so the returned covariance solves the equation on V
    and carries the Gibbs mean (1/2) on the orthogonal complement.  Results for
    deficient models should be treated as representative, not unique.
    """
    v = _reachable_basis(model, KALMAN_RTOL)
    n = 2 * model.n_modes
    if v.shape[1] == n:
        return stationary_covariance(model), True
    if v.shape[1] == 0:
        return PhaseSpaceMatrix(0.5 * np.eye(n), Basis.MAJORANA), False
    g = v.conj().T @ drift(model).maj @ v
    c = v.conj().T @ model.noise_total() @ v
    m_small, _ = _lyapunov(g, c)
    m = v @ m_small @ v.conj().T + 0.5 * (np.eye(n) - v @ v.conj().T)
    return PhaseSpaceMatrix(m, Basis.MAJORANA), False
