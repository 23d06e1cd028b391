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
rank, and the Kalman rank is the sum of their ranks.  This form needs one
``eigh`` and stays well conditioned, where the monomial Krylov basis
T_S^k Theta loses rank numerically on long chains.  The Lyapunov equation is
solved by the Bartels-Stewart (Schur) method in O((2L)^3), in
:func:`stationary_covariance` only: no model class, the chain included, has a
reduced solve of its own.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.linalg as sla

from . import phasespace as ps
from .errors import NotErgodicError
from .phasespace import Basis, PhaseSpaceMatrix
from .thermal import ThermalQuasiFreeModel

LYAPUNOV_TOL = 1e-10
# singular values of Theta^* U_k at most this times ||Theta|| are unreachable directions
KALMAN_RTOL = 1e-9

log = logging.getLogger(__name__)


def drift(model: ThermalQuasiFreeModel) -> PhaseSpaceMatrix:
    """G = -i T_S - (1/2) Theta Theta^* in the Majorana basis."""
    theta = model.theta_total()
    g = -1j * model.t_s.maj - 0.5 * theta @ theta.conj().T
    return PhaseSpaceMatrix(g, Basis.MAJORANA)


def kalman_rank(model: ThermalQuasiFreeModel) -> tuple[int, bool]:
    """Dimension of the Kalman space and whether it is the whole phase space (ergodicity).

    Each eigenspace U_k of T_S adds as many reachable directions as Theta^* U_k
    has singular values above KALMAN_RTOL * ||Theta||.
    """
    theta = model.theta_total()
    threshold = KALMAN_RTOL * (np.linalg.norm(theta, 2) if theta.size else 0.0)
    rank, margin = 0, np.inf
    for uk in ps.eigenspaces(model.t_s.maj):
        s = np.linalg.svd(theta.conj().T @ uk, compute_uv=False)
        rank += int(np.sum(s > threshold))
        margin = min(margin, s.min() if s.size == uk.shape[1] else 0.0)
    log.debug("PBH margin %.3e against threshold %.3e", margin, threshold)
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


def stationary_covariance(model: ThermalQuasiFreeModel) -> PhaseSpaceMatrix:
    """Unique solution of G M + M G* + noise = 0 for an ergodic model.

    Solved by the Schur-based Bartels-Stewart method; refuses (rather than
    silently picking one of many solutions) when the Kalman rank is deficient.
    """
    require_ergodic(model)
    g, c = drift(model).maj, model.noise_total()
    m = sla.solve_continuous_lyapunov(g, -c)
    m = 0.5 * (m + m.conj().T)
    resid = float(np.linalg.norm(g @ m + m @ g.conj().T + c, 2))
    log.debug("Lyapunov residual %.3e at dimension %d", resid, g.shape[0])
    if resid > LYAPUNOV_TOL:
        raise NotErgodicError(f"Lyapunov residual {resid:.3e} exceeds {LYAPUNOV_TOL:.1e}")
    return PhaseSpaceMatrix(m, Basis.MAJORANA)
