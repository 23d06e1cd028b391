"""The two-bath nearest-neighbour fermionic chain and its closed-form steady state.

L interior sites with unit hopping, one single-mode bath attached to each end
(couplings theta_0 and theta_{L+1}, inverse temperatures beta_0, beta_{L+1}).
Everything is gauge invariant, so the model also has a fast L x L
("small covariance") path; the stationary small covariance is tridiagonal with
entries independent of L, given in closed form by :func:`closed_form`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, phasespace as ps
from .errors import NotErgodicError
from .phasespace import PhaseSpaceMatrix
from .thermal import BathSpec, ThermalQuasiFreeModel

# fraction filled by a single-mode bath at inverse temperature beta
def occupation(beta: float) -> float:
    """n(beta) = (1 + e^{-beta})^{-1}, the scalar bath covariance entry."""
    from scipy.special import expit

    return float(expit(beta))


@dataclass(frozen=True)
class ChainSpec:
    """Chain data: interior length, end couplings, end inverse temperatures."""

    length: int
    theta0: float = 1.0
    thetaL: float = 1.0
    beta0: float = 1.0
    betaL: float = 0.0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("chain length must be >= 1")

    @property
    def ergodic(self) -> bool:
        return self.theta0 != 0.0 and self.thetaL != 0.0


def hopping_matrix(length: int) -> np.ndarray:
    """T_S^0 = D + D^T, the tridiagonal unit-hopping one-particle Hamiltonian."""
    t = np.zeros((length, length))
    idx = np.arange(length - 1)
    t[idx, idx + 1] = 1.0
    t[idx + 1, idx] = 1.0
    return t


def small_coupling(spec: ChainSpec) -> np.ndarray:
    """L x 2 hopping amplitudes into the two end baths."""
    th = np.zeros((spec.length, 2))
    th[0, 0] = spec.theta0
    th[-1, 1] = spec.thetaL
    return th


def build(spec: ChainSpec) -> ThermalQuasiFreeModel:
    """Embed the chain into the full phase-space formalism.

    The pseudo-energy is the particle number (kappa_S gauge invariant with unit
    one-particle block), and each bath energy is its own number operator, so the
    intertwining constraints hold by construction.
    """
    ls = spec.length
    t_s = ps.embed_gauge_invariant(hopping_matrix(ls), "generator")
    kappa_s = ps.embed_gauge_invariant(np.eye(ls), "generator")
    kappa_bath = ps.embed_gauge_invariant(np.eye(1), "generator")
    th = small_coupling(spec)
    baths = (
        BathSpec(
            beta=spec.beta0,
            kappa=kappa_bath,
            theta=ps.embed_gauge_invariant_coupling(th[:, :1]),
        ),
        BathSpec(
            beta=spec.betaL,
            kappa=kappa_bath,
            theta=ps.embed_gauge_invariant_coupling(th[:, 1:]),
        ),
    )
    return ThermalQuasiFreeModel(t_s=t_s, kappa_s=kappa_s, baths=baths)


def small_drift(spec: ChainSpec) -> np.ndarray:
    th = small_coupling(spec)
    return -1j * hopping_matrix(spec.length) - 0.5 * th @ th.T


def small_stationary(spec: ChainSpec) -> np.ndarray:
    """Stationary L x L covariance from the gauge-invariant Lyapunov equation."""
    if not spec.ergodic:
        raise NotErgodicError("both end couplings must be nonzero")
    g = small_drift(spec)
    th = small_coupling(spec)
    noise = th @ np.diag([occupation(spec.beta0), occupation(spec.betaL)]) @ th.T
    return dynamics._lyapunov(g, noise)[0]


def embed_small_covariance(m_small: np.ndarray) -> PhaseSpaceMatrix:
    """Lift an L x L gauge-invariant covariance to the full phase space."""
    return ps.embed_gauge_invariant(m_small, "covariance")


@dataclass(frozen=True)
class ChainClosedForm:
    """The five steady-state scalars: end/diagonal occupations, current amplitude, flux."""

    p0: float
    p_mid: float
    pL: float
    j: float
    flux: float


def closed_form(spec: ChainSpec) -> ChainClosedForm:
    """Closed-form stationary entries; independent of the interior length.

    With t0 = theta_0, tL = theta_{L+1}, n0/nL the bath occupations and

        s = 4 (t0^2 + tL^2) + t0^2 tL^2 (t0^2 + tL^2),

    the diagonal of the small covariance is (p0, p_mid, ..., p_mid, pL), the
    first off-diagonal is +- i j, and the flux into bath 0 is 2 j.  (The
    published s-formula names a non-existent third coupling; reading it as
    theta_0 is the only choice consistent with the Lyapunov solve, which the
    tests enforce.)

    Caveat: for unequal end couplings the displayed end-site formulas p0 and
    pL do NOT agree with the numeric Lyapunov solve (their theta indices are
    asymmetric as published), while p_mid, j and the flux do.  The numeric
    solve is authoritative; compare via :func:`small_stationary`.
    """
    t0, tl = spec.theta0, spec.thetaL
    n0, nl = occupation(spec.beta0), occupation(spec.betaL)
    s = 4.0 * (t0**2 + tl**2) + t0**2 * tl**2 * (t0**2 + tl**2)
    p0 = (t0**2 * (tl**4 + t0**2 * tl**2 + 4.0) * n0 + 4.0 * t0**2 * nl) / s
    p_mid = (t0**2 * (tl**4 + 4.0) * n0 + tl**2 * (t0**4 + 4.0) * nl) / s
    pl = (4.0 * tl**2 * n0 + t0**2 * (tl**4 + tl**2 * t0**2 + 4.0) * nl) / s
    j = 2.0 * t0**2 * tl**2 * (n0 - nl) / s
    return ChainClosedForm(p0=p0, p_mid=p_mid, pL=pl, j=j, flux=2.0 * j)
