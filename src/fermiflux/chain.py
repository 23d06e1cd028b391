"""The two-bath nearest-neighbour fermionic chain and its closed-form steady state.

L interior sites with unit hopping, one single-mode bath attached to each end
(couplings theta_0 and theta_{L+1}, inverse temperatures beta_0, beta_{L+1}).
Everything is gauge invariant, so the stationary covariance of :func:`build`,
solved by :func:`dynamics.stationary_covariance`, is fixed by its L x L
particle block ``.ca[:L, :L]``; that block is tridiagonal with entries
independent of L, given in closed form by :func:`closed_form`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import phasespace as ps
from .thermal import BathSpec, ThermalQuasiFreeModel


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
    t_s = ps.embed_gauge_invariant(hopping_matrix(ls))
    kappa_s = ps.embed_gauge_invariant(np.eye(ls))
    kappa_bath = ps.embed_gauge_invariant(np.eye(1))
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

    With g0 = theta_0^2, gL = theta_{L+1}^2, n0/nL the bath occupations
    (1 + e^{-beta})^{-1} and

        s = 4 (g0 + gL) + g0 gL (g0 + gL),

    the diagonal of the particle block is (p0, p_mid, ..., p_mid, pL), the
    first off-diagonal is +- i j, and the flux into bath 0 is 2 j.  (The
    published s-formula names a non-existent third coupling; reading it as
    theta_0 is the only choice consistent with the Lyapunov solve, which the
    tests enforce.)  Needs at least one nonzero coupling.
    """
    g0, gl = spec.theta0**2, spec.thetaL**2
    n0, nl = float(expit(spec.beta0)), float(expit(spec.betaL))
    s = 4.0 * (g0 + gl) + g0 * gl * (g0 + gl)
    p0 = (g0 * (gl**2 + g0 * gl + 4.0) * n0 + 4.0 * gl * nl) / s
    p_mid = (g0 * (gl**2 + 4.0) * n0 + gl * (g0**2 + 4.0) * nl) / s
    pl = (4.0 * g0 * n0 + gl * (g0**2 + g0 * gl + 4.0) * nl) / s
    j = 2.0 * g0 * gl * (n0 - nl) / s
    return ChainClosedForm(p0=p0, p_mid=p_mid, pL=pl, j=j, flux=2.0 * j)
