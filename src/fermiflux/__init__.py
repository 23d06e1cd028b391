"""Numerical toolkit for thermal quasi-free fermionic quantum Markov semigroups.

Layers:

* ``phasespace`` -- doubled one-particle space, bases, conjugation structure,
  Gibbs covariance matrices.
* ``fock`` -- brute-force superoperators on the full 2^L fermionic space,
  used as the reference oracle for everything else.
* ``dynamics`` -- covariance-matrix evolution, Bartels-Stewart Lyapunov
  stationary states, Kalman ergodicity in its Popov-Belevitch-Hautus
  (eigenspace) form.
* ``thermal`` -- model assembly/validation, mean energy fluxes, entropy
  production, partial-sum flux inequalities and pairwise flux certificates.
* ``machines`` -- depolarizing channels, the three-qubit fridge, synthesis of
  prescribed flux vectors on qubit registers.
* ``deviations`` -- cumulant generating function of energy exchanges via the
  spectral problem / algebraic Riccati equation, solved once per eigenspace
  of kappa_S; rate functions.
* ``unravel`` -- quantum-jump Monte Carlo sampling of energy-exchange
  trajectories.
* ``chain`` -- the two-bath nearest-neighbour fermionic chain with its
  closed-form stationary state.
"""

from . import (
    chain,
    deviations,
    dynamics,
    errors,
    fock,
    machines,
    phasespace,
    randgen,
    superop,
    thermal,
    unravel,
)

__all__ = [
    "chain",
    "deviations",
    "dynamics",
    "errors",
    "fock",
    "machines",
    "phasespace",
    "randgen",
    "superop",
    "thermal",
    "unravel",
]

__version__ = "0.1.0"
