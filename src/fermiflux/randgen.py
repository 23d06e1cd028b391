"""Random valid thermal quasi-free models, for oracle suites and property tests.

The constraints [T_S, kappa_S] = 0 and Theta_i kappa_i = kappa_S Theta_i leave
two natural families:

* ``spectral``: kappa_S is a generic quadratic generator (eigenvalues come in
  +-omega pairs); T_S is then forced to be an odd spectral function of
  kappa_S, and each single-mode bath locks onto one +-omega pair through an
  intertwining coupling.  Exercises the pairing (non-gauge-invariant) sector.
* ``uniform``: kappa_S = omega * identity on the one-particle space (all modes
  at the same energy), so T_S is an arbitrary one-particle Hamiltonian and
  baths couple through arbitrary hopping columns.  This is the chain's
  structure and reaches full Kalman rank with as few as one bath.

Ergodicity (full Kalman rank) is enforced by rejection.

Both default families are time-reversal invariant (real hopping amplitudes, or
sector-reducible couplings), which the fluctuation-theorem symmetry
e(alpha - beta) = e(-alpha) needs: complex hopping phases act like magnetic
fluxes and genuinely break that symmetry once three or more baths close a
loop, in the full Fock dynamics and the reduced spectral problem alike.  Pass
``kind="tr_broken"`` to draw such a model anyway (every non-symmetry property,
including the Riccati/spectral reduction, still holds for them).
"""

from __future__ import annotations

import numpy as np

from . import dynamics, phasespace as ps
from .errors import MalformedInputError
from .phasespace import Basis, CouplingMatrix, PhaseSpaceMatrix
from .thermal import BathSpec, ThermalQuasiFreeModel

KINDS = ("uniform", "spectral", "tr_broken")


def _random_antisym(rng, n: int) -> np.ndarray:
    r = rng.normal(size=(n, n))
    return r - r.T


def _spectral_model(rng, n_modes: int, n_baths: int) -> ThermalQuasiFreeModel:
    kappa = PhaseSpaceMatrix(1j * _random_antisym(rng, 2 * n_modes), Basis.MAJORANA)
    w, v = np.linalg.eigh(kappa.maj)
    pos = np.where(w > 0)[0]
    # odd spectral function of kappa_S: random real coefficient per +-omega pair
    coeff = np.zeros(2 * n_modes)
    for k in pos:
        c = rng.normal()
        coeff[k] = c
        coeff[np.argmin(np.abs(w + w[k]))] = -c
    t_s = PhaseSpaceMatrix((v * coeff) @ v.conj().T, Basis.MAJORANA)
    baths = []
    # cover every +-omega pair first so the Kalman space can be full
    choices = [pos[i % len(pos)] for i in range(n_baths)]
    for k in choices:
        omega = w[k]
        kappa_b = PhaseSpaceMatrix(omega * np.diag([1.0, -1.0]), Basis.CA)
        wb, vb = np.linalg.eigh(kappa_b.maj)
        theta = np.zeros((2 * n_modes, 2), dtype=complex)
        for s in (+1, -1):
            sys_vecs = v[:, np.abs(w - s * omega) < 1e-10]
            bath_vec = vb[:, np.abs(wb - s * omega) < 1e-10]
            amp = rng.normal(size=(sys_vecs.shape[1], 1)) + 1j * rng.normal(size=(sys_vecs.shape[1], 1))
            theta += sys_vecs @ amp @ bath_vec.conj().T
        theta = 0.5 * (theta - np.conj(theta))  # project onto xi-odd couplings
        baths.append(BathSpec(beta=rng.uniform(-0.5, 2.5), kappa=kappa_b, theta=CouplingMatrix(theta, Basis.MAJORANA)))
    return ThermalQuasiFreeModel(t_s=t_s, kappa_s=kappa, baths=tuple(baths))


def _uniform_model(rng, n_modes: int, n_baths: int, complex_phases: bool = False) -> ThermalQuasiFreeModel:
    omega = rng.uniform(0.5, 1.5)
    if complex_phases:
        h = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
        h = 0.5 * (h + h.conj().T)
    else:
        h = rng.normal(size=(n_modes, n_modes))
        h = 0.5 * (h + h.T)
    t_s = ps.embed_gauge_invariant(h)
    kappa_s = ps.embed_gauge_invariant(omega * np.eye(n_modes))
    kappa_b = ps.embed_gauge_invariant(omega * np.eye(1))
    baths = []
    for _ in range(n_baths):
        col = rng.normal(size=(n_modes, 1)).astype(complex)
        if complex_phases:
            col = col + 1j * rng.normal(size=(n_modes, 1))
        baths.append(
            BathSpec(
                beta=rng.uniform(-0.5, 2.5),
                kappa=kappa_b,
                theta=ps.embed_gauge_invariant_coupling(0.8 * col),
            )
        )
    return ThermalQuasiFreeModel(t_s=t_s, kappa_s=kappa_s, baths=tuple(baths))


def random_thermal_model(
    rng,
    n_modes: int | None = None,
    n_baths: int | None = None,
    kind: str | None = None,
    ensure_ergodic: bool = True,
) -> ThermalQuasiFreeModel:
    """Draw a random valid model; rejection-samples to full Kalman rank, up to 50 draws.

    ``kind`` is one of KINDS, or None for a random choice of ``spectral`` and
    ``uniform``; any other value is refused with MalformedInputError.
    """
    if kind is not None and kind not in KINDS:
        raise MalformedInputError(f"unknown model kind {kind!r}: expected one of {', '.join(KINDS)}")
    for _ in range(50):
        lm = n_modes if n_modes is not None else int(rng.integers(1, 4))
        nb = n_baths if n_baths is not None else int(rng.integers(2, 5))
        family = kind or ("spectral" if (rng.random() < 0.5 and nb >= lm) else "uniform")
        if family == "spectral" and nb < lm:
            raise MalformedInputError(f"a spectral model needs n_baths >= n_modes, got {nb} < {lm}")
        if family == "spectral":
            model = _spectral_model(rng, lm, nb)
        elif family == "tr_broken":
            model = _uniform_model(rng, lm, nb, complex_phases=True)
        else:
            model = _uniform_model(rng, lm, nb)
        if not ensure_ergodic:
            return model
        _, full = dynamics.kalman_rank(model)
        if full:
            return model
    raise RuntimeError("could not draw an ergodic model; loosen the constraints")
