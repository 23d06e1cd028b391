"""Phase-space linear algebra for fermionic Gaussian calculus.

The doubled one-particle space of an L-mode system has dimension 2L and
carries two distinguished bases:

* the *Majorana* basis, in which the antilinear involution ``xi`` acts as
  entrywise complex conjugation of coordinates, and
* the *creation/annihilation* (CA) basis, in which gauge-invariant
  (particle-number conserving) operators are block diagonal.

The Majorana basis is the one stored representation: structure checks
(generator, coupling, covariance) reduce to reality/antisymmetry statements
there, and every function here returns Majorana matrices.  The CA basis is
an input form (``basis=Basis.CA``, converted once by the constructor) and a
read-only view (``.ca``, computed on first use).  Conversion between the
bases is the fixed block similarity

    X_ca = P X_maj P^{-1},      P = [[1, i1], [1, -i1]]  (L x L blocks).

Conventions fixed here and relied on everywhere else:

* generators T of quadratic Hamiltonians are self-adjoint with
  ``xi T xi = -T`` (Majorana matrix ``iR`` with R real antisymmetric);
* couplings Theta: bath -> system satisfy ``xi_S Theta xi_B = -Theta``
  (Majorana matrix ``iW`` with W real);
* covariance matrices M are self-adjoint with spectrum in [0, 1] and
  ``xi-transpose(M) = 1 - M``; the Gibbs covariance of a generator kappa at
  inverse temperature beta is ``(1 + exp(-beta kappa))^{-1}``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import InitVar, dataclass

import numpy as np
from scipy.special import expit

from .errors import MalformedInputError, ValidationError

DEFAULT_TOL = 1e-10
# eigenvalues closer than this, relative to max(1, ||H||), form one eigenspace
CLUSTER_RTOL = 1e-8


class Basis(enum.Enum):
    MAJORANA = "majorana"
    CA = "ca"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def ca_change_matrix(n_modes: int) -> np.ndarray:
    """P with CA coordinates = P @ Majorana coordinates (shared, read-only)."""
    one = np.eye(n_modes)
    return _freeze(np.block([[one, 1j * one], [one, -1j * one]]))


@functools.lru_cache(maxsize=None)
def ca_change_inverse(n_modes: int) -> np.ndarray:
    """P^{-1} (shared, read-only)."""
    one = np.eye(n_modes)
    return _freeze(0.5 * np.block([[one, one], [-1j * one, 1j * one]]))


def _check_even(dim: int) -> None:
    if dim % 2 != 0 or dim <= 0:
        raise MalformedInputError(f"phase-space dimension must be even and positive, got {dim}")


@dataclass(frozen=True, eq=False)
class _PhaseSpaceOperator:
    """Operator between phase spaces, stored once in the Majorana basis.

    ``basis`` names the basis the input is given in; CA input is converted
    here, and ``.ca`` is a view computed on first use.
    """

    data: np.ndarray
    basis: InitVar[Basis] = Basis.MAJORANA
    _square = False

    def __post_init__(self, basis: Basis):
        a = _freeze(self.data)
        if a.ndim != 2 or (self._square and a.shape[0] != a.shape[1]):
            raise MalformedInputError(f"expected a {'square ' if self._square else ''}matrix, got shape {a.shape}")
        _check_even(a.shape[0])
        _check_even(a.shape[1])
        if basis == Basis.CA:
            a = _freeze(ca_change_inverse(a.shape[0] // 2) @ a @ ca_change_matrix(a.shape[1] // 2))
        object.__setattr__(self, "data", a)

    @property
    def maj(self) -> np.ndarray:
        return self.data

    @functools.cached_property
    def ca(self) -> np.ndarray:
        rows, cols = self.data.shape
        return _freeze(ca_change_matrix(rows // 2) @ self.data @ ca_change_inverse(cols // 2))


@dataclass(frozen=True, eq=False)
class PhaseSpaceMatrix(_PhaseSpaceOperator):
    """Square operator on a 2L-dimensional phase space."""

    _square = True

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def n_modes(self) -> int:
        return self.dim // 2


@dataclass(frozen=True, eq=False)
class CouplingMatrix(_PhaseSpaceOperator):
    """Rectangular operator from a bath phase space (2L_B) to the system one (2L_S)."""

    @property
    def n_system_modes(self) -> int:
        return self.data.shape[0] // 2

    @property
    def n_bath_modes(self) -> int:
        return self.data.shape[1] // 2


def xi_transpose(m: PhaseSpaceMatrix) -> PhaseSpaceMatrix:
    """The transpose xi M^dagger xi; plain transposition in the Majorana basis.

    In the CA basis it acts blockwise as [[A,B],[C,D]] -> [[D^t,B^t],[C^t,A^t]].
    """
    return PhaseSpaceMatrix(m.maj.T, Basis.MAJORANA)


def generator_residuals(t: PhaseSpaceMatrix) -> dict:
    """Residuals of the quadratic-generator structure: T self-adjoint, xi T xi = -T."""
    a = t.maj
    return {
        "self_adjoint": float(np.max(np.abs(a - a.conj().T), initial=0.0)),
        "xi_odd": float(np.max(np.abs(np.conj(a) + a), initial=0.0)),
    }


def coupling_residuals(theta: CouplingMatrix) -> dict:
    """Residual of the coupling structure xi_S Theta xi_B = -Theta."""
    a = theta.maj
    return {"xi_odd": float(np.max(np.abs(np.conj(a) + a), initial=0.0))}


def covariance_residuals(m: PhaseSpaceMatrix) -> dict:
    """Residuals of the covariance structure: M = M*, 0 <= M <= 1, M^T = 1 - M."""
    a = m.maj
    herm = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    return {
        "self_adjoint": herm,
        "spectrum_low": float(max(0.0, -w.min())),
        "spectrum_high": float(max(0.0, w.max() - 1.0)),
        "xi_transpose": float(np.max(np.abs(a.T - (np.eye(a.shape[0]) - a)))),
    }


def _require(residuals: dict, tol: float, label: str) -> None:
    bad = [(f"{label}.{k}", v, tol) for k, v in residuals.items() if v > tol]
    if bad:
        raise ValidationError(bad)


def validate_generator(t: PhaseSpaceMatrix, tol: float = DEFAULT_TOL, label: str = "generator") -> None:
    _require(generator_residuals(t), tol, label)


def validate_coupling(theta: CouplingMatrix, tol: float = DEFAULT_TOL, label: str = "coupling") -> None:
    _require(coupling_residuals(theta), tol, label)


def validate_covariance(m: PhaseSpaceMatrix, tol: float = DEFAULT_TOL, label: str = "covariance") -> None:
    _require(covariance_residuals(m), tol, label)


def eigenspaces(h: np.ndarray) -> list:
    """Orthonormal bases of the eigenspaces of the self-adjoint h, by increasing eigenvalue.

    Sorted eigenvalues that follow their neighbour by at most
    CLUSTER_RTOL * max(1, ||h||) share an eigenspace.
    """
    w, u = np.linalg.eigh(0.5 * (h + h.conj().T))
    return np.split(u, np.flatnonzero(np.diff(w) > CLUSTER_RTOL * max(1.0, float(np.abs(w).max()))) + 1, axis=1)


def gibbs_covariance(kappa: PhaseSpaceMatrix, beta: float) -> PhaseSpaceMatrix:
    """Covariance (1 + exp(-beta kappa))^{-1} of the Gibbs state of kappa.

    Computed through the eigendecomposition of the self-adjoint kappa, with the
    logistic function applied to eigenvalues, so beta of either sign and the
    beta -> +-inf limits are handled without overflow.
    """
    a = kappa.maj
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    m = (v * expit(beta * w)) @ v.conj().T
    return PhaseSpaceMatrix(m, Basis.MAJORANA)


def embed_gauge_invariant(small: np.ndarray) -> PhaseSpaceMatrix:
    """Lift an L x L one-particle Hamiltonian h to the full phase space as diag(h, -conj(h)) (CA basis)."""
    small = np.asarray(small, dtype=complex)
    z = np.zeros(small.shape)
    return PhaseSpaceMatrix(np.block([[small, z], [z, -np.conj(small)]]), Basis.CA)


def embed_gauge_invariant_coupling(small: np.ndarray) -> CouplingMatrix:
    """Lift an L_S x L_B hopping amplitude to a phase-space coupling (CA basis).

    The lower block carries a minus sign: diag(theta, -conj(theta)) is the
    unique gauge-invariant completion with xi_S Theta xi_B = -Theta.
    """
    small = np.asarray(small, dtype=complex)
    ls, lb = small.shape
    z = np.zeros((ls, lb))
    return CouplingMatrix(np.block([[small, z], [z, -np.conj(small)]]), Basis.CA)
