"""Dense superoperators and the Lindblad model shared by the Fock oracle, the
qubit machines and the jump sampler.

Operators are vectorized row-major (numpy ``reshape(-1)``), so that for the
matrix S of a superoperator acting on vec(rho):

    vec(A rho B) = (A kron B^T) vec(rho).

The Hilbert-Schmidt inner product matches the Euclidean one under this map,
hence the adjoint superoperator is the conjugate transpose of S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import MalformedInputError


def vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    return v.reshape(d, d)


def left_mul(a: np.ndarray) -> np.ndarray:
    """Superoperator rho -> a rho."""
    d = a.shape[0]
    return np.kron(a, np.eye(d))


def right_mul(b: np.ndarray) -> np.ndarray:
    """Superoperator rho -> rho b."""
    d = b.shape[0]
    return np.kron(np.eye(d), np.ascontiguousarray(b.T))  # same entries; kron of a strided b.T is ~5x slower


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator rho -> a rho b."""
    return np.kron(a, b.T)


def kraus_map(ks, out=None) -> np.ndarray:
    """Superoperator rho -> sum_k K_k rho K_k^dagger of a stack of Kraus operators.

    With ``out`` (a contiguous d^2 x d^2 array) the map is added into it and
    ``out`` is returned, without a second d^2 x d^2 temporary.
    """
    ks = np.asarray(ks)
    d = ks.shape[-1]
    flat = ks.reshape(-1, d * d)
    # entry [(a, c), (b, e)] is sum_k K_ab conj(K_ce), i.e. sum_k K kron conj(K)
    terms = (flat.T @ flat.conj()).reshape(d, d, d, d).swapaxes(1, 2)
    if out is None:
        return terms.reshape(d * d, d * d)
    out.reshape(d, d, d, d)[...] += terms
    return out


def kraus_rate(ks) -> np.ndarray:
    """The rate operator sum_k K_k^dagger K_k, the Heisenberg image of 1."""
    return np.einsum("kab,kac->bc", np.conj(ks), ks)


def anticommutator_super(h: np.ndarray) -> np.ndarray:
    """Superoperator rho -> {h, rho}."""
    return left_mul(h) + right_mul(h)


def adjoint_super(s: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint of a superoperator matrix."""
    return s.conj().T


def apply_super(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return unvec(s @ vec(rho))


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix of the map with superoperator matrix S; CP iff Choi >= 0."""
    d2 = s.shape[0]
    d = int(round(np.sqrt(d2)))
    return s.reshape(d, d, d, d).swapaxes(1, 2).reshape(d2, d2)


def is_completely_positive(s: np.ndarray, tol: float = 1e-10) -> bool:
    w = np.linalg.eigvalsh(0.5 * (choi_matrix(s) + choi_matrix(s).conj().T))
    return bool(w.min() >= -tol)


def dominant_eigenpair(s: np.ndarray):
    """Eigenvalue of largest real part and its eigenvector, by full dense solve.

    Returns ``(eigenvalue, eigenvector, gap)`` where ``gap`` is the real-part
    distance to the nearest other eigenvalue.  Deterministic (no iterative
    starting-vector dependence); sizes here are small by construction.
    """
    w, v = np.linalg.eig(s)
    order = np.argsort(-w.real)
    lead = order[0]
    gap = float(w[order[0]].real - w[order[1]].real) if len(order) > 1 else np.inf
    return w[lead], v[:, lead], gap


def density_of(v: np.ndarray) -> np.ndarray:
    """An eigenvector as a Hermitian matrix, of unit trace unless it is traceless.

    The eigenvector's arbitrary phase is rotated away before the Hermitian part
    is taken; a traceless eigenvector is only made Hermitian.
    """
    rho = unvec(v)
    tr = np.trace(rho)
    if abs(tr) > 1e-12:
        rho = rho * (np.conj(tr) / abs(tr))
        rho = 0.5 * (rho + rho.conj().T)
        return rho / np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def stationary_density(s: np.ndarray) -> np.ndarray:
    """Trace-one stationary density of a Schroedinger-picture generator matrix."""
    return density_of(dominant_eigenpair(s)[1])


def detailed_balance_residual(phi_h: np.ndarray, sigma: np.ndarray) -> float:
    """max_A || Phi^*(A sigma) - Phi(A) sigma ||_2 over a matrix-unit basis.

    ``phi_h`` is the Heisenberg-picture superoperator of the completely
    positive part; sigma must be a faithful state.  All matrix units are
    checked at once through the superoperator identity Phi^* R_sigma =
    R_sigma Phi, with R_sigma the right multiplication by sigma: column E_ab of
    the difference is Phi^*(E_ab sigma) - Phi(E_ab) sigma.  This is the
    condition Phi^*(A sigma) sigma^{-1} = Phi(A) multiplied on the right by
    sigma, so no inverse of sigma, and none of its condition number, enters.
    """
    sigma = np.asarray(sigma, dtype=complex)
    w = np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))
    if w.min() <= 0:
        raise MalformedInputError("detailed balance requires a faithful (positive) sigma")
    dim = sigma.shape[0]
    r_sigma = right_mul(sigma)
    diff = adjoint_super(phi_h) @ r_sigma - r_sigma @ phi_h
    return float(np.linalg.norm(diff.T.reshape(-1, dim, dim), 2, axis=(1, 2)).max())


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """A Hamiltonian, one Kraus stack per bath, the conserved observable K_S and the temperatures.

    ``kraus[i]`` is bath i's (k, d, d) stack of Kraus operators, possibly
    empty.  Bath i contributes rho -> sum_k K_k rho K_k^dagger - (1/2){R_i, rho}
    with the rate operator R_i = sum_k K_k^dagger K_k, and the energy it takes
    from the system is the flux J_i = -tr(L_i^*(rho) K_S).
    """

    hamiltonian: np.ndarray
    k_system: np.ndarray
    betas: tuple
    kraus: tuple

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_baths(self) -> int:
        return len(self.betas)

    def bath_piece(self, i: int, scale=None) -> np.ndarray:
        """Schroedinger piece of bath i; ``scale`` (one factor per Kraus operator) tilts the jumps only."""
        ks = self.kraus[i]
        piece = kraus_map(ks if scale is None else scale[:, None, None] * ks)
        piece -= anticommutator_super(0.5 * kraus_rate(ks))
        return piece

    def generator(self, scales=None) -> np.ndarray:
        """G rho + rho G^dagger (G = ``no_jump()``) + each bath's jumps in bath order; ``scales[i]`` tilts bath i's.

        The no-jump part is one left and one right multiplication; ``bath_piece``
        builds one bath's share for ``fluxes``.
        """
        g = self.no_jump()
        out = left_mul(g)
        out += right_mul(g.conj().T)
        for i, ks in enumerate(self.kraus):
            kraus_map(ks if scales is None else scales[i][:, None, None] * ks, out=out)
        return out

    def no_jump(self) -> np.ndarray:
        """G = -i H - (1/2) sum_i R_i, so that the generator is G rho + rho G^dagger + the jumps."""
        g = -1j * self.hamiltonian
        for ks in self.kraus:
            g -= 0.5 * kraus_rate(ks)
        return g

    def phi_heisenberg(self, i: int) -> np.ndarray:
        """Heisenberg map A -> sum_k K_k^dagger A K_k of bath i, the completely positive part."""
        return kraus_map(self.kraus[i].conj().transpose(0, 2, 1))

    def stationary_state(self) -> np.ndarray:
        return stationary_density(self.generator())

    def fluxes(self, rho: np.ndarray | None = None) -> np.ndarray:
        """J_i = -tr(L_i^*(rho) K_S), one entry per bath; rho defaults to the stationary state."""
        if rho is None:
            rho = self.stationary_state()
        return np.array(
            [-np.trace(apply_super(self.bath_piece(i), rho) @ self.k_system).real for i in range(self.n_baths)]
        )

    def detailed_balance_residuals(self) -> np.ndarray:
        """Residual of each bath's completely positive part against Gibbs(K_S, beta_i)."""
        out = np.empty(self.n_baths)
        for i, beta in enumerate(self.betas):
            sigma = sla.expm(-beta * self.k_system)
            out[i] = detailed_balance_residual(self.phi_heisenberg(i), sigma / np.trace(sigma))
        return out

    def scaled(self, mu: float) -> "LindbladModel":
        """All rates and the Hamiltonian multiplied by mu > 0.

        The stationary state is unchanged and every flux scales by mu exactly.
        """
        if mu <= 0:
            raise MalformedInputError("scale factor must be positive")
        return LindbladModel(
            mu * self.hamiltonian, self.k_system, self.betas, tuple(np.sqrt(mu) * ks for ks in self.kraus)
        )
