"""Dense superoperator plumbing shared by the Fock oracle and the machine models.

Operators are vectorized row-major (numpy ``reshape(-1)``), so that for the
matrix S of a superoperator acting on vec(rho):

    vec(A rho B) = (A kron B^T) vec(rho).

The Hilbert-Schmidt inner product matches the Euclidean one under this map,
hence the adjoint superoperator is the conjugate transpose of S.
"""

from __future__ import annotations

import numpy as np


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
    return np.kron(np.eye(d), b.T)


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator rho -> a rho b."""
    return np.kron(a, b.T)


def kraus_map(ks) -> np.ndarray:
    """Superoperator rho -> sum_k K_k rho K_k^dagger of a stack of Kraus operators."""
    ks = np.asarray(ks)
    d = ks.shape[-1]
    flat = ks.reshape(-1, d * d)
    # entry [(a, c), (b, d)] is sum_k K_ab conj(K_cd), i.e. sum_k K kron conj(K)
    return (flat.T @ flat.conj()).reshape(d, d, d, d).swapaxes(1, 2).reshape(d * d, d * d)


def kraus_rate(ks) -> np.ndarray:
    """The rate operator sum_k K_k^dagger K_k, the Heisenberg image of 1."""
    return np.einsum("kab,kac->bc", np.conj(ks), ks)


def dissipator(ks) -> np.ndarray:
    """Schroedinger dissipator rho -> sum_k K_k rho K_k^dagger - (1/2){sum_k K_k^dagger K_k, rho}."""
    return kraus_map(ks) - 0.5 * anticommutator_super(kraus_rate(ks))


def commutator_super(h: np.ndarray) -> np.ndarray:
    """Superoperator rho -> [h, rho]."""
    return left_mul(h) - right_mul(h)


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


def stationary_density(s: np.ndarray) -> np.ndarray:
    """Trace-one stationary density of a Schroedinger-picture generator matrix."""
    lam, v, _ = dominant_eigenpair(s)
    rho = unvec(v)
    tr = np.trace(rho)
    if abs(tr) > 0:
        rho = rho * (np.conj(tr) / abs(tr))  # cancel the eigenvector's phase
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real
