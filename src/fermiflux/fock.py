"""Brute-force oracle on the full 2^L fermionic Fock space.

Everything in this module is dense and exponentially sized on purpose: it is
the independent reference implementation used to validate the phase-space
solvers.  A Jordan-Wigner representation pins all sign conventions: mode i
acts on tensor factor i (0-based) with Z strings on the factors before it,

    gamma[i]     = c_i + c_i^dagger,
    gamma[i + L] = -1j (c_i - c_i^dagger),        i = 0..L-1.

Covariance normalization: M_ij = tr(rho gamma_i gamma_j) / 2, so that
M^T = 1 - M and the Gibbs state of the quadratic operator of kappa at inverse
temperature beta has covariance (1 + exp(-beta kappa))^{-1}.

Superoperators act on row-major vectorized operators and are returned in the
Schroedinger picture (trace preserving for a Lindbladian: the vectorized
identity is a left null vector).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from . import superop as so
from .errors import MalformedInputError, ResourceLimitError
from .phasespace import Basis, PhaseSpaceMatrix
from .thermal import ThermalQuasiFreeModel

L_MAX = 6

# the three pairings of four indices and their permutation signatures
_PAIRINGS4 = (((0, 1), (2, 3), 1.0), ((0, 2), (1, 3), -1.0), ((0, 3), (1, 2), 1.0))


def _check_cap(n_modes: int, cap: int | None = None) -> None:
    cap = L_MAX if cap is None else cap  # module-level cap is configurable
    if not 1 <= n_modes <= cap:
        raise ResourceLimitError(f"Fock layer supports 1 <= L <= {cap}, got {n_modes}")


@lru_cache(maxsize=None)
def _jw_ops(n_modes: int):
    """Annihilation operators c_0..c_{L-1} in the Jordan-Wigner representation."""
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    eye = np.eye(2)
    ops = []
    for i in range(n_modes):
        factors = [z] * i + [a] + [eye] * (n_modes - 1 - i)
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        ops.append(full.astype(complex))
    return tuple(ops)


def annihilation_operators(n_modes: int):
    _check_cap(n_modes)
    return _jw_ops(n_modes)


@lru_cache(maxsize=None)
def majorana_matrices(n_modes: int):
    """The 2L self-adjoint generators of the CAR algebra, ordered (x-type, y-type)."""
    _check_cap(n_modes)
    cs = _jw_ops(n_modes)
    gx = [c + c.conj().T for c in cs]
    gy = [-1j * (c - c.conj().T) for c in cs]
    return tuple(gx + gy)


def quadratic_operator(t: PhaseSpaceMatrix, n_modes: int | None = None) -> np.ndarray:
    """Fock-space operator (1/4) sum_ij [T]_ij gamma_i gamma_j of a phase-space generator.

    With this normalization the gauge-invariant generator diag(1,...,-1,...)
    maps to N - L/2 and Gibbs states reproduce the logistic covariance law.
    """
    if n_modes is None:
        n_modes = t.n_modes
    if t.n_modes != n_modes:
        raise MalformedInputError("generator dimension does not match the mode count")
    gammas = majorana_matrices(n_modes)
    tm = t.maj
    dim = 2**n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(2 * n_modes):
        for j in range(2 * n_modes):
            if tm[i, j] != 0:
                out += 0.25 * tm[i, j] * (gammas[i] @ gammas[j])
    return out


def gaussian_conjugator(t: PhaseSpaceMatrix) -> np.ndarray:
    """exp of the quadratic operator of t; conjugation implements x -> e^t x on fields."""
    return sla.expm(quadratic_operator(t))


def covariance_of(rho: np.ndarray, trace_tol: float = 1e-8) -> PhaseSpaceMatrix:
    """Covariance M_ij = tr(rho gamma_i gamma_j)/2 of a unit-trace state."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n_modes = int(round(np.log2(dim)))
    if 2**n_modes != dim:
        raise MalformedInputError(f"operator dimension {dim} is not a power of two")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise MalformedInputError(f"state must have unit trace, got {tr:.6g}")
    gammas = majorana_matrices(n_modes)
    m = np.empty((2 * n_modes, 2 * n_modes), dtype=complex)
    grho = [g @ rho for g in gammas]
    for i, gi in enumerate(gammas):
        for j in range(2 * n_modes):
            m[i, j] = 0.5 * np.trace(grho[j] @ gi)  # tr(g_i g_j rho) cyclic
    return PhaseSpaceMatrix(m, Basis.MAJORANA)


@dataclass(frozen=True, eq=False)
class QuasiFreeState:
    """A Gaussian density matrix together with its covariance."""

    density: np.ndarray
    covariance: PhaseSpaceMatrix


def quasi_free_state(m: PhaseSpaceMatrix, n_modes: int | None = None, clamp: float = 1e-9) -> QuasiFreeState:
    """Gaussian state with covariance m, via rho = exp(Q(logit m)) / Z.

    The covariance spectrum is clamped to [clamp, 1-clamp] so boundary
    (pure-mode) covariances are handled as smooth limits.
    """
    from .phasespace import covariance_generator

    if n_modes is None:
        n_modes = m.n_modes
    kappa = covariance_generator(m, clamp=clamp)
    h = quadratic_operator(kappa, n_modes)
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    w = -(w - w.min())  # rho ~ exp(-Q(kappa)), shifted for overflow safety
    rho = (v * np.exp(w)) @ v.conj().T
    rho = rho / np.trace(rho).real
    return QuasiFreeState(density=rho, covariance=m)


def wick_check(state: QuasiFreeState, indices) -> tuple[complex, complex]:
    """Direct 4-point trace versus its pairing expansion; returns (lhs, rhs).

    The expansion uses two-point functions tr(rho g_a g_b) taken in the order
    the pair appears in the monomial; this is the convention that matches the
    direct trace (verified in the test-suite against random Gaussian states).
    """
    idx = tuple(int(k) for k in indices)
    if len(idx) != 4:
        raise MalformedInputError("wick_check expects a 4-tuple of Majorana indices")
    dim = state.density.shape[0]
    n_modes = int(round(np.log2(dim)))
    gammas = majorana_matrices(n_modes)
    for k in idx:
        if not 0 <= k < 2 * n_modes:
            raise MalformedInputError(f"Majorana index {k} out of range")
    rho = state.density
    lhs = np.trace(rho @ gammas[idx[0]] @ gammas[idx[1]] @ gammas[idx[2]] @ gammas[idx[3]])
    two = 2.0 * state.covariance.maj  # tr(rho g_a g_b)
    rhs = 0.0
    for (a, b), (c, d), sign in _PAIRINGS4:
        rhs += sign * two[idx[a], idx[b]] * two[idx[c], idx[d]]
    return complex(lhs), complex(rhs)


# ---------------------------------------------------------------------------
# Lindbladian and deformed generator (kernel construction)
# ---------------------------------------------------------------------------


def kernel_superop(kernel: np.ndarray, gammas) -> np.ndarray:
    """Heisenberg map A -> (1/2) sum_kl kernel_kl g_k A g_l as a superoperator."""
    n = kernel.shape[0]
    dim = gammas[0].shape[0]
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in range(n):
        for l in range(n):
            if kernel[k, l] != 0:
                out += 0.5 * kernel[k, l] * so.sandwich(gammas[k], gammas[l])
    return out


def system_hamiltonian(model: ThermalQuasiFreeModel) -> np.ndarray:
    return quadratic_operator(model.t_s, model.n_modes)


def pseudo_energy(model: ThermalQuasiFreeModel) -> np.ndarray:
    return quadratic_operator(model.kappa_s, model.n_modes)


def phi_heisenberg(model: ThermalQuasiFreeModel, bath: int | None = None) -> np.ndarray:
    """Completely positive part of the generator (Heisenberg picture).

    With ``bath`` given, only that bath's contribution.
    """
    _check_cap(model.n_modes)
    gammas = majorana_matrices(model.n_modes)
    idx = range(model.n_baths) if bath is None else [bath]
    dim = 2**model.n_modes
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in idx:
        out += kernel_superop(model.jump_kernel(i), gammas)
    return out


def _dissipator_from_phi(phi_h: np.ndarray, dim: int) -> np.ndarray:
    """Schroedinger dissipator Phi^*(rho) - (1/2){Phi(1), rho} from Heisenberg Phi."""
    phi_one = so.unvec(phi_h @ so.vec(np.eye(dim)))
    return so.adjoint_super(phi_h) - 0.5 * so.anticommutator_super(phi_one)


def bath_generator(model: ThermalQuasiFreeModel, bath: int) -> np.ndarray:
    """Schroedinger-picture dissipative piece of a single bath (no Hamiltonian)."""
    dim = 2**model.n_modes
    return _dissipator_from_phi(phi_heisenberg(model, bath), dim)


def build_lindbladian(model: ThermalQuasiFreeModel) -> np.ndarray:
    """Full Schroedinger-picture generator rho' = -i[H,rho] + dissipators."""
    dim = 2**model.n_modes
    h = system_hamiltonian(model)
    gen = -1j * so.commutator_super(h)
    gen += _dissipator_from_phi(phi_heisenberg(model), dim)
    return gen


def deformed_kernel(model: ThermalQuasiFreeModel, alpha) -> np.ndarray:
    """Majorana matrix of sum_i Theta_i Theta_i^* M_{beta_i} (e^{alpha_i kappa_S} - 1).

    This is the counting-field tilt of the jump part: weighting every quantum
    delta of energy into bath i by exp(alpha_i delta) shifts the Heisenberg
    jump map by the kernel returned here.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (model.n_baths,):
        raise MalformedInputError("alpha must have one entry per bath")
    ks = model.kappa_s.maj
    w, v = np.linalg.eigh(0.5 * (ks + ks.conj().T))
    out = np.zeros_like(ks)
    for i in range(model.n_baths):
        tilt = (v * (np.exp(alpha[i] * w) - 1.0)) @ v.conj().T
        out += model.dissipation_matrix(i) @ model.gibbs_system_covariance(model.baths[i].beta).maj @ tilt
    return out


def build_deformed(model: ThermalQuasiFreeModel, alpha) -> np.ndarray:
    """Schroedinger generator of the counting-field-deformed semigroup.

    At alpha = 0 this is exactly :func:`build_lindbladian`; its dominant
    eigenvalue is the long-time cumulant generating function of the vector of
    energies exchanged with the baths.
    """
    gen = build_lindbladian(model)
    alpha = np.asarray(alpha, dtype=float)
    if not np.any(alpha):
        return gen
    gammas = majorana_matrices(model.n_modes)
    return gen + so.adjoint_super(kernel_superop(deformed_kernel(model, alpha), gammas))


def dominant_eigenvalue(gen: np.ndarray, gap_tol: float = 1e-10):
    """Largest-real-part eigenvalue, its trace-normalized eigenvector and the gap."""
    lam, v, gap = so.dominant_eigenpair(gen, gap_tol)
    rho = so.unvec(v)
    tr = np.trace(rho)
    if abs(tr) > 1e-12:
        rho = rho * (np.conj(tr) / abs(tr))  # rotate the arbitrary eigenvector phase away
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
    else:
        rho = 0.5 * (rho + rho.conj().T)
    return lam, rho, gap


# ---------------------------------------------------------------------------
# repeated-interaction (finite tau) oracle
# ---------------------------------------------------------------------------


def _embed_indices(offset: int, n_modes: int, n_total: int) -> np.ndarray:
    """Phase-space index map of a mode block [offset, offset+n) into the joint space."""
    x = np.arange(offset, offset + n_modes)
    return np.concatenate([x, n_total + x])


def _embed_square(a: np.ndarray, offset: int, n_total: int) -> np.ndarray:
    n = a.shape[0] // 2
    out = np.zeros((2 * n_total, 2 * n_total), dtype=complex)
    idx = _embed_indices(offset, n, n_total)
    out[np.ix_(idx, idx)] = a
    return out


def joint_realization(model: ThermalQuasiFreeModel):
    """Explicit system+bath realization on the joint Fock space.

    Bath modes occupy the leading Jordan-Wigner sites (in bath order) and the
    system modes follow, so the joint Hilbert space factors as H_B (x) H_S with
    bath operators string-free and system operators dressed by the bath parity.
    This is the arrangement under which the reduced map of one interaction
    reproduces the quasi-free generator; the opposite ordering differs on the
    odd sector.  Returns the embedded Hamiltonians, the conserved pseudo-energy
    pieces and the bath state (a matrix on the leading tensor factor).
    """
    ls = model.n_modes
    lb = sum(b.n_modes for b in model.baths)
    n_total = ls + lb
    _check_cap(n_total)

    sys_offset = lb
    t_joint = _embed_square(model.t_s.maj, sys_offset, n_total)
    k_s_joint = _embed_square(model.kappa_s.maj, sys_offset, n_total)
    t_cpl = np.zeros((2 * n_total, 2 * n_total), dtype=complex)
    k_b_joint = np.zeros_like(t_cpl)
    rho_b = np.array([[1.0]], dtype=complex)
    sys_idx = _embed_indices(sys_offset, ls, n_total)
    offset = 0
    for i, b in enumerate(model.baths):
        bath_idx = _embed_indices(offset, b.n_modes, n_total)
        th = b.theta.maj
        t_cpl[np.ix_(sys_idx, bath_idx)] = th
        t_cpl[np.ix_(bath_idx, sys_idx)] = th.conj().T
        k_b_joint += _embed_square(b.kappa.maj, offset, n_total)
        rho_b = np.kron(rho_b, quasi_free_state(model.bath_covariance(i), b.n_modes).density)
        offset += b.n_modes

    def q(mat):
        return quadratic_operator(PhaseSpaceMatrix(mat, Basis.MAJORANA), n_total)

    return {
        "n_total": n_total,
        "n_system": ls,
        "h_system": q(t_joint),
        "h_coupling": q(t_cpl),
        "k_system": q(k_s_joint),
        "k_bath": q(k_b_joint),
        "rho_bath": rho_b,
    }


def _partial_trace_bath(x: np.ndarray, dim_b: int, dim_s: int) -> np.ndarray:
    """Trace out the leading (bath) tensor factor."""
    return np.trace(x.reshape(dim_b, dim_s, dim_b, dim_s), axis1=0, axis2=2)


def discrete_step(model: ThermalQuasiFreeModel, tau: float) -> np.ndarray:
    """One repeated-interaction step as a Schroedinger superoperator.

    Lambda_tau^*(rho) = Tr_B( U_tau (rho_B (x) rho) U_tau^* ) with
    U_tau = exp(-i tau H_S - i sqrt(tau) H_SB).  Iterating floor(t/tau) steps
    converges to exp(t L^*) as tau -> 0 (empirically at rate sqrt(tau)).
    """
    if tau <= 0:
        raise MalformedInputError("tau must be positive")
    real = joint_realization(model)
    dim_s = 2**real["n_system"]
    dim_b = 2 ** (real["n_total"] - real["n_system"])
    u = sla.expm(-1j * (tau * real["h_system"] + np.sqrt(tau) * real["h_coupling"]))
    rho_b = real["rho_bath"]
    out = np.zeros((dim_s * dim_s, dim_s * dim_s), dtype=complex)
    basis = np.zeros((dim_s, dim_s), dtype=complex)
    for a in range(dim_s):
        for b in range(dim_s):
            basis[a, b] = 1.0
            big = u @ np.kron(rho_b, basis) @ u.conj().T
            out[:, a * dim_s + b] = _partial_trace_bath(big, dim_b, dim_s).reshape(-1)
            basis[a, b] = 0.0
    return out


# ---------------------------------------------------------------------------
# detailed balance and entropy balance
# ---------------------------------------------------------------------------


def detailed_balance_residual(phi_h: np.ndarray, sigma: np.ndarray) -> float:
    """max_A || Phi^*(A sigma) sigma^{-1} - Phi(A) || over a matrix-unit basis.

    ``phi_h`` is the Heisenberg-picture superoperator of the completely
    positive part; sigma must be a faithful state.
    """
    sigma = np.asarray(sigma, dtype=complex)
    w = np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))
    if w.min() <= 0:
        raise MalformedInputError("detailed balance requires a faithful (positive) sigma")
    dim = sigma.shape[0]
    phi_s = so.adjoint_super(phi_h)
    sigma_inv = np.linalg.inv(sigma)
    worst = 0.0
    unit = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            unit[a, b] = 1.0
            lhs = so.unvec(phi_s @ so.vec(unit @ sigma)) @ sigma_inv
            rhs = so.unvec(phi_h @ so.vec(unit))
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
            unit[a, b] = 0.0
    return worst


def von_neumann_entropy(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    w = np.clip(w.real, 0.0, None)
    w = w[w > 1e-300]
    return float(-(w * np.log(w)).sum())


def bath_flux(model: ThermalQuasiFreeModel, rho: np.ndarray, gens=None) -> np.ndarray:
    """Fock-space fluxes J_i(rho) = -tr(L_i^*(rho) K_S), one entry per bath."""
    if gens is None:
        gens = [bath_generator(model, i) for i in range(model.n_baths)]
    ks = pseudo_energy(model)
    return np.array([-np.trace(so.apply_super(g, rho) @ ks).real for g in gens])


def entropy_balance(model: ThermalQuasiFreeModel, rho0: np.ndarray, t: float, steps: int = 64) -> float:
    """S(rho(t)) - S(rho(0)) + sum_i beta_i int_0^t J_i(rho(s)) ds.

    The integral is composite-Simpson quadrature on ``steps`` panels (rounded
    up to even); the result is nonnegative up to quadrature error for every
    initial state.
    """
    steps = max(2, steps + (steps % 2))
    gen = build_lindbladian(model)
    gens = [bath_generator(model, i) for i in range(model.n_baths)]
    betas = model.betas
    h = t / steps
    prop = sla.expm(h * gen)
    rho = np.asarray(rho0, dtype=complex)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    acc = 0.0
    for k in range(steps + 1):
        acc += weights[k] * float(betas @ bath_flux(model, rho, gens))
        if k < steps:
            rho = so.apply_super(prop, rho)
    integral = acc * h / 3.0
    return von_neumann_entropy(rho) - von_neumann_entropy(np.asarray(rho0)) + integral
