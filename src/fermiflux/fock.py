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
identity is a left null vector).  The generators are built on the full
2^L-dimensional space, as G rho + rho G^dagger plus the jumps.  Their
dominant eigenpair is solved on a sector: the even operators |a><b| between
eigenstates of the pseudo-energy K of equal energy.  H commutes with K and
every jump operator shifts K by its bath quantum, so the generator, tilted or
not, keeps that sector, and the Perron eigenvector lies in it.  That is
C(2L, L) of the d^2/2 even operators for a chain (70 of 128 at L = 4) and
2^L for a generic pairing model.  Without K the sector is the whole even
sector.  Everything here stays dense: the sector is a dense basis, checked
against the whole even block, not a sparse solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from . import phasespace as ps
from . import superop as so
from .errors import MalformedInputError, ResourceLimitError
from .phasespace import Basis, PhaseSpaceMatrix, gibbs_covariance
from .thermal import ThermalQuasiFreeModel

L_MAX = 6
# largest leak of a generator out of the equal-energy sector of K that dominant_eigenvalue accepts,
# relative to max|G|; measured at most 1.2e-14 on chains and uniform, spectral and tr_broken draws
# at L <= 6 with |alpha_i| w <= 30
SECTOR_LEAK_TOL = 1e-10

log = logging.getLogger(__name__)

# the three pairings of four indices and their permutation signatures
_PAIRINGS4 = (((0, 1), (2, 3), 1.0), ((0, 2), (1, 3), -1.0), ((0, 3), (1, 2), 1.0))


def _check_cap(n_modes: int) -> None:
    if not 1 <= n_modes <= L_MAX:
        raise ResourceLimitError(f"Fock layer supports 1 <= L <= {L_MAX}, got {n_modes}")


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


@lru_cache(maxsize=None)
def _parity(n_modes: int) -> np.ndarray:
    """Parity, 0 or 1, of each Jordan-Wigner basis state."""
    parity = np.array([bin(a).count("1") & 1 for a in range(2**n_modes)])
    parity.flags.writeable = False
    return parity


@lru_cache(maxsize=None)
def _parity_sectors(n_modes: int):
    """Row-major vec positions (a, b) of the even and of the odd operators, d^2/2 each.

    (a, b) is even when its Jordan-Wigner basis states have equal parity; the
    even operators are those that commute with the parity P.
    """
    parity = _parity(n_modes)
    same = (parity[:, None] == parity[None, :]).reshape(-1)
    sectors = np.flatnonzero(same), np.flatnonzero(~same)
    for s in sectors:
        s.flags.writeable = False
    return sectors


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


def quadratic_operator(t: PhaseSpaceMatrix) -> np.ndarray:
    """Fock-space operator (1/4) sum_ij [T]_ij gamma_i gamma_j of a phase-space generator.

    With this normalization the gauge-invariant generator diag(1,...,-1,...)
    maps to N - L/2 and Gibbs states reproduce the logistic covariance law.
    """
    gammas = majorana_matrices(t.n_modes)
    tm = t.maj
    dim = 2**t.n_modes
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(t.dim):
        for j in range(t.dim):
            if tm[i, j] != 0:
                out += 0.25 * tm[i, j] * (gammas[i] @ gammas[j])
    return out


def gaussian_conjugator(t: PhaseSpaceMatrix) -> np.ndarray:
    """exp of the quadratic operator of t; conjugation implements x -> e^t x on fields."""
    return sla.expm(quadratic_operator(t))


def covariance_of(rho: np.ndarray) -> PhaseSpaceMatrix:
    """Covariance M_ij = tr(rho gamma_i gamma_j)/2 of a unit-trace state."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n_modes = int(round(np.log2(dim)))
    if 2**n_modes != dim:
        raise MalformedInputError(f"operator dimension {dim} is not a power of two")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-8:
        raise MalformedInputError(f"state must have unit trace, got {tr:.6g}")
    g = np.array(majorana_matrices(n_modes))
    m = 0.5 * np.einsum("iab,jba->ij", g, g @ rho)  # tr(g_i g_j rho)/2, cyclic
    return PhaseSpaceMatrix(m, Basis.MAJORANA)


@dataclass(frozen=True, eq=False)
class QuasiFreeState:
    """A Gaussian density matrix together with its covariance."""

    density: np.ndarray
    covariance: PhaseSpaceMatrix


def quasi_free_state(m: PhaseSpaceMatrix) -> QuasiFreeState:
    """Gaussian state with covariance m, as a product over its normal modes.

    Each eigenpair (nu >= 1/2, u) of m gives the mode b^dagger = sum_j u_j
    gamma_j / sqrt(2) with occupation 1 - nu, and rho = prod_k (nu_k (1 - n_k)
    + (1 - nu_k) n_k) with n_k = b_k^dagger b_k.  No logarithm of m is taken,
    so the state is exact for every spectrum in [0, 1], pure modes included;
    a mode at nu = 1/2 contributes the scalar 1/2 whatever u is.
    """
    n_modes = m.n_modes
    a = m.maj
    nu, u = np.linalg.eigh(0.5 * (a + a.conj().T))  # ascending: the last L have nu >= 1/2
    b_dag = np.tensordot(u[:, n_modes:].T, np.array(majorana_matrices(n_modes)), axes=1) / np.sqrt(2.0)
    eye = np.eye(2**n_modes)
    rho = eye
    for nu_k, bd in zip(nu[n_modes:], b_dag):
        rho = rho @ (nu_k * eye + (1.0 - 2.0 * nu_k) * (bd @ bd.conj().T))
    rho = 0.5 * (rho + rho.conj().T)
    return QuasiFreeState(density=rho / np.trace(rho).real, covariance=m)


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
# Lindbladian and deformed generator (one Kraus operator per bath eigenmode)
# ---------------------------------------------------------------------------


def system_hamiltonian(model: ThermalQuasiFreeModel) -> np.ndarray:
    return quadratic_operator(model.t_s)


def pseudo_energy(model: ThermalQuasiFreeModel) -> np.ndarray:
    return quadratic_operator(model.kappa_s)


def jump_operators(model: ThermalQuasiFreeModel, i: int):
    """Energies w and Kraus operators J of bath i, one per eigenmode c of kappa_i.

    J_c = sqrt(n_c / 2) sum_k conj(t_kc) gamma_k is linear in the system
    fermions (w, n, t from ``bath_modes``); a jump through J_c carries the
    quantum w_c into the bath.  Summed over c the Kraus operators rebuild
    the jump kernel K = ``jump_kernel(i)``:

        sum_c J_c^dagger A J_c = (1/2) sum_kl K_kl gamma_k A gamma_l.

    J has shape (2 L_B, d, d) with d = 2^L.
    """
    _check_cap(model.n_modes)
    w, n, t = model.bath_modes(i)
    gammas = np.array(majorana_matrices(model.n_modes))
    return w, np.sqrt(n / 2)[:, None, None] * np.tensordot(t.conj().T, gammas, axes=1)


def lindblad_model(model: ThermalQuasiFreeModel) -> so.LindbladModel:
    """The semigroup on the system Fock space: H_S, K_S, the temperatures and each bath's J stack."""
    return so.LindbladModel(
        hamiltonian=system_hamiltonian(model),
        k_system=pseudo_energy(model),
        betas=tuple(model.betas),
        kraus=tuple(jump_operators(model, i)[1] for i in range(model.n_baths)),
    )


def build_lindbladian(model: ThermalQuasiFreeModel) -> np.ndarray:
    """Full Schroedinger-picture generator rho' = -i[H,rho] + dissipators."""
    return lindblad_model(model).generator()


def build_deformed(model: ThermalQuasiFreeModel, alpha) -> np.ndarray:
    """Schroedinger generator of the counting-field-deformed semigroup.

    Each jump J_c into bath i is weighted by exp(alpha_i w_c) while the no-jump
    part keeps the untilted rates.  At alpha = 0 this is exactly
    :func:`build_lindbladian`; its dominant eigenvalue is the long-time
    cumulant generating function of the energies exchanged with the baths.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (model.n_baths,) or not np.isfinite(alpha).all():
        raise MalformedInputError("alpha must have one finite entry per bath")
    scales = [np.exp(0.5 * a * model.bath_modes(i)[0]) for i, a in enumerate(alpha)]
    return lindblad_model(model).generator(scales)


def _sector_basis(k: np.ndarray, n_modes: int) -> np.ndarray:
    """Orthonormal columns vec(u_a u_b^dagger), E_a = E_b, of the K eigenbasis, on the even-operator rows.

    K is diagonalised on the even and on the odd Jordan-Wigner basis states
    separately (``phasespace.eigenspaces`` groups its levels), and a and b
    run over one level of one parity.  So every column is an even operator,
    even where a resonance gives an even and an odd state the same energy.
    For K = 0 the eigenvectors are the basis states, the levels are the two
    parities and the columns are the unit vectors of the even sector, in order.
    """
    dim = 2**n_modes
    parity = _parity(n_modes)
    u = np.zeros((dim, dim), dtype=complex)
    level = np.empty(dim, dtype=int)
    n_levels = 0
    for states in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)):
        spaces = ps.eigenspaces(k[np.ix_(states, states)])
        u[np.ix_(states, states)] = np.hstack(spaces)
        level[states] = n_levels + np.repeat(np.arange(len(spaces)), [sp.shape[1] for sp in spaces])
        n_levels += len(spaces)
    p, q = np.divmod(np.flatnonzero(level[:, None] == level[None, :]), dim)
    a, b = np.divmod(_parity_sectors(n_modes)[0], dim)
    return u[np.ix_(a, p)] * u[np.ix_(b, q)].conj()


@lru_cache(maxsize=None)
def _even_basis(n_modes: int) -> np.ndarray:
    """``_sector_basis`` of K = 0: the unit vectors of the whole even sector.

    Cached because a one-argument ``dominant_eigenvalue`` call at L = 2 would
    otherwise spend longer on the basis than on the eigensolve.
    """
    s = _sector_basis(np.zeros((2**n_modes, 2**n_modes)), n_modes)
    s.flags.writeable = False
    return s


def dominant_eigenvalue(gen: np.ndarray, k: np.ndarray | None = None):
    """Largest-real-part eigenvalue, its trace-normalized eigenvector and the gap, on the sector of K.

    ``k`` is the conserved pseudo-energy (``pseudo_energy``); None stands for
    K = 0.  H is quadratic and every jump operator is linear, so a generator
    that couples the even and the odd operators is refused.  H commutes with
    K and every jump operator shifts K by its quantum, so the generator also
    keeps S, the even |a><b| between K eigenstates of equal energy.  The
    Perron eigenvector has a trace and the identity lies in S, so with S and
    its complement both invariant the eigenvector lies in S.  Both leaks,
    max|G S - S B| and max|S^* G - B S^*| with B = S^* G S, relative to
    max|G| on the even block, are refused above SECTOR_LEAK_TOL: the jump
    operators of such a model are not K eigenoperators.  Both refusals are
    MalformedInputError.  Only B is solved, and its eigenvector is embedded
    back into a d x d density.  ``gap`` is the real-part distance to the
    next eigenvalue of B, inside the sector (for K = 0, the whole even
    sector).  The sector dimension, the leak and its threshold, the leading
    eigenvalue and the gap are logged at DEBUG.
    """
    gen = np.asarray(gen)
    d2 = gen.shape[0] if gen.ndim == 2 else 0
    n_modes = (d2.bit_length() - 1) // 2
    if gen.shape != (d2, d2) or 4**n_modes != d2:
        raise MalformedInputError(f"a generator on L modes is 4^L x 4^L, got shape {gen.shape}")
    _check_cap(n_modes)
    even, odd = _parity_sectors(n_modes)
    if gen[np.ix_(even, odd)].any() or gen[np.ix_(odd, even)].any():
        raise MalformedInputError("generator couples the even and odd parity sectors")
    if k is None:
        s = _even_basis(n_modes)
    elif np.shape(k) != (2**n_modes, 2**n_modes):
        raise MalformedInputError(f"the conserved observable must be {2**n_modes} x {2**n_modes}, got {np.shape(k)}")
    else:
        s = _sector_basis(np.asarray(k), n_modes)
    g = gen[np.ix_(even, even)]
    sh = s.conj().T
    gs = g @ s
    b = sh @ gs
    leak = max(np.abs(gs - s @ b).max(), np.abs(sh @ g - b @ sh).max()) / (np.abs(g).max() or 1.0)
    if not leak <= SECTOR_LEAK_TOL:
        raise MalformedInputError(
            f"generator leaks {leak:.3e} (relative) out of the equal-energy sector of K, "
            f"above {SECTOR_LEAK_TOL:.1e}: K is not conserved"
        )
    lam, v_sector, gap = so.dominant_eigenpair(b)
    log.debug("K sector dim %d of %d even, leak %.3e of %.1e, leading eigenvalue %.17g%+.17gj, gap %.6e",
              b.shape[0], even.size, leak, SECTOR_LEAK_TOL, lam.real, lam.imag, gap)
    v = np.zeros(d2, dtype=complex)
    v[even] = s @ v_sector
    return lam, so.density_of(v), gap


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
        rho_b = np.kron(rho_b, quasi_free_state(gibbs_covariance(b.kappa, b.beta)).density)
        offset += b.n_modes

    def q(mat):
        return quadratic_operator(PhaseSpaceMatrix(mat, Basis.MAJORANA))

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
# entropy balance
# ---------------------------------------------------------------------------


def von_neumann_entropy(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    w = np.clip(w.real, 0.0, None)
    w = w[w > 1e-300]
    return float(-(w * np.log(w)).sum())


def entropy_balance(model: ThermalQuasiFreeModel, rho0: np.ndarray, t: float, steps: int = 64) -> float:
    """S(rho(t)) - S(rho(0)) + sum_i beta_i int_0^t J_i(rho(s)) ds.

    The integral is composite-Simpson quadrature on ``steps`` panels (rounded
    up to even); the result is nonnegative up to quadrature error for every
    initial state.
    """
    steps = max(2, steps + (steps % 2))
    lm = lindblad_model(model)
    betas = model.betas
    h = t / steps
    prop = sla.expm(h * lm.generator())
    rho = np.asarray(rho0, dtype=complex)
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    acc = 0.0
    for k in range(steps + 1):
        acc += weights[k] * float(betas @ lm.fluxes(rho))
        if k < steps:
            rho = so.apply_super(prop, rho)
    integral = acc * h / 3.0
    return von_neumann_entropy(rho) - von_neumann_entropy(np.asarray(rho0)) + integral
