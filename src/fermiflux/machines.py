"""Finite-dimensional thermal machines on qubit registers.

Generic (non-quasi-free) Lindblad models built from generalized depolarizing
channels: the single-channel relaxation rho -> sigma, the two-channel bridge
between baths at different temperatures, and the three-qubit fridge whose
stationary fluxes are proportional to (E1, -E2, E3).  On top of those,
:func:`synthesize` assembles a tensor-product machine realizing any flux
vector compatible with the first law and a strictly positive entropy
production.

Fluxes follow the same into-the-bath convention as the quasi-free layer:
J_i = -tr(L_i^*(rho) K_S).  Note the closed form for the two-channel bridge,

    J_1 = (lam1 lam2 / (lam1 + lam2)) tr(K_S (sigma2 - sigma1)),

carries tr(K_S(sigma2 - sigma1)): energy enters the bath whose target state is
*less* energetic, which is what the stationary solve and the second law give
(the opposite order would make the entropy production negative).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import fock
from . import superop as so
from .errors import InfeasibleError, MalformedInputError

PROPORTIONALITY_TOL = 1e-9


def gibbs_qubit(energy: float, beta: float) -> np.ndarray:
    """diag(1, e^{-beta E}) / Z, the Gibbs state of a single qubit of gap E."""
    w = np.exp(-beta * energy)
    return np.diag([1.0, w]) / (1.0 + w)


@dataclass(frozen=True, eq=False)
class Dissipator:
    """One bath's completely positive piece, given by Kraus-style generators."""

    bath: int
    kraus: tuple

    def phi_heisenberg(self) -> np.ndarray:
        """Heisenberg map A -> sum_k K_k^dagger A K_k."""
        return so.kraus_map([k.conj().T for k in self.kraus])

    def generator(self) -> np.ndarray:
        """Schroedinger piece Phi^*(rho) - (1/2){Phi(1), rho}."""
        return so.dissipator(self.kraus)


def depolarizing(sigma: np.ndarray, rate: float, bath: int = 0, dim_left: int = 1, dim_right: int = 1) -> Dissipator:
    """Generalized depolarizing channel toward sigma at the given rate.

    L^*(rho) = rate (sigma tr rho - rho) on the sigma factor; ``dim_left`` and
    ``dim_right`` tensor identity factors around it so the channel can act on
    one qubit of a register.
    """
    sigma = np.asarray(sigma, dtype=complex)
    if rate <= 0:
        raise MalformedInputError("depolarizing rate must be positive")
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-10:
        raise MalformedInputError("sigma must be a unit-trace positive state")
    d = sigma.shape[0]
    kraus = []
    for m in range(d):
        if w[m] <= 0:
            continue
        for u in range(d):
            k = np.sqrt(rate * w[m]) * np.outer(v[:, m], np.eye(d)[u].astype(complex))
            kraus.append(np.kron(np.kron(np.eye(dim_left), k), np.eye(dim_right)))
    return Dissipator(bath=bath, kraus=tuple(kraus))


@dataclass(frozen=True, eq=False)
class GenericLindbladModel:
    """Hamiltonian + bathwise dissipators + conserved observable + temperatures."""

    hamiltonian: np.ndarray
    k_system: np.ndarray
    betas: tuple
    dissipators: tuple

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_baths(self) -> int:
        return len(self.betas)

    def bath_piece(self, i: int) -> np.ndarray:
        dim = self.dim
        out = np.zeros((dim * dim, dim * dim), dtype=complex)
        for d in self.dissipators:
            if d.bath == i:
                out += d.generator()
        return out

    def generator(self) -> np.ndarray:
        out = -1j * so.commutator_super(self.hamiltonian)
        for d in self.dissipators:
            out += d.generator()
        return out

    def stationary_state(self) -> np.ndarray:
        return so.stationary_density(self.generator())

    def fluxes(self, rho: np.ndarray | None = None) -> np.ndarray:
        if rho is None:
            rho = self.stationary_state()
        out = np.empty(self.n_baths)
        for i in range(self.n_baths):
            out[i] = -np.trace(so.apply_super(self.bath_piece(i), rho) @ self.k_system).real
        return out

    def detailed_balance_residuals(self) -> np.ndarray:
        """Residual of each bath's CP part against Gibbs(K_S, beta_i)."""
        out = np.empty(self.n_baths)
        for i in range(self.n_baths):
            sigma = sla.expm(-self.betas[i] * self.k_system)
            sigma = sigma / np.trace(sigma)
            dim = self.dim
            phi = np.zeros((dim * dim, dim * dim), dtype=complex)
            for d in self.dissipators:
                if d.bath == i:
                    phi += d.phi_heisenberg()
            out[i] = fock.detailed_balance_residual(phi, sigma)
        return out

    def scaled(self, mu: float) -> "GenericLindbladModel":
        """All rates and the Hamiltonian multiplied by mu > 0.

        The stationary state is unchanged and every flux scales by mu exactly.
        """
        if mu <= 0:
            raise MalformedInputError("scale factor must be positive")
        return GenericLindbladModel(
            hamiltonian=mu * self.hamiltonian,
            k_system=self.k_system,
            betas=self.betas,
            dissipators=tuple(
                Dissipator(bath=d.bath, kraus=tuple(np.sqrt(mu) * k for k in d.kraus))
                for d in self.dissipators
            ),
        )


def tensor_models(a: GenericLindbladModel, b: GenericLindbladModel) -> GenericLindbladModel:
    """Independent composition on the tensor product; fluxes add bathwise."""
    if a.betas != b.betas:
        raise MalformedInputError("components must share the same bath temperatures")
    da, db = a.dim, b.dim
    ham = np.kron(a.hamiltonian, np.eye(db)) + np.kron(np.eye(da), b.hamiltonian)
    ks = np.kron(a.k_system, np.eye(db)) + np.kron(np.eye(da), b.k_system)
    diss = [Dissipator(bath=d.bath, kraus=tuple(np.kron(k, np.eye(db)) for k in d.kraus)) for d in a.dissipators]
    diss += [Dissipator(bath=d.bath, kraus=tuple(np.kron(np.eye(da), k) for k in d.kraus)) for d in b.dissipators]
    return GenericLindbladModel(hamiltonian=ham, k_system=ks, betas=a.betas, dissipators=tuple(diss))


def two_channel_model(sigma1, sigma2, lam1: float, lam2: float, k_system, betas=(0.0, 0.0)) -> GenericLindbladModel:
    """Two depolarizing channels on the same system, one per bath."""
    return GenericLindbladModel(
        hamiltonian=np.zeros_like(np.asarray(k_system, dtype=complex)),
        k_system=np.asarray(k_system, dtype=complex),
        betas=tuple(betas),
        dissipators=(depolarizing(sigma1, lam1, bath=0), depolarizing(sigma2, lam2, bath=1)),
    )


def two_channel_flux(sigma1, sigma2, lam1: float, lam2: float, k_system):
    """Closed-form stationary state and flux into bath 1 of the two-channel bridge."""
    sigma1 = np.asarray(sigma1, dtype=complex)
    sigma2 = np.asarray(sigma2, dtype=complex)
    k = np.asarray(k_system, dtype=complex)
    rho = (lam1 * sigma1 + lam2 * sigma2) / (lam1 + lam2)
    j1 = lam1 * lam2 / (lam1 + lam2) * np.trace(k @ (sigma2 - sigma1)).real
    return rho, float(j1)


def _basis_ket(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits))
    v[int(bits, 2)] = 1.0
    return v


def fridge(
    e1: float,
    e3: float,
    betas,
    rates,
    g: float,
    h: float,
) -> GenericLindbladModel:
    """The three-qubit fridge: swap coupling |010><101| + h.c. plus per-qubit baths.

    Qubit gaps are (E1, E2, E3) with E2 = E1 + E3 so the swap conserves
    K_S = sum_i E_i P_i; bath i thermalizes qubit i toward its local Gibbs
    state at beta_i.  All parameters must be nonzero for a nontrivial machine.
    """
    betas = tuple(float(b) for b in betas)
    rates = tuple(float(r) for r in rates)
    if len(betas) != 3 or len(rates) != 3:
        raise MalformedInputError("fridge needs three temperatures and three rates")
    e2 = e1 + e3
    energies = (e1, e2, e3)
    if any(e == 0 for e in energies) or g == 0 or h == 0 or any(r <= 0 for r in rates):
        raise MalformedInputError("fridge parameters must be nonzero (rates positive)")
    p1 = np.diag([0.0, 1.0])
    projectors = [
        np.kron(np.kron(p1, np.eye(2)), np.eye(2)),
        np.kron(np.kron(np.eye(2), p1), np.eye(2)),
        np.kron(np.kron(np.eye(2), np.eye(2)), p1),
    ]
    k_s = sum(e * p for e, p in zip(energies, projectors))
    swap = np.outer(_basis_ket("010"), _basis_ket("101"))
    ham = h * k_s + g * (swap + swap.T)
    diss = []
    dims = [(1, 4), (2, 2), (4, 1)]
    for i in range(3):
        sigma = gibbs_qubit(energies[i], betas[i])
        dl, dr = dims[i]
        diss.append(depolarizing(sigma, rates[i], bath=i, dim_left=dl, dim_right=dr))
    return GenericLindbladModel(
        hamiltonian=ham, k_system=k_s.astype(complex), betas=betas, dissipators=tuple(diss)
    )


def fridge_alpha(model: GenericLindbladModel, energies) -> tuple[float, float]:
    """Proportionality coefficient of the stationary fluxes against (E1,-E2,E3).

    Returns (alpha, residual) where residual is the distance of the flux
    vector from alpha * (E1, -E2, E3).
    """
    j = model.fluxes()
    e = np.array([energies[0], -energies[1], energies[2]])
    alpha = float(j @ e / (e @ e))
    return alpha, float(np.max(np.abs(j - alpha * e)))


# ---------------------------------------------------------------------------
# synthesis of prescribed flux vectors
# ---------------------------------------------------------------------------


@dataclass
class ComposedMachine:
    """Tensor composition of machines sharing a common bath list."""

    betas: tuple
    components: list = field(default_factory=list)

    def fluxes(self) -> np.ndarray:
        out = np.zeros(len(self.betas))
        for comp in self.components:
            out += comp.fluxes()
        return out

    def full_model(self) -> GenericLindbladModel:
        model = self.components[0]
        for comp in self.components[1:]:
            model = tensor_models(model, comp)
        return model

    @property
    def dim(self) -> int:
        d = 1
        for comp in self.components:
            d *= comp.dim
        return d


def _idle_qubit(bath: int, betas) -> GenericLindbladModel:
    """A single bath relaxing its own qubit: a valid thermal piece with zero flux."""
    k = np.diag([0.0, 1.0]).astype(complex)
    return GenericLindbladModel(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        k_system=k,
        betas=tuple(betas),
        dissipators=(depolarizing(gibbs_qubit(1.0, betas[bath]), 1.0, bath=bath),),
    )


def _pair_machine(i: int, j: int, target: float, betas) -> GenericLindbladModel:
    """Two depolarizing channels on one qubit moving ``target`` into bath i.

    Requires (beta_i - beta_j) * target > 0; rates are set in closed form.
    """
    bi, bj = betas[i], betas[j]
    sig_i = gibbs_qubit(1.0, bi)
    sig_j = gibbs_qubit(1.0, bj)
    k = np.diag([0.0, 1.0])
    drive = np.trace(k @ (sig_j - sig_i)).real  # flux into i per unit reduced rate
    if target * drive <= 0:
        raise InfeasibleError("pair target incompatible with the temperature ordering")
    mu = target / drive  # lam1 lam2 / (lam1 + lam2)
    lam = 2.0 * mu
    return GenericLindbladModel(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        k_system=k.astype(complex),
        betas=tuple(betas),
        dissipators=(
            depolarizing(sig_i, lam, bath=i),
            depolarizing(sig_j, lam, bath=j),
        ),
    )


def _calibrated_fridge(j_target, bath_indices, betas) -> GenericLindbladModel:
    """A fridge on three of the baths whose stationary fluxes equal j_target.

    j_target must be proportional-compatible: sum zero and positive entropy
    production on the selected baths.  The gap vector is fixed by the
    proportionality constraint and the magnitude by exact global rate scaling
    (all rates and the Hamiltonian scale together, multiplying every flux).
    """
    j_target = np.asarray(j_target, dtype=float)
    scale = np.max(np.abs(j_target))
    e1, e2, e3 = j_target[0] / scale, -j_target[1] / scale, j_target[2] / scale
    sel_betas = [betas[k] for k in bath_indices]
    base = fridge(
        e1,
        e3,
        betas=sel_betas,
        rates=(1.0, 1.0, 1.0),
        g=0.5,
        h=1.0,
    )
    # remap bath labels from the fridge-local (0,1,2) to the global indices
    base = GenericLindbladModel(
        hamiltonian=base.hamiltonian,
        k_system=base.k_system,
        betas=tuple(betas),
        dissipators=tuple(
            Dissipator(bath=bath_indices[d.bath], kraus=d.kraus) for d in base.dissipators
        ),
    )
    alpha, resid = fridge_alpha(base, (e1, e2, e3))
    if abs(alpha) < 1e-12:
        raise InfeasibleError("fridge stalled: zero proportionality coefficient")
    if resid > 1e-6 * max(1.0, abs(alpha)):
        raise InfeasibleError(f"fridge fluxes not proportional to the gaps (residual {resid:.3e})")
    mu = scale / alpha
    if mu <= 0:
        raise InfeasibleError("fridge drives the targeted fluxes backwards")
    return base.scaled(mu)


def synthesize(j_target, betas, tol: float = 1e-9) -> ComposedMachine:
    """A machine whose stationary fluxes equal ``j_target``.

    Requires sum(J) = 0, strictly positive entropy production and pairwise
    distinct temperatures.  Follows the inductive three-bath reduction: peel
    off bath 1 with a calibrated fridge on baths (1, 2, 3) designed to leave a
    residual problem with half the entropy production, recurse, and compose.
    """
    j_target = np.asarray(j_target, dtype=float)
    betas = tuple(float(b) for b in betas)
    n = len(betas)
    if j_target.shape != (n,):
        raise MalformedInputError("flux target and temperature list sizes differ")
    if n < 2:
        raise MalformedInputError("need at least two baths")
    if len(set(betas)) != n:
        raise InfeasibleError("temperatures must be pairwise distinct")
    if abs(j_target.sum()) > tol:
        raise InfeasibleError(f"first law violated: sum J = {j_target.sum():.3e}")
    eps = float(np.asarray(betas) @ j_target)
    if eps <= tol:
        raise InfeasibleError(f"entropy production must be strictly positive, got {eps:.3e}")

    order = np.argsort(betas)  # ascending: hottest first
    machine = ComposedMachine(betas=betas)
    _synthesize_sorted(j_target.copy(), list(order), betas, machine)
    return machine


def _synthesize_sorted(j, order, betas, machine, zero_tol: float = 1e-12):
    """Recursive peeling on the baths listed (ascending beta) in ``order``."""
    active = list(order)
    eps = float(sum(betas[k] * j[k] for k in active))
    if len(active) == 2:
        i_hot, i_cold = active
        if abs(j[i_hot]) <= zero_tol:
            machine.components.append(_idle_qubit(i_hot, betas))
            machine.components.append(_idle_qubit(i_cold, betas))
            return
        machine.components.append(_pair_machine(i_cold, i_hot, j[i_cold], betas))
        return
    i1, i2, i3 = active[0], active[1], active[2]
    if abs(j[i1]) <= zero_tol:
        machine.components.append(_idle_qubit(i1, betas))
        _synthesize_sorted(j, active[1:], betas, machine)
        return
    b1, b2, b3 = betas[i1], betas[i2], betas[i3]
    for split in (0.5, 0.25, 0.75, 0.4):
        jt1 = j[i1]
        jt2 = (b1 - b3) / (b3 - b2) * jt1 - split * eps / (b3 - b2)
        jt3 = (b2 - b1) / (b3 - b2) * jt1 + split * eps / (b3 - b2)
        if abs(jt2) > zero_tol and abs(jt3) > zero_tol:
            break
    else:
        raise InfeasibleError("could not find a nondegenerate three-bath split")
    machine.components.append(_calibrated_fridge([jt1, jt2, jt3], [i1, i2, i3], betas))
    j2 = j.copy()
    j2[i1] = 0.0
    j2[i2] -= jt2
    j2[i3] -= jt3
    machine.components.append(_idle_qubit(i1, betas))
    _synthesize_sorted(j2, active[1:], betas, machine)
