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

from . import superop as so
from .errors import InfeasibleError, MalformedInputError

# target fluxes of at most this size are treated as zero by the synthesis
ZERO_FLUX = 1e-12


def gibbs_qubit(energy: float, beta: float) -> np.ndarray:
    """diag(1, e^{-beta E}) / Z, the Gibbs state of a single qubit of gap E."""
    w = np.exp(-beta * energy)
    return np.diag([1.0, w]) / (1.0 + w)


def depolarizing(sigma: np.ndarray, rate: float, dim_left: int = 1, dim_right: int = 1) -> np.ndarray:
    """Kraus stack of the generalized depolarizing channel toward sigma at the given rate.

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
    return np.array(kraus)


def tensor_models(a: so.LindbladModel, b: so.LindbladModel) -> so.LindbladModel:
    """Independent composition on the tensor product; fluxes add bathwise."""
    if a.betas != b.betas:
        raise MalformedInputError("components must share the same bath temperatures")
    ia, ib = np.eye(a.dim), np.eye(b.dim)
    return so.LindbladModel(
        hamiltonian=np.kron(a.hamiltonian, ib) + np.kron(ia, b.hamiltonian),
        k_system=np.kron(a.k_system, ib) + np.kron(ia, b.k_system),
        betas=a.betas,
        kraus=tuple(np.concatenate([np.kron(ka, ib), np.kron(ia, kb)]) for ka, kb in zip(a.kraus, b.kraus)),
    )


def two_channel_model(sigma1, sigma2, lam1: float, lam2: float, k_system, betas=(0.0, 0.0)) -> so.LindbladModel:
    """Two depolarizing channels on the same system, one per bath."""
    return so.LindbladModel(
        hamiltonian=np.zeros_like(np.asarray(k_system, dtype=complex)),
        k_system=np.asarray(k_system, dtype=complex),
        betas=tuple(betas),
        kraus=(depolarizing(sigma1, lam1), depolarizing(sigma2, lam2)),
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
) -> so.LindbladModel:
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
    dims = [(1, 4), (2, 2), (4, 1)]
    kraus = tuple(depolarizing(gibbs_qubit(energies[i], betas[i]), rates[i], *dims[i]) for i in range(3))
    return so.LindbladModel(hamiltonian=ham, k_system=k_s.astype(complex), betas=betas, kraus=kraus)


def fridge_alpha(model: so.LindbladModel, energies) -> tuple[float, float]:
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


def _on_baths(model: so.LindbladModel, baths, betas) -> so.LindbladModel:
    """``model`` with its local bath k moved to global bath ``baths[k]``; the other baths get empty stacks."""
    stacks = dict(zip(baths, model.kraus))
    empty = np.zeros((0, model.dim, model.dim), dtype=complex)
    return so.LindbladModel(
        hamiltonian=model.hamiltonian,
        k_system=model.k_system,
        betas=tuple(betas),
        kraus=tuple(stacks.get(i, empty) for i in range(len(betas))),
    )


def _pair_machine(i: int, j: int, target: float, betas) -> so.LindbladModel:
    """The two-channel bridge on one qubit between baths i and j, moving ``target`` into bath i.

    Requires (beta_i - beta_j) * target > 0; both rates equal, set in closed form.
    """
    sig_i, sig_j = gibbs_qubit(1.0, betas[i]), gibbs_qubit(1.0, betas[j])
    k = np.diag([0.0, 1.0])
    _, drive = two_channel_flux(sig_i, sig_j, 2.0, 2.0, k)  # flux into i at reduced rate 1
    if target * drive <= 0:
        raise InfeasibleError("pair target incompatible with the temperature ordering")
    lam = 2.0 * (target / drive)
    return _on_baths(two_channel_model(sig_i, sig_j, lam, lam, k, (betas[i], betas[j])), (i, j), betas)


def _calibrated_fridge(j_target, bath_indices, betas) -> so.LindbladModel:
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
    base = fridge(e1, e3, betas=sel_betas, rates=(1.0, 1.0, 1.0), g=0.5, h=1.0)
    alpha, resid = fridge_alpha(base, (e1, e2, e3))
    if abs(alpha) < 1e-12:
        raise InfeasibleError("fridge stalled: zero proportionality coefficient")
    if resid > 1e-6 * max(1.0, abs(alpha)):
        raise InfeasibleError(f"fridge fluxes not proportional to the gaps (residual {resid:.3e})")
    mu = scale / alpha
    if mu <= 0:
        raise InfeasibleError("fridge drives the targeted fluxes backwards")
    return _on_baths(base.scaled(mu), bath_indices, betas)


def synthesize(j_target, betas) -> ComposedMachine:
    """A machine whose stationary fluxes equal ``j_target``.

    Requires sum(J) = 0, strictly positive entropy production and pairwise
    distinct temperatures.  Follows the inductive three-bath reduction over
    the baths sorted hottest first: a calibrated fridge on the hottest
    remaining bath and the next two takes all of the first bath's flux and a
    share (half, if that leaves no zero flux) of the entropy production, and
    the last two baths are joined by one bridge.  A bath whose flux is
    already zero gets no component, so every component carries flux: at most
    n - 2 fridges and one bridge.
    """
    j = np.array(j_target, dtype=float)
    betas = tuple(float(b) for b in betas)
    n = len(betas)
    if j.shape != (n,):
        raise MalformedInputError("flux target and temperature list sizes differ")
    if n < 2:
        raise MalformedInputError("need at least two baths")
    if len(set(betas)) != n:
        raise InfeasibleError("temperatures must be pairwise distinct")
    if abs(j.sum()) > 1e-9:
        raise InfeasibleError(f"first law violated: sum J = {j.sum():.3e}")
    eps = float(np.asarray(betas) @ j)
    if eps <= 1e-9:
        raise InfeasibleError(f"entropy production must be strictly positive, got {eps:.3e}")

    order = list(np.argsort(betas))  # ascending: hottest first
    components = []
    for k in range(n - 2):
        i1, i2, i3 = order[k : k + 3]
        if abs(j[i1]) <= ZERO_FLUX:
            continue
        eps = float(sum(betas[m] * j[m] for m in order[k:]))
        b1, b2, b3 = betas[i1], betas[i2], betas[i3]
        for split in (0.5, 0.25, 0.75, 0.4):
            jt2 = (b1 - b3) / (b3 - b2) * j[i1] - split * eps / (b3 - b2)
            jt3 = (b2 - b1) / (b3 - b2) * j[i1] + split * eps / (b3 - b2)
            if abs(jt2) > ZERO_FLUX and abs(jt3) > ZERO_FLUX:
                break
        else:
            raise InfeasibleError("could not find a nondegenerate three-bath split")
        components.append(_calibrated_fridge([j[i1], jt2, jt3], [i1, i2, i3], betas))
        j[i1] = 0.0
        j[i2] -= jt2
        j[i3] -= jt3
    i_hot, i_cold = order[-2:]
    if abs(j[i_hot]) > ZERO_FLUX:
        components.append(_pair_machine(i_cold, i_hot, j[i_cold], betas))
    return ComposedMachine(betas=betas, components=components)
