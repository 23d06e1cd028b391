"""Thermal quasi-free model assembly, mean energy fluxes and flux inequalities.

A model couples an L_S-mode system (generator T_S, conserved quadratic
pseudo-energy kappa_S) to n independent quasi-free baths, each carrying its
own inverse temperature beta_i, bath energy generator kappa_i and coupling
Theta_i.  Conservation of the total pseudo-energy is equivalent to

    [T_S, kappa_S] = 0     and     Theta_i kappa_i = kappa_S Theta_i,

and those two intertwining relations are what :func:`validate` checks, on top
of the structural (xi) invariants of every ingredient.  The second one gives
Theta_i f(kappa_i) = f(kappa_S) Theta_i for every function f, so each
bath-side quantity has a system-side twin.  Everything here is computed on
the bath side, from the eigenmodes of kappa_i (:meth:`ThermalQuasiFreeModel.bath_modes`):
the jump kernel and the fluxes here, and the jump operators in ``fock``.

Flux conventions: J_i is the mean energy flow *into* bath i per unit time, so
at stationarity sum_i J_i = 0 and the entropy production sum_i beta_i J_i is
nonnegative.  The paper writes J_i = (1/2) Tr(kappa_S D_i(M_{beta_i} - M)) on
the system side; :func:`fluxes` sums the quanta w_c carried into each bath
eigenmode c, J_i = sum_c w_c n_c t_c^* M^T t_c, which is the same number.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from . import phasespace as ps
from .errors import InfeasibleError, InternalConsistencyError, MalformedInputError, ValidationError
from .phasespace import Basis, CouplingMatrix, PhaseSpaceMatrix

# slack of the no-fridge partial sums and of the hot-to-cold routing in the flux certificate
NO_FRIDGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BathSpec:
    """One thermal bath: inverse temperature, energy generator, coupling to the system."""

    beta: float
    kappa: PhaseSpaceMatrix
    theta: CouplingMatrix

    @property
    def n_modes(self) -> int:
        return self.kappa.n_modes


@dataclass(frozen=True, eq=False)
class ThermalQuasiFreeModel:
    """System generator, pseudo-energy and the ordered list of baths."""

    t_s: PhaseSpaceMatrix
    kappa_s: PhaseSpaceMatrix
    baths: tuple

    def __post_init__(self):
        object.__setattr__(self, "baths", tuple(self.baths))
        for b in self.baths:
            if b.theta.n_system_modes != self.n_modes:
                raise MalformedInputError("bath coupling row dimension does not match the system")
            if b.theta.n_bath_modes != b.kappa.n_modes:
                raise MalformedInputError("bath coupling column dimension does not match the bath")
        if self.kappa_s.n_modes != self.t_s.n_modes:
            raise MalformedInputError("kappa_S dimension does not match T_S")

    @property
    def n_modes(self) -> int:
        return self.t_s.n_modes

    @property
    def n_baths(self) -> int:
        return len(self.baths)

    @property
    def betas(self) -> np.ndarray:
        return np.array([b.beta for b in self.baths], dtype=float)

    def theta_total(self) -> np.ndarray:
        """Horizontal concatenation of all couplings (Majorana basis)."""
        if not self.baths:
            return np.zeros((2 * self.n_modes, 0), dtype=complex)
        return np.hstack([b.theta.maj for b in self.baths])

    def gibbs_system_covariance(self, beta: float) -> PhaseSpaceMatrix:
        """System Gibbs covariance M_beta = (1 + exp(-beta kappa_S))^{-1}."""
        return ps.gibbs_covariance(self.kappa_s, beta)

    def bath_modes(self, i: int):
        """Eigenmodes of bath i: energies w, occupations n and couplings t.

        w are the eigenvalues of kappa_i (ascending, from ``eigh``),
        n = expit(beta_i w) their Gibbs occupations and t = Theta_i V the
        coupling of each eigenvector (column) to the system.  Computed on each
        call: the model stores no per-bath matrices.
        """
        b = self.baths[i]
        w, v = np.linalg.eigh(b.kappa.maj)
        return w, expit(b.beta * w), b.theta.maj @ v

    def jump_kernel(self, i: int) -> np.ndarray:
        """Majorana matrix of Theta_i M_{B_i} Theta_i^*, the bath-i jump kernel sum_c n_c t_c t_c^*."""
        _, n, t = self.bath_modes(i)
        return (t * n) @ t.conj().T

    def dissipation_matrix(self, i: int) -> np.ndarray:
        """Majorana matrix of Theta_i Theta_i^*."""
        th = self.baths[i].theta.maj
        return th @ th.conj().T

    def noise_total(self) -> np.ndarray:
        """Sum of all bath noise kernels Theta_i M_{B_i} Theta_i^* (Majorana)."""
        out = np.zeros((2 * self.n_modes, 2 * self.n_modes), dtype=complex)
        for i in range(self.n_baths):
            out += self.jump_kernel(i)
        return out


def residual_report(model: ThermalQuasiFreeModel) -> dict:
    """Per-constraint residuals of the model invariants."""
    out = {}
    out.update({f"T_S.{k}": v for k, v in ps.generator_residuals(model.t_s).items()})
    out.update({f"kappa_S.{k}": v for k, v in ps.generator_residuals(model.kappa_s).items()})
    ts, ks = model.t_s.maj, model.kappa_s.maj
    out["commute_T_kappa"] = float(np.max(np.abs(ts @ ks - ks @ ts), initial=0.0))
    for i, b in enumerate(model.baths):
        out.update({f"bath{i}.kappa.{k}": v for k, v in ps.generator_residuals(b.kappa).items()})
        out.update({f"bath{i}.Theta.{k}": v for k, v in ps.coupling_residuals(b.theta).items()})
        out[f"bath{i}.intertwine"] = float(
            np.max(np.abs(b.theta.maj @ b.kappa.maj - ks @ b.theta.maj), initial=0.0)
        )
    return out


def validate(model: ThermalQuasiFreeModel, tol: float = ps.DEFAULT_TOL) -> dict:
    """Check all model invariants; returns the residual report, raises on violation."""
    report = residual_report(model)
    bad = [(k, v, tol) for k, v in report.items() if v > tol]
    if bad:
        raise ValidationError(bad)
    return report


def fluxes(model: ThermalQuasiFreeModel, m: PhaseSpaceMatrix) -> np.ndarray:
    """Mean energy flux into each bath for the state of covariance m.

    The paper's form is J_i = (1/2) Tr(kappa_S D_i(M_{beta_i} - M)) with
    D_i(A) = (1/2){Theta_i Theta_i^*, A}.  Computed on the bath side, as the
    energy the jumps carry into bath i:

        J_i = sum_c w_c n_c t_c^* M^T t_c      (bath_modes: w, n, t),

    the rate n_c t_c^* M^T t_c of quanta w_c into eigenmode c.  The two agree
    by Theta_i f(kappa_i) = f(kappa_S) Theta_i and M^T = 1 - M.
    """
    mt = m.maj.T
    out = np.empty(model.n_baths)
    for i in range(model.n_baths):
        w, n, t = model.bath_modes(i)
        j = (w * n) @ np.sum(t.conj() * (mt @ t), axis=0)
        if abs(j.imag) > 1e-10:
            raise InternalConsistencyError(f"flux J_{i} has imaginary part {j.imag:.3e}")
        out[i] = j.real
    return out


def entropy_production(j: Sequence[float], beta: Sequence[float]) -> float:
    """sum_i beta_i J_i."""
    j = np.asarray(j, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if j.shape != beta.shape:
        raise MalformedInputError("flux and temperature vectors must have the same length")
    return float(beta @ j)


def _worst_case_order(j: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Bath order sorted by beta ascending; ties ordered by J descending.

    Partial sums along this order dominate those of every other ordering of
    tied blocks, so a single pass certifies the condition for all of them.
    """
    return np.lexsort((-j, beta))


def check_no_fridge(j: Sequence[float], beta: Sequence[float]):
    """Partial-sum test: with baths sorted by increasing beta, every prefix sum <= NO_FRIDGE_TOL.

    Returns ``(ok, witness)`` where witness is the 1-based prefix length of the
    first violation (None when ok).  For tied temperatures the test covers every
    ordering of the tied block.
    """
    j = np.asarray(j, dtype=float)
    beta = np.asarray(beta, dtype=float)
    order = _worst_case_order(j, beta)
    partial = np.cumsum(j[order])
    bad = np.nonzero(partial > NO_FRIDGE_TOL)[0]
    if bad.size:
        return False, int(bad[0]) + 1
    return True, None


def decompose_fluxes(j: Sequence[float], beta: Sequence[float]) -> np.ndarray:
    """Certificate of triviality: pairwise fluxes J_ij with row sums J.

    Returns an antisymmetric matrix with J_ij >= 0 whenever beta_i > beta_j
    (energy only flows from hotter to colder pairs) and sum_j J_ij = J_i.
    Construction is greedy water-filling: walk the baths from hottest to
    coldest; every donor routes its surplus to the nearest colder baths that
    still need energy.  Existence is guaranteed exactly under the partial-sum
    condition checked by :func:`check_no_fridge`; the certificate is not unique.
    """
    j = np.asarray(j, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if abs(j.sum()) > 1e-9 * max(1.0, np.abs(j).max()):
        raise InfeasibleError(f"fluxes must sum to zero, got {j.sum():.3e}")
    ok, witness = check_no_fridge(j, beta)
    if not ok:
        raise InfeasibleError(f"partial-sum condition fails at prefix {witness}")
    order = _worst_case_order(j, beta)
    remaining = j[order].copy()
    n = len(j)
    out = np.zeros((n, n))
    for a in range(n):
        if remaining[a] >= 0:
            continue
        for b in range(a + 1, n):
            if remaining[a] >= -NO_FRIDGE_TOL:
                break
            if remaining[b] <= 0:
                continue
            t = min(-remaining[a], remaining[b])
            ia, ib = order[a], order[b]
            out[ib, ia] += t  # colder bath ib receives from hotter ia
            out[ia, ib] -= t
            remaining[a] += t
            remaining[b] -= t
    leftover = float(np.max(np.abs(remaining), initial=0.0))
    if leftover > 1e-8 * max(1.0, np.abs(j).max()):
        raise InfeasibleError(f"water-filling left unmatched flux {leftover:.3e}")
    return out


# ---------------------------------------------------------------------------
# model (de)serialization
# ---------------------------------------------------------------------------


def _real_or_fail(a: np.ndarray, what: str) -> np.ndarray:
    if np.max(np.abs(a.imag), initial=0.0) > ps.DEFAULT_TOL:
        raise MalformedInputError(f"{what} is not of the form i * real matrix")
    return a.real


def model_to_dict(model: ThermalQuasiFreeModel) -> dict:
    return {
        "L_S": model.n_modes,
        "T_S": _real_or_fail(-1j * model.t_s.maj, "T_S").tolist(),
        "kappa_S": _real_or_fail(-1j * model.kappa_s.maj, "kappa_S").tolist(),
        "baths": [
            {
                "beta": float(b.beta),
                "kappa": _real_or_fail(-1j * b.kappa.maj, "bath kappa").tolist(),
                "Theta": _real_or_fail(-1j * b.theta.maj, "Theta").tolist(),
            }
            for b in model.baths
        ],
    }


def model_from_dict(doc: dict) -> ThermalQuasiFreeModel:
    try:
        ls = int(doc["L_S"])
        t_s = PhaseSpaceMatrix(1j * np.array(doc["T_S"], dtype=float), Basis.MAJORANA)
        kappa_s = PhaseSpaceMatrix(1j * np.array(doc["kappa_S"], dtype=float), Basis.MAJORANA)
        baths = []
        for b in doc["baths"]:
            baths.append(
                BathSpec(
                    beta=float(b["beta"]),
                    kappa=PhaseSpaceMatrix(1j * np.array(b["kappa"], dtype=float), Basis.MAJORANA),
                    theta=CouplingMatrix(1j * np.array(b["Theta"], dtype=float), Basis.MAJORANA),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad model document: {exc}") from exc
    model = ThermalQuasiFreeModel(t_s=t_s, kappa_s=kappa_s, baths=tuple(baths))
    if model.n_modes != ls:
        raise MalformedInputError("L_S field does not match the T_S dimension")
    return model


def save_model(model: ThermalQuasiFreeModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> ThermalQuasiFreeModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def model_hash(model: ThermalQuasiFreeModel) -> str:
    """Short content hash used to stamp CSV outputs."""
    blob = json.dumps(model_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
