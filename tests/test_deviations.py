import functools
import gc
import logging
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from fermiflux import chain, deviations, dynamics, fock, randgen, thermal
from fermiflux import phasespace as ps
from fermiflux.errors import (
    DegenerateSpectrumError,
    InternalConsistencyError,
    MalformedInputError,
    NotErgodicError,
    NumericDegeneracyError,
    ValidationError,
)
from fermiflux.phasespace import Basis, CouplingMatrix
from fermiflux.randgen import random_thermal_model

from conftest import make_models


def _blocks_by_definition(model, alpha):
    """A, B(alpha) and B(-alpha at -beta) from their definitions, with scipy's expm."""
    ks = model.kappa_s.maj
    eye = np.eye(ks.shape[0])
    a = -1j * model.t_s.maj
    b_plus = np.zeros_like(a)
    b_minus = np.zeros_like(a)
    for i, bath in enumerate(model.baths):
        d = model.dissipation_matrix(i)
        m_b = np.linalg.inv(eye + sla.expm(-bath.beta * ks))
        a = a + (m_b - 0.5 * eye) @ d
        b_plus = b_plus + sla.expm(alpha[i] * ks) @ m_b @ d
        b_minus = b_minus + sla.expm(-alpha[i] * ks) @ (eye - m_b) @ d
    return a, b_plus, b_minus


def _z_matrix(model, alpha):
    """The 4L x 4L Majorana Z(alpha), assembled from the kappa_S blocks."""
    alpha = np.asarray(alpha, dtype=float)
    n = 2 * model.n_modes
    z = np.zeros((2 * n, 2 * n), dtype=complex)
    for b in deviations._factors(model):
        e = sla.block_diag(b.u, b.u)
        z += e @ b.z(alpha) @ e.conj().T
    z[n:, n:] = -z[:n, :n].conj().T
    return z


def _eig_block_x(b, alpha):
    """X_w = e^{-cw} V2 V1^{-1} from the right-half-plane eigenvectors [V1; V2] of ``deviations._block_eig``."""
    c, _, _, v, plus = deviations._block_eig(b, alpha)
    m = b.a.shape[0]
    return np.exp(-c * b.w) * (v[m:, plus] @ np.linalg.inv(v[:m, plus]))


def _schur_block_x(b, alpha):
    """Reference X_w from the ordered Schur form: e^{-cw} Q2 Q1^{-1} on the right-half-plane Schur vectors [Q1; Q2] of Z_w(alpha - c)."""
    c = b.shift(alpha)
    m = b.a.shape[0]
    t, q, k = sla.schur(b.z(alpha - c), output="complex", sort="rhp")
    assert k == m and np.abs(np.diag(t).real).min() >= deviations.SPLIT_TOL
    assert np.linalg.cond(q[:m, :m]) <= 1e12
    return np.exp(-c * b.w) * (q[m:, :m] @ np.linalg.inv(q[:m, :m]))


def _x_max(model, alpha, block_x=_eig_block_x):
    """The maximal Riccati X = sum_w U_w X_w U_w^* over every kappa_S block, w < 0 included."""
    x = sum(b.u @ block_x(b, alpha) @ b.u.conj().T for b in deviations._factors(model))
    return 0.5 * (x + x.conj().T)


def _block_residual(b, alpha, xw):
    """(||R||_2, ||X||_2) for X = e^{cw} X_w in the Riccati equation of Z_w(alpha - c), at the block's own shift c.

    R = X A_w + A_w^* X + X B+ X - B-, with B+- the off-diagonal blocks of Z_w(alpha - c).
    """
    c, m = b.shift(alpha), b.a.shape[0]
    z, x = b.z(alpha - c), np.exp(c * b.w) * xw
    r = x @ z[:m, :m] + z[:m, :m].conj().T @ x + x @ z[:m, m:] @ x - z[m:, :m]
    return np.linalg.norm(r, 2), np.linalg.norm(x, 2)


def _all_blocks_covariance(model, alpha):
    """(1 + X)^{-1} summed over every kappa_S block, the w < 0 ones solved as well."""
    cov = 0.0
    for b in deviations._factors(model):
        xw = _eig_block_x(b, alpha)
        xs, q = np.linalg.eigh(0.5 * (xw + xw.conj().T))
        uq = b.u @ q
        cov = cov + (uq / (1.0 + xs)) @ uq.conj().T
    return 0.5 * (cov + cov.conj().T)


def _one_bath_blocks(seed):
    """A two-bath pairing draw whose kappa_S blocks are each reached by one bath: e = 0 identically."""
    model = random_thermal_model(np.random.default_rng(seed), n_modes=2, n_baths=2, kind="spectral")
    assert all(b.baths.size == 1 for b in deviations._factors(model))
    return model


# 3- and 4-bath draws of every randgen family at L = 2..4 (a pairing draw needs L <= n_baths)
_MANY_BATH_SPECS = [
    (kind, n, nb)
    for kind in ("uniform", "spectral", "tr_broken")
    for nb in (3, 4)
    for n in range(2, 5)
    if kind != "spectral" or n <= nb
]
MANY_BATHS = [f"{kind}-L{n}-{nb}baths" for kind, n, nb in _MANY_BATH_SPECS]
# the pairing draws with L = n_baths reach each block from one bath: e(a e_0) = 0 and J_0 = 0
DEGENERATE = ["spectral-L3-3baths", "spectral-L4-4baths"]


@functools.cache
def _many_bath_draws():
    r = np.random.default_rng(5)
    return {
        case: random_thermal_model(r, n_modes=n, n_baths=nb, kind=kind)
        for case, (kind, n, nb) in zip(MANY_BATHS, _MANY_BATH_SPECS)
    }


def _along_bath0(model, a):
    return [a] + [0.0] * (model.n_baths - 1)


class TestBlocks:
    def test_blocks_match_definitions(self, chain2):
        r = np.random.default_rng(8)
        models = [chain2] + make_models(8, 4)
        for model in models:
            for alpha in (np.zeros(model.n_baths), r.uniform(-0.6, 0.6, model.n_baths)):
                z = _z_matrix(model, alpha)
                n = 2 * model.n_modes
                assert z.shape == (2 * n, 2 * n)
                a, b_plus, b_minus = _blocks_by_definition(model, alpha)
                assert np.max(np.abs(z[:n, :n] - a)) < 1e-12
                assert np.max(np.abs(z[:n, n:] - b_plus)) < 1e-12
                assert np.max(np.abs(z[n:, :n] - b_minus)) < 1e-12
                assert np.array_equal(z[n:, n:], -z[:n, :n].conj().T)

    def test_uniform_tilt_commutant(self):
        # equal temperatures and alpha = lambda * (1, 1): both B blocks are
        # functions of kappa_S times Theta Theta^*, commuting with kappa_S
        model = chain.build(chain.ChainSpec(length=2, beta0=0.6, betaL=0.6))
        z = _z_matrix(model, [0.4, 0.4])
        n = 2 * model.n_modes
        ks = model.kappa_s.maj
        for mat in (z[:n, n:], z[n:, :n]):
            assert np.max(np.abs(mat @ ks - ks @ mat)) < 1e-12


class TestZMatrix:
    def test_spectral_symmetry(self, chain2):
        r = np.random.default_rng(2)
        for _ in range(5):
            a = r.uniform(-0.8, 0.8, 2)
            z = _z_matrix(chain2, a)
            lam = np.linalg.eigvals(z)
            mirrored = -np.conj(lam)
            # multiset equality under lambda -> -conj(lambda)
            for x in lam:
                assert np.min(np.abs(mirrored - x)) < 1e-8

    def test_closed_system_block_diagonal(self, chain2):
        closed = thermal.ThermalQuasiFreeModel(
            t_s=chain2.t_s, kappa_s=chain2.kappa_s, baths=()
        )
        z = _z_matrix(closed, np.zeros(0))
        n = 2 * closed.n_modes
        assert np.max(np.abs(z[:n, n:])) < 1e-14
        assert np.max(np.abs(z[n:, :n])) < 1e-14
        lam = np.sort(np.linalg.eigvals(z).imag)
        ts = np.linalg.eigvalsh(closed.t_s.maj)
        expected = np.sort(np.concatenate([-ts, ts]))
        assert np.max(np.abs(lam - expected)) < 1e-10

    def test_chain_gap_from_axis(self, chain2):
        z = _z_matrix(chain2, [0.3, 0.0])
        lam = np.linalg.eigvals(z)
        assert np.min(np.abs(lam.real)) > 1e-8


class TestEAlpha:
    def test_zero(self, chain2):
        assert abs(deviations.e_alpha(chain2, [0.0, 0.0])) < 1e-9

    def test_gallavotti_cohen_at_zero(self, chain2):
        assert abs(deviations.e_alpha(chain2, -chain2.betas)) < 1e-9

    def test_matches_fock_oracle(self, chain2):
        lam, _, _ = fock.dominant_eigenvalue(fock.build_deformed(chain2, [0.3, 0.0]))
        assert abs(deviations.e_alpha(chain2, [0.3, 0.0]) - lam.real) < 1e-8

    @pytest.mark.parametrize("beta0", [20.0, 30.0, 40.0])
    def test_gallavotti_cohen_cold_bath(self, beta0):
        # 1 - n_0(w) = e^-40 at beta0 = 40 must survive: formed as 1 - expit it would be 0
        model = chain.build(chain.ChainSpec(length=2, beta0=beta0))
        assert abs(deviations.e_alpha(model, -model.betas)) <= 1e-12

    def test_translation_invariance(self, chain2):
        r = np.random.default_rng(4)
        for _ in range(5):
            a = r.uniform(-0.7, 0.7, 2)
            lam = r.uniform(-2, 2)
            assert abs(
                deviations.e_alpha(chain2, a + lam) - deviations.e_alpha(chain2, a)
            ) < 1e-9

    def test_gallavotti_cohen_random(self):
        r = np.random.default_rng(5)
        for model in make_models(5, 3):
            for _ in range(4):
                a = r.uniform(-0.6, 0.6, model.n_baths)
                e1 = deviations.e_alpha(model, a - model.betas)
                e2 = deviations.e_alpha(model, -a)
                assert abs(e1 - e2) < 1e-9

    def test_gc_needs_time_reversal(self):
        # complex hopping phases with three baths break the symmetry, in the
        # full Fock dynamics and the spectral reduction alike
        r = np.random.default_rng(77)
        from fermiflux.randgen import random_thermal_model

        worst = 0.0
        for _ in range(5):
            model = random_thermal_model(r, n_modes=3, n_baths=3, kind="tr_broken")
            a = r.uniform(-0.5, 0.5, 3)
            e1 = deviations.e_alpha(model, a - model.betas)
            e2 = deviations.e_alpha(model, -a)
            lam1, _, _ = fock.dominant_eigenvalue(fock.build_deformed(model, a - model.betas))
            # the reduction still tracks the oracle exactly
            assert abs(e1 - lam1.real) < 1e-8
            worst = max(worst, abs(e1 - e2))
        assert worst > 1e-6

    def test_convex_along_segments(self, chain2):
        r = np.random.default_rng(6)
        for _ in range(5):
            a = r.uniform(-0.5, 0.5, 2)
            b = r.uniform(-0.5, 0.5, 2)
            mid = deviations.e_alpha(chain2, 0.5 * (a + b))
            ends = 0.5 * (deviations.e_alpha(chain2, a) + deviations.e_alpha(chain2, b))
            assert mid <= ends + 1e-9

    def test_degenerate_spectrum_refused(self):
        # uncoupled model: no bath reaches either block of kappa_S, so the model
        # is not ergodic and e_alpha, its derivatives and the Riccati solve refuse it
        model = chain.build(chain.ChainSpec(length=2, theta0=0.0, thetaL=0.0))
        with pytest.raises(NotErgodicError):
            deviations.e_alpha(model, [0.1, 0.0])
        with pytest.raises(NotErgodicError):
            deviations.e_derivatives(model, 0.1)
        with pytest.raises(NotErgodicError):
            deviations.riccati_max(model, [0.1, 0.0])

    def test_spectrum_at_the_axis_refused(self):
        # couplings of 1e-5 put |Re lambda| near 5e-11, inside SPLIT_TOL: the
        # split-free e_alpha still answers, the two solves that split refuse
        model = chain.build(chain.ChainSpec(length=2, theta0=1e-5, thetaL=1e-5))
        assert abs(deviations.e_alpha(model, [0.1, 0.0])) < 1e-10
        with pytest.raises(DegenerateSpectrumError, match="right of the axis"):
            deviations.riccati_max(model, [0.1, 0.0])
        with pytest.raises(DegenerateSpectrumError, match="right of the axis"):
            deviations.e_derivatives(model, 0.1)

    def test_gradient_is_flux(self, chain2):
        # d e / d alpha at 0 equals +J: the adopted global sign convention
        j = thermal.fluxes(chain2, dynamics.stationary_covariance(chain2))
        eps = 1e-6
        for i in range(2):
            a = np.zeros(2)
            a[i] = eps
            de = (deviations.e_alpha(chain2, a) - deviations.e_alpha(chain2, -a)) / (2 * eps)
            assert abs(de - j[i]) < 1e-5

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda m: deviations.e_alpha(m, [np.nan, 0.0]), id="e_alpha-nan"),
            pytest.param(lambda m: deviations.e_alpha(m, [np.inf, 0.0]), id="e_alpha-inf"),
            pytest.param(lambda m: deviations.riccati_max(m, [np.nan, 0.0]), id="riccati_max-nan"),
            pytest.param(lambda m: deviations.riccati_max(m, [0.0, -np.inf]), id="riccati_max-inf"),
            pytest.param(lambda m: deviations.e_derivatives(m, np.nan), id="e_derivatives-nan"),
            pytest.param(lambda m: deviations.e_derivatives(m, -np.inf), id="e_derivatives-inf"),
            pytest.param(lambda m: deviations.rate_function(m, [np.nan]), id="rate-zeta-nan"),
            pytest.param(lambda m: deviations.rate_function(m, [0.0, np.inf]), id="rate-zeta-inf"),
            pytest.param(lambda m: deviations.rate_function(m, [0.05], alpha_max=np.nan), id="rate-alpha_max-nan"),
            pytest.param(lambda m: deviations.rate_function(m, [0.05], alpha_max=np.inf), id="rate-alpha_max-inf"),
            pytest.param(lambda m: deviations.rate_function(m, [0.05], alpha_max=-1.0), id="rate-alpha_max-negative"),
            pytest.param(lambda m: deviations.rate_function(m, [0.05], alpha_max=0.0), id="rate-alpha_max-zero"),
        ],
    )
    def test_malformed_input_refused(self, chain2, call):
        with pytest.raises(MalformedInputError):
            call(chain2)


class TestRiccati:
    def test_alpha_zero_is_stationary_covariance(self, chain2):
        spec = deviations.riccati_max(chain2, [0.0, 0.0])
        m = dynamics.stationary_covariance(chain2)
        assert np.max(np.abs(spec.covariance.maj - m.maj)) < 1e-9
        assert abs(spec.e_value) < 1e-9

    def test_solution_properties(self, chain2):
        a = np.array([0.3, 0.0])
        x = _x_max(chain2, a)
        assert max(_block_residual(b, a, _eig_block_x(b, a))[0] for b in deviations._factors(chain2)) < 1e-8
        assert np.linalg.eigvalsh(x).min() > 0
        # X^T = X^{-1} (xi-transpose = plain transposition here): exactly the
        # condition making (1 + X)^{-1} a covariance matrix
        assert np.max(np.abs(np.linalg.inv(x.T) - x)) < 1e-7

    def test_covariance_matches_fock_eigenvector(self, chain2):
        a = np.array([0.3, 0.0])
        spec = deviations.riccati_max(chain2, a)
        _, rho_a, _ = fock.dominant_eigenvalue(fock.build_deformed(chain2, a))
        assert np.max(np.abs(fock.covariance_of(rho_a).maj - spec.covariance.maj)) < 1e-7

    def test_trace_formula_consistency(self):
        r = np.random.default_rng(9)
        for model in make_models(9, 3):
            a = r.uniform(-0.5, 0.5, model.n_baths)
            spec = deviations.riccati_max(model, a)
            assert abs(spec.e_value - deviations.e_alpha(model, a)) < 1e-8

    @staticmethod
    def _reference_models():
        models = {f"chain{n}": chain.build(chain.ChainSpec(length=n)) for n in (2, 6, 10)}
        r = np.random.default_rng(41)
        for kind in ("uniform", "tr_broken", "spectral"):
            models[kind] = random_thermal_model(r, n_modes=3, n_baths=3, kind=kind)
        # pairing draws with degenerate structure: baths 0 and 2 share a kappa_S
        # eigenvalue, or each block is reached by one bath alone
        models["spectral-shared"] = random_thermal_model(r, n_modes=2, n_baths=3, kind="spectral")
        models["spectral-one-bath"] = _one_bath_blocks(0)
        return models

    def test_matches_schur_reference(self):
        r = np.random.default_rng(43)
        for name, model in self._reference_models().items():
            for _ in range(4):
                a = r.uniform(-1.5, 1.5, model.n_baths)
                ref = _x_max(model, a, _schur_block_x)
                x = _x_max(model, a)
                assert np.linalg.norm(x - ref, 2) <= 1e-10 * np.linalg.norm(ref, 2), name
            for _ in range(4):
                a = r.uniform(-10.0, 10.0, model.n_baths)
                blocks = deviations._factors(model)
                relative = [
                    max(res / max(1.0, nx) ** 2 for res, nx in (_block_residual(b, a, f(b, a)) for b in blocks))
                    for f in (_eig_block_x, _schur_block_x)
                ]
                assert relative[0] <= 10.0 * relative[1], (name, a, relative)

    def test_covariance_at_the_alpha_bound(self):
        # 1 + X over the whole space is singular to rounding here: the solve
        # answers block by block or fails as a numeric error, never with LinAlgError
        model = chain.build(chain.ChainSpec(length=6))
        try:
            spec = deviations.riccati_max(model, [-50.0, 0.0])
        except deviations.NUMERIC_ERRORS:
            return
        assert np.all(np.isfinite(spec.covariance.maj))

    def test_margins_logged(self, chain2, caplog):
        with caplog.at_level(logging.DEBUG, logger="fermiflux.deviations"):
            deviations.riccati_max(chain2, [0.3, 0.0])
        words = [r.getMessage() for r in caplog.records if r.name == "fermiflux.deviations"][-1].split()
        assert words[:3] == ["smallest", "|Re", "lambda|"] and words[4:6] == ["worst", "cond(W)"]
        assert words[7:9] == ["covariance", "residual"]
        margin, cond, resid, limit = (float(words[k].rstrip(",")) for k in (3, 6, 9, 11))
        assert margin >= deviations.SPLIT_TOL and 1.0 <= cond <= 1e12
        assert resid <= limit and limit == deviations.COVARIANCE_TOL

    def test_block_residuals_at_large_alpha(self):
        # the whole-space residual of the same X is about 0.1 relative: rounding
        # of the blocks at different scales e^{-cw}, not a lost solution
        model = self._reference_models()["spectral"]
        a = np.array([5.18, -1.39, 9.07])
        for b in deviations._factors(model):
            res, nx = _block_residual(b, a, _eig_block_x(b, a))
            assert res <= 1e-14 * max(1.0, nx) ** 2, b.w

    @staticmethod
    def _patched_block_eig(monkeypatch, edit):
        """Route ``_block_eig`` through ``edit(v, plus, m)``, which alters the eigenvector matrix in place."""
        block_eig = deviations._block_eig

        def patched(b, alpha):
            c, z, lam, v, plus = block_eig(b, alpha)
            edit(v, plus, b.a.shape[0])
            return c, z, lam, v, plus

        monkeypatch.setattr(deviations, "_block_eig", patched)

    def test_singular_stacking_refused(self, chain2, monkeypatch):
        # two equal right-half-plane eigenvectors make V1 + e^{-cw} V2 singular
        def edit(v, plus, m):
            k = np.flatnonzero(plus)
            v[:, k[1]] = v[:, k[0]]

        self._patched_block_eig(monkeypatch, edit)
        with pytest.raises(NumericDegeneracyError, match="singular"):
            deviations.riccati_max(chain2, [0.3, 0.0])

    @staticmethod
    def _halve_and_negate_v2(v, plus, m):
        # X -> -X / 2: C_w = (1 - X / 2)^{-1} leaves [0, 1]
        v[m:, plus] *= -0.5

    @staticmethod
    def _tilt_v2(v, plus, m):
        # X -> X + i e^{-cw} 1e-4: C_w loses Hermiticity while its Hermitian part stays in [0, 1]
        v[m:, plus] += 1e-4j * v[:m, plus]

    @pytest.mark.parametrize("edit", [_halve_and_negate_v2, _tilt_v2], ids=["spectrum", "hermiticity"])
    def test_covariance_off_its_structure_refused(self, chain2, monkeypatch, edit):
        self._patched_block_eig(monkeypatch, edit.__func__)
        with pytest.raises(NumericDegeneracyError, match="covariance misses"):
            deviations.riccati_max(chain2, [0.3, 0.0])

    @pytest.mark.parametrize(
        "spec,alpha",
        [
            (chain.ChainSpec(length=3, beta0=5.0, betaL=-5.0), [34.5, -36.8]),
            (chain.ChainSpec(length=4, beta0=-20.0, betaL=20.0), [-50.0, 0.0]),
            (chain.ChainSpec(length=6), [0.5, -49.2]),
        ],
        ids=["L3-cold-hot", "L4-hot-cold", "L6"],
    )
    def test_covariance_at_large_alpha_against_mpmath(self, spec, alpha):
        # X_w spans many decades here: forming it and inverting 1 + X loses 4.7e-7, 3.5e-7
        # and 0.075 against this reference, while the solve with V1 + e^{-cw} V2 meets it to rounding
        model = chain.build(spec)
        cov = deviations.riccati_max(model, alpha).covariance.maj
        assert np.max(np.abs(cov - _mp_blocks_covariance(model, alpha))) <= 1e-11

    @pytest.mark.parametrize("n,beta", [(2, 20.0), (2, 30.0), (2, 40.0), (4, 40.0), (2, -40.0), (4, -40.0)])
    def test_extreme_baths_match_fock(self, n, beta):
        # cold: X_w is about 0, so X_{-w} = conj(X_w)^{-1} is lost to rounding and the -w covariance needs the mirror;
        # hot: X_w itself is about e^{40}, which the covariance V1 (V1 + e^{-cw} V2)^{-1} never forms
        model = chain.build(chain.ChainSpec(length=n, beta0=beta, betaL=beta))
        for a in ([0.0, 0.0], [0.3, 0.0], [-0.4, 0.2]):
            spec = deviations.riccati_max(model, a)
            lam, rho_a, _ = fock.dominant_eigenvalue(fock.build_deformed(model, a))
            assert abs(spec.e_value - lam.real) <= 1e-8
            assert np.max(np.abs(fock.covariance_of(rho_a).maj - spec.covariance.maj)) <= 1e-7


class TestTwoBathReduction:
    def test_zero(self, chain2):
        assert abs(deviations.e_alpha(chain2, [0.0, 0.0])) < 1e-9

    def test_difference_identity(self, chain2):
        r = np.random.default_rng(10)
        for _ in range(5):
            a1, a2 = r.uniform(-0.8, 0.8, 2)
            full = deviations.e_alpha(chain2, [a1, a2])
            reduced = deviations.e_alpha(chain2, [a1 - a2, 0.0])
            assert abs(full - reduced) < 1e-9

    def test_zero_at_minus_beta_gap(self, chain2):
        gap = chain2.betas[0] - chain2.betas[1]
        assert abs(deviations.e_alpha(chain2, [-gap, 0.0])) < 1e-9

    def test_reflection_symmetry(self, chain2):
        # combining the two symmetries: e~ is even about -(beta0-betaL)/2
        gap = chain2.betas[0] - chain2.betas[1]
        r = np.random.default_rng(11)
        for _ in range(5):
            u = r.uniform(-0.8, 0.8)
            left = deviations.e_alpha(chain2, [-gap / 2 + u, 0.0])
            right = deviations.e_alpha(chain2, [-gap / 2 - u, 0.0])
            assert abs(left - right) < 1e-9


class TestRateFunction:
    def test_zero_at_mean_flux(self, chain2):
        j = thermal.fluxes(chain2, dynamics.stationary_covariance(chain2))[0]
        curve = deviations.rate_function(chain2, [j])
        assert curve.points[0].rate < 1e-10
        assert abs(curve.points[0].alpha_star) < 1e-4

    def test_nonnegative_and_convex(self, chain2):
        zetas = np.linspace(-0.05, 0.2, 26)
        curve = deviations.rate_function(chain2, zetas)
        rates = curve.rates
        assert rates.min() >= -1e-12
        second = rates[:-2] - 2 * rates[1:-1] + rates[2:]
        assert second.min() >= -1e-6

    def test_asymmetry_matches_entropy_production(self, chain2):
        # I(zeta) - I(-zeta) = -(beta0 - betaL) zeta under grad e(0) = +J
        gap = chain2.betas[0] - chain2.betas[1]
        zetas = np.array([0.02, 0.05, 0.09])
        plus = deviations.rate_function(chain2, zetas).rates
        minus = deviations.rate_function(chain2, -zetas).rates
        assert np.max(np.abs((plus - minus) + gap * zetas)) < 1e-6

    def test_asymmetry_at_a_cold_bath(self):
        model = chain.build(chain.ChainSpec(length=2, beta0=30.0))
        zetas = np.array([0.02, 0.05, 0.09, 0.2])
        plus = deviations.rate_function(model, zetas).rates
        minus = deviations.rate_function(model, -zetas).rates
        assert np.max(np.abs((plus - minus) + 30.0 * zetas)) < 1e-10

    def test_csv_round_formatting(self, chain2):
        curve = deviations.rate_function(chain2, [0.0, 0.05], metadata={"model": "chain2"})
        text = curve.to_csv()
        # the metadata only: no timings or evaluation counts
        assert text.splitlines()[:3] == ["# model: chain2", "# alpha_max: 50.0", "# xtol: 1e-10"]
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "zeta,I,alpha_star,converged"

    def test_uncoupled_chain_refused(self):
        # not a numeric failure: no point is reported as (inf, not converged)
        model = chain.build(chain.ChainSpec(length=2, theta0=0.0, thetaL=0.0))
        with pytest.raises(NotErgodicError):
            deviations.rate_function(model, [0.0, 0.05])

    @pytest.mark.parametrize("case", [c for c in MANY_BATHS if c not in DEGENERATE])
    def test_marginal_of_many_baths(self, case):
        # bath 0's rate function: zero at J_0, and a* zeta - I is e(a* e_0) by the Fock oracle
        model = _many_bath_draws()[case]
        j = thermal.fluxes(model, dynamics.stationary_covariance(model))[0]
        assert abs(j) > 1e-3
        curve = deviations.rate_function(model, j + abs(j) * np.linspace(-2.0, 2.0, 5))
        assert curve.rates.min() >= -1e-12
        assert curve.points[2].zeta == j and curve.points[2].rate < 1e-10
        assert curve.points[2].converged
        for p in curve.points:
            if p.converged:
                lam, _, _ = fock.dominant_eigenvalue(fock.build_deformed(model, _along_bath0(model, p.alpha_star)))
                assert abs(lam.real - (p.alpha_star * p.zeta - p.rate)) <= 1e-10

    @pytest.mark.parametrize("case", DEGENERATE)
    def test_degenerate_marginal(self, case):
        # N_0 = 0 on these draws: every zeta != 0 is out of reach
        model = _many_bath_draws()[case]
        assert max(abs(deviations.e_alpha(model, _along_bath0(model, a))) for a in (-3.0, 5.0)) <= 1e-12
        for p in deviations.rate_function(model, [-0.2, -0.05, 0.05, 0.2]).points:
            assert p.rate == np.inf and not p.converged


class TestDerivatives:
    @pytest.mark.parametrize(
        "case", [*range(2, 11), "one-bath-blocks-0", "one-bath-blocks-1", "one-bath-blocks-2", *MANY_BATHS]
    )
    def test_slope_at_zero_is_the_flux(self, case):
        if isinstance(case, int):
            spec = chain.ChainSpec(length=case)
            _, d1, _ = deviations.e_derivatives(chain.build(spec), 0.0)
            assert abs(d1 - chain.closed_form(spec).flux) <= 1e-12
            return
        if case in MANY_BATHS:
            model = _many_bath_draws()[case]
            _, d1, _ = deviations.e_derivatives(model, 0.0)
            assert abs(d1 - thermal.fluxes(model, dynamics.stationary_covariance(model))[0]) <= 1e-12
            return
        # no energy is exchanged, so the flux and e, e', e'' vanish at every a
        model = _one_bath_blocks(int(case[-1]))
        assert abs(thermal.fluxes(model, dynamics.stationary_covariance(model))[0]) <= 1e-12
        for a in np.linspace(-50.0, 50.0, 21):
            assert np.max(np.abs(deviations.e_derivatives(model, a))) <= 1e-14

    def test_against_central_differences(self):
        models = [chain.build(chain.ChainSpec(length=n)) for n in (2, 5)]
        models.append(chain.build(chain.ChainSpec(length=3, beta0=10.0, betaL=0.0)))
        r = np.random.default_rng(31)
        for kind, n in (("uniform", 2), ("uniform", 3), ("spectral", 2), ("uniform", 3), ("uniform", 4)):
            models.append(random_thermal_model(r, n_modes=n, n_baths=2, kind=kind))
        # the L=2 pairing draw has e = 0 identically; the two gauge-invariant draws after it do not
        assert max(abs(deviations.e_alpha(models[-3], [a, 0.0])) for a in (-3.0, 5.0)) <= 1e-12
        assert min(abs(deviations.e_alpha(m, [2.0, 0.0])) for m in models[-2:]) > 1e-3
        models += _many_bath_draws().values()
        for model in models:
            def e(x):
                return deviations.e_alpha(model, _along_bath0(model, x))

            for a in (-3.0, -1.0, 0.5, 2.0, 5.0):
                e0, d1, d2 = deviations.e_derivatives(model, a)
                assert abs(e0 - e(a)) <= 1e-12 * max(1.0, abs(e0))
                h, k = 1e-4, 1e-3
                assert abs(d1 - (e(a + h) - e(a - h)) / (2 * h)) <= 1e-8 * max(1.0, abs(d1))
                assert abs(d2 - (e(a + k) - 2 * e0 + e(a - k)) / k**2) <= 1e-6 * max(1.0, abs(d2))


def _golden_legendre(model, zetas, alpha_max=deviations.ALPHA_MAX, xtol=1e-10):
    """Reference I(zeta): an expanding bracket and golden section on a zeta - e((a, 0)), warm-started."""
    g = (np.sqrt(5.0) - 1.0) / 2.0
    out, warm = [], 0.0
    for zeta in zetas:
        def f(a):
            return a * zeta - deviations.e_alpha(model, [a, 0.0])

        x0, step = warm, 0.25
        f0 = f(x0)
        while True:
            lo, hi = max(x0 - step, -alpha_max), min(x0 + step, alpha_max)
            flo, fhi = f(lo), f(hi)
            if f0 >= flo and f0 >= fhi:
                break
            x0, f0 = (hi, fhi) if fhi > flo else (lo, flo)
            assert abs(x0) < alpha_max
            step *= 2.0
        a, b = lo, hi
        x1, x2 = b - g * (b - a), a + g * (b - a)
        f1, f2 = f(x1), f(x2)
        while b - a > xtol:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + g * (b - a)
                f2 = f(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - g * (b - a)
                f1 = f(x1)
        warm = 0.5 * (a + b)
        out.append(max(f(warm), f0))
    return np.array(out)


class TestLegendreNewton:
    GRID = np.linspace(-0.1, 0.3, 200)
    CASES = (
        (chain.ChainSpec(length=2), GRID[40:48]),
        (chain.ChainSpec(length=6, theta0=0.95, thetaL=1.05, beta0=1.1, betaL=0.05), GRID[150:158]),
        (chain.ChainSpec(length=2), np.linspace(-1.0, -0.3, 4)),
        (chain.ChainSpec(length=2), np.linspace(1.5, 3.0, 4)),
    )

    @pytest.mark.parametrize("spec,zetas", CASES, ids=["L2-window", "L6-window", "L2-tail-", "L2-tail+"])
    def test_matches_golden_section(self, spec, zetas, monkeypatch):
        model = chain.build(spec)
        ref = _golden_legendre(model, zetas)
        calls = []
        inner = deviations.e_derivatives

        def counted(m, a):
            calls.append(a)
            return inner(m, a)

        monkeypatch.setattr(deviations, "e_derivatives", counted)
        curve = deviations.rate_function(model, zetas)
        assert all(p.converged for p in curve.points)
        assert np.max(np.abs(curve.rates - ref)) <= 1e-12
        assert len(calls) <= 8 * len(zetas)
        for p in curve.points:
            _, d1, _ = inner(model, p.alpha_star)
            assert abs(d1 - p.zeta) <= 1e-9

    @pytest.mark.parametrize("start", [1.3917452002707348, 3.0, -20.0])
    def test_bracket_rescues_newton(self, chain2, monkeypatch, start):
        # with e'(a) = arctan(a), plain Newton for e'(a) = 0 cycles between
        # +-1.3917452 and overshoots from further out
        def arctan_cgf(model, a):
            calls.append(a)
            assert len(calls) <= 20
            return a * np.arctan(a) - 0.5 * np.log1p(a * a), np.arctan(a), 1.0 / (1.0 + a * a)

        calls = []
        monkeypatch.setattr(deviations, "e_derivatives", arctan_cgf)
        counts = dict.fromkeys(("evaluations", "newton", "bisections", "probes"), 0)
        a, _, converged = deviations._legendre_point(chain2, 0.0, start, 50.0, counts)
        assert converged and abs(a) <= 1e-10
        assert counts["bisections"] >= 1 and counts["evaluations"] == len(calls)

    def test_unattained_supremum_at_the_bound(self, chain2):
        zetas = np.array([-0.3, -0.1, 0.2, 0.3])
        curve = deviations.rate_function(chain2, zetas, alpha_max=0.05)
        for p in curve.points:
            assert not p.converged and p.rate == np.inf
            assert p.alpha_star == (0.05 if p.zeta > 0 else -0.05)

    def test_logs_evaluations(self, chain2, caplog):
        zetas = np.linspace(0.0, 0.2, 5)
        with caplog.at_level(logging.DEBUG, logger="fermiflux.deviations"):
            deviations.rate_function(chain2, zetas)
        words = [r.getMessage() for r in caplog.records if r.name == "fermiflux.deviations"][-1].split()
        assert words[:2] == ["5", "points,"]
        assert 1.0 <= float(words[2]) <= 8.0
        assert 0.0 <= float(words[5]) < float(words[2])
        assert words[10:12] == ["0", "bisections,"]


def _half_spectrum_e(model, a):
    """e(alpha) from the 4L x 4L Majorana Z built from its definitions, with no block split."""
    a_, b_plus, b_minus = _blocks_by_definition(model, a)
    lam = np.linalg.eigvals(np.block([[a_, b_plus], [b_minus, -a_.conj().T]]))
    tr = sum(np.trace(model.dissipation_matrix(i)).real for i in range(model.n_baths))
    return 0.5 * lam[lam.real > 0].sum().real - 0.25 * tr


def _mp_e_alpha(model, alpha, dps=60):
    """e(alpha) from the 4L x 4L Majorana Z built and diagonalised in mpmath."""
    import mpmath as mp

    def mat(x):
        return mp.matrix(np.asarray(x).tolist())

    with mp.workdps(dps):
        ks = mat(model.kappa_s.maj)
        n = ks.rows
        eye = mp.eye(n)
        a = -1j * mat(model.t_s.maj)
        b_plus, b_minus, tr = mp.zeros(n), mp.zeros(n), 0
        for i, bath in enumerate(model.baths):
            th = mat(bath.theta.maj)
            d = th * th.H
            m_b = mp.inverse(eye + mp.expm(-bath.beta * ks))
            a += (m_b - eye / 2) * d
            b_plus += mp.expm(alpha[i] * ks) * m_b * d
            b_minus += mp.expm(-alpha[i] * ks) * (eye - m_b) * d
            tr += sum(d[k, k] for k in range(n))
        z = mp.zeros(2 * n)
        for r in range(n):
            for c in range(n):
                z[r, c] = a[r, c]
                z[r, n + c] = b_plus[r, c]
                z[n + r, c] = b_minus[r, c]
                z[n + r, n + c] = -mp.conj(a[c, r])
        lam = mp.eig(z, left=False, right=False)
        return float(mp.re(sum(x for x in lam if mp.re(x) > 0) / 2 - tr / 4))


def _mp_block_z(b, alpha):
    """Z_w(alpha) of the float64 block ``b``, unshifted, exponentiated in mpmath at its working precision."""
    import mpmath as mp

    m = b.a.shape[0]
    grow = [mp.exp(mp.mpf(float(x)) * mp.mpf(b.w)) for x in alpha]
    z = mp.zeros(2 * m)
    for r in range(m):
        for c in range(m):
            k = r * m + c
            z[r, c] = mp.mpc(b.a[r, c])
            z[m + r, m + c] = -mp.conj(mp.mpc(b.a[c, r]))
            z[r, m + c] = sum(g * mp.mpc(x) for g, x in zip(grow, b.c_plus[:, k]))
            z[m + r, c] = sum(mp.mpc(x) / g for g, x in zip(grow, b.c_minus[:, k]))
    return z


def _mp_blocks_e(model, alpha, dps=60):
    """e(alpha) from the float64 eigenspace blocks of ``model``, exponentiated and diagonalised in mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        total = 0
        for b in deviations._factors(model):
            lam = mp.eig(_mp_block_z(b, alpha), left=False, right=False)
            total += sum(x for x in lam if mp.re(x) > 0) / 2 - mp.mpf(b.trace) / 4
        return float(mp.re(total))


def _mp_blocks_covariance(model, alpha, dps=60):
    """(1 + X)^{-1} from the float64 eigenspace blocks of ``model``, every block (w < 0 included) solved in mpmath.

    X_w = V2 V1^{-1} from the right-half-plane eigenvectors [V1; V2] of Z_w(alpha), unshifted.
    """
    import mpmath as mp

    cov = 0.0
    with mp.workdps(dps):
        for b in deviations._factors(model):
            m = b.a.shape[0]
            lam, v = mp.eig(_mp_block_z(b, alpha))
            plus = [k for k in range(2 * m) if mp.re(lam[k]) > 0]
            assert len(plus) == m
            v1 = mp.matrix([[v[r, k] for k in plus] for r in range(m)])
            v2 = mp.matrix([[v[m + r, k] for k in plus] for r in range(m)])
            cw = mp.inverse(mp.eye(m) + v2 * mp.inverse(v1))
            cw = np.array([[complex(cw[r, c]) for c in range(m)] for r in range(m)])
            cov = cov + b.u @ cw @ b.u.conj().T
    return 0.5 * (cov + cov.conj().T)


class TestSectorSplit:
    def _gauge_invariant_models(self):
        models = [chain.build(chain.ChainSpec(length=n)) for n in range(1, 7)]
        r = np.random.default_rng(17)
        for kind in ("uniform", "tr_broken"):
            models += [random_thermal_model(r, n_modes=n, kind=kind) for n in (1, 2, 3, 4)]
        return models

    def test_sectors_match_full_problem(self):
        r = np.random.default_rng(18)
        for model in self._gauge_invariant_models():
            blocks = deviations._factors(model)
            assert [b.a.shape[0] for b in blocks] == [model.n_modes] * 2
            for _ in range(6):
                a = r.uniform(-3.0, 3.0, model.n_baths)
                ref = _half_spectrum_e(model, a)
                assert abs(deviations.e_alpha(model, a) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_pairing_models_split_per_energy(self):
        # one block per kappa_S eigenvalue; a bath enters only the blocks at its own energies
        r = np.random.default_rng(19)
        for n in (2, 3, 4):
            model = random_thermal_model(r, n_modes=n, n_baths=n, kind="spectral")
            blocks = deviations._factors(model)
            assert [b.a.shape for b in blocks] == [(1, 1)] * (2 * n)
            ws = np.array([b.w for b in blocks])
            assert np.max(np.abs(ws - np.linalg.eigvalsh(model.kappa_s.maj))) < 1e-12
            for i, bath in enumerate(model.baths):
                wb = np.linalg.eigvalsh(bath.kappa.maj)
                for b in blocks:
                    coupled = np.min(np.abs(wb - b.w)) < 1e-9
                    assert np.any(b.c_plus[i]) == coupled
                    assert np.any(b.c_minus[i]) == coupled

    def test_rate_tails_converge_against_fock(self, chain2):
        # alpha* reaches 9.5 on these tails, where Fock still agrees to rounding
        for tail in (np.linspace(-1.0, -0.3, 4), np.linspace(1.5, 3.0, 4)):
            for p in deviations.rate_function(chain2, tail).points:
                assert p.converged
                lam, _, _ = fock.dominant_eigenvalue(fock.build_deformed(chain2, [p.alpha_star, 0.0]))
                assert abs(lam.real - (p.alpha_star * p.zeta - p.rate)) < 1e-8

    @pytest.mark.parametrize("a", [10.0, -10.0, 20.0, -20.0, 30.0, -30.0, 50.0, -50.0])
    def test_large_alpha_against_mpmath(self, chain2, a):
        # the Fock oracle itself drifts above |alpha| = 10, so the reference is
        # the same Z at 60 digits
        ref = _mp_e_alpha(chain2, [a, 0.0])
        assert abs(deviations.e_alpha(chain2, [a, 0.0]) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("a", [50.0, -50.0])
    def test_long_chain_large_alpha_against_mpmath(self, a):
        # both baths tilted: each block is solved at the centre of its alphas
        model = chain.build(chain.ChainSpec(length=10))
        ref = _mp_blocks_e(model, [a, 0.7])
        assert abs(deviations.e_alpha(model, [a, 0.7]) - ref) <= 1e-12 * abs(ref)

    def test_eigenvalues_near_the_axis(self):
        # both baths reach both blocks; at |alpha| >= 30 some |Re lambda| fall
        # to about 1e-11, next to others of 1e8, and still add up to e
        for seed in range(100, 110):
            model = random_thermal_model(np.random.default_rng(seed), n_modes=4, n_baths=2, kind="uniform")
            for a in (30.0, -30.0, 50.0, -50.0):
                ref = _mp_blocks_e(model, [a, 0.0])
                assert abs(deviations.e_alpha(model, [a, 0.0]) - ref) <= 1e-13 * max(1.0, abs(ref))


class TestPairingModels:
    def test_fewer_baths_than_modes_refused(self):
        # each bath of a pairing draw locks onto one +-omega pair
        with pytest.raises(MalformedInputError, match="n_baths >= n_modes"):
            random_thermal_model(np.random.default_rng(0), n_modes=3, n_baths=2, kind="spectral")

    def test_no_exchange_between_energies(self):
        # each bath attaches to its own kappa_S eigenvalue, so e is identically 0
        for seed in range(60):
            model = random_thermal_model(np.random.default_rng(seed), n_modes=2, n_baths=2, kind="spectral")
            for a in (2.0, 4.0, 6.0, 8.0, 10.0):
                for sign in (1.0, -1.0):
                    assert abs(deviations.e_alpha(model, [sign * a, 0.0])) <= 1e-12

    def test_shared_energy_against_mpmath(self):
        # baths 0 and 2 share a kappa_S eigenvalue and exchange energy through it
        for seed in range(10):
            model = random_thermal_model(np.random.default_rng(seed), n_modes=2, n_baths=3, kind="spectral")
            for a in (3.0, 10.0, 20.0, 30.0, 50.0):
                for alpha in ([a, 0.0, 0.0], [-a, 0.0, 0.0]):
                    ref = _mp_blocks_e(model, alpha)
                    assert abs(deviations.e_alpha(model, alpha) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_symmetry_identities(self):
        r = np.random.default_rng(23)
        for n in (2, 3, 4):
            for _ in range(10):
                model = random_thermal_model(r, n_modes=n, n_baths=n + 1, kind="spectral")
                for _ in range(4):
                    a = r.uniform(-3.0, 3.0, model.n_baths)
                    c = r.uniform(-3.0, 3.0)
                    e = deviations.e_alpha(model, a)
                    tol = 1e-12 * max(1.0, abs(e))
                    assert abs(deviations.e_alpha(model, a + c) - e) <= tol
                    # eig with eigenvectors takes another LAPACK path than eigvals and may round differently
                    assert abs(deviations.riccati_max(model, a + c).e_value - e) <= 1e2 * tol
                    # both solvers shift each block's alphas to their centre; this solve takes a + c as given
                    assert abs(_mp_blocks_e(model, a + c) - e) <= tol
                    assert abs(deviations.e_alpha(model, -a - model.betas) - e) <= tol

    def test_matches_fock_at_small_alpha(self):
        # Fock carries the full-Z rounding residues, so it is a reference only at |alpha_i| <= 1
        r = np.random.default_rng(29)
        for n in (2, 3):
            model = random_thermal_model(r, n_modes=n, n_baths=n + 1, kind="spectral")
            for _ in range(3):
                a = r.uniform(-1.0, 1.0, model.n_baths)
                lam, _, _ = fock.dominant_eigenvalue(fock.build_deformed(model, a))
                assert abs(deviations.e_alpha(model, a) - lam.real) < 1e-8


class TestOutOfSupport:
    def test_off_intertwining_coupling_refused(self, chain2):
        w = np.random.default_rng(31).normal(size=chain2.baths[0].theta.maj.shape)
        bath = thermal.BathSpec(
            beta=chain2.baths[0].beta,
            kappa=chain2.baths[0].kappa,
            theta=CouplingMatrix(chain2.baths[0].theta.maj + 1e-8j * w, Basis.MAJORANA),
        )
        model = thermal.ThermalQuasiFreeModel(chain2.t_s, chain2.kappa_s, baths=(bath, chain2.baths[1]))
        with pytest.raises(MalformedInputError, match="outside its energy support"):
            deviations.e_alpha(model, [0.1, 0.0])

    def test_near_degenerate_energies_accepted(self, monkeypatch):
        # kappa_S energies 1 and 1 + 1e-6: each eigenvector is known only to
        # about eps / gap, but the discarded coupling times its gap is rounding
        checked = 0
        for seed in range(40):
            r = np.random.default_rng(seed)
            o, _ = np.linalg.qr(r.normal(size=(4, 4)))
            k = np.zeros((4, 4))
            k[0, 1], k[2, 3] = 1.0, 1.0 + 1e-6
            kappa = o @ (k - k.T) @ o.T
            monkeypatch.setattr(randgen, "_random_antisym", lambda rng, n: kappa)
            model = randgen._spectral_model(r, 2, 3)
            try:
                thermal.validate(model, tol=1e-10)
            except ValidationError:
                continue
            checked += 1
            for _ in range(3):
                a = r.uniform(-2.0, 2.0, 3)
                lam, _, _ = fock.dominant_eigenvalue(fock.build_deformed(model, a))
                assert abs(deviations.e_alpha(model, a) - lam.real) < 1e-8
        assert checked >= 10

    def test_discarded_coupling_logged(self, caplog):
        model = chain.build(chain.ChainSpec(length=3))
        with caplog.at_level(logging.DEBUG, logger="fermiflux.deviations"):
            deviations.e_alpha(model, [0.2, 0.0])
        words = [r.getMessage() for r in caplog.records if r.name == "fermiflux.deviations"][-1].split()
        assert words[:2] == ["out-of-support", "coupling"]
        assert float(words[2]) < 1e-3 * float(words[-1])


class TestFactorCache:
    def test_freed_with_model(self):
        model = chain.build(chain.ChainSpec(length=3))
        deviations.e_alpha(model, [0.2, 0.0])
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_threads_share_fresh_models(self):
        alphas = np.linspace(-2.0, 2.0, 9)
        specs = [chain.ChainSpec(length=n) for n in (2, 3, 4)]
        expected = [[deviations.e_alpha(chain.build(s), [a, 0.0]) for a in alphas] for s in specs]
        models = [chain.build(s) for s in specs]
        results = {}

        def work(k):
            j = k % len(models)
            results[k] = [deviations.e_alpha(models[j], [a, 0.0]) for a in alphas]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == list(range(8))
        for k, vals in results.items():
            assert vals == expected[k % len(models)]


def _all_blocks_e(model, alpha):
    """e(alpha) summed over every kappa_S block once, the w < 0 mirrors solved as well."""
    alpha = np.asarray(alpha, dtype=float)
    blocks = deviations._factors(model)
    abs_re = sum(np.abs(np.linalg.eigvals(b.z(alpha - b.shift(alpha))).real).sum() for b in blocks)
    return 0.25 * abs_re - 0.25 * sum(b.trace for b in blocks)


def _all_blocks_derivatives(model, a):
    """(e, e', e'') at a e_0 summed over every kappa_S block once, from the perturbation sums of Z_w' and Z_w''."""
    alpha = np.array(_along_bath0(model, a))
    e, d1, d2 = _all_blocks_e(model, alpha), 0.0, 0.0
    for b in deviations._factors(model):
        c, m = b.shift(alpha), b.a.shape[0]
        lam, x = np.linalg.eig(b.z(alpha - c))
        y = np.linalg.inv(x)
        up, down = np.exp((a - c) * b.w) * b.c_plus[0].reshape(m, m), np.exp((c - a) * b.w) * b.c_minus[0].reshape(m, m)
        dz, ddz = np.zeros((2, 2 * m, 2 * m), dtype=complex)
        dz[:m, m:], dz[m:, :m] = b.w * up, -b.w * down
        ddz[:m, m:], ddz[m:, :m] = b.w**2 * up, b.w**2 * down
        mm, nn = y @ dz @ x, y @ ddz @ x
        plus = lam.real > 0
        cross = mm[plus][:, ~plus] * mm[~plus][:, plus].T / (lam[plus, None] - lam[None, ~plus])
        d1 += 0.5 * np.diagonal(mm)[plus].sum().real
        d2 += 0.5 * (np.diagonal(nn)[plus].sum() + 2.0 * cross.sum()).real
    return e, d1, d2


def _fock_derivatives(model, a):
    """(e, e', e'') at a e_0 from the Fock deformed generator G(a) = G_0 + e^a G_+ + e^-a G_-.

    Valid when bath 0 exchanges quanta of energy 1 only: G_+ and G_- are read
    off G(0) and G(+-1), and the derivatives are the perturbation sums of the
    dominant eigenvalue of G(a).
    """
    assert np.allclose(np.abs(model.bath_modes(0)[0]), 1.0)

    def g(x):
        return fock.build_deformed(model, _along_bath0(model, x))

    g0, g1, gm1 = g(0.0), g(1.0), g(-1.0)
    odd, even = (g1 - gm1) / (2.0 * np.sinh(1.0)), (g1 + gm1 - 2.0 * g0) / (2.0 * np.cosh(1.0) - 2.0)
    up, down = np.exp(a) * 0.5 * (even + odd), np.exp(-a) * 0.5 * (even - odd)
    lam, x = np.linalg.eig(g(a))
    y = np.linalg.inv(x)
    k = np.argmax(lam.real)
    mm, nn = y @ (up - down) @ x, y @ (up + down) @ x
    rest = np.arange(lam.size) != k
    return lam[k].real, mm[k, k].real, (nn[k, k] + 2.0 * (mm[k, rest] * mm[rest, k] / (lam[k] - lam[rest])).sum()).real


def _zero_energy_model():
    """L = 3 with a two-dimensional kappa_S eigenspace at w = 0, reached by bath 1 at its own energy 0."""
    baths = tuple(
        thermal.BathSpec(
            beta=beta,
            kappa=ps.embed_gauge_invariant(omega * np.eye(1)),
            theta=ps.embed_gauge_invariant_coupling(np.array(theta)[:, None]),
        )
        for beta, omega, theta in (
            (1.0, 1.0, [0.8, 0.0, 0.5]),
            (0.3, 0.0, [0.0, 0.9, 0.0]),
            (-0.2, 1.0, [0.3, 0.0, -0.7]),
        )
    )
    return thermal.ThermalQuasiFreeModel(
        t_s=ps.embed_gauge_invariant(np.diag([0.7, 0.0, -0.4])),
        kappa_s=ps.embed_gauge_invariant(np.diag([1.0, 0.0, 1.0])),
        baths=baths,
    )


# chains, every randgen family with 3 and 4 baths, the pairing draws whose blocks
# one bath reaches each, and those where baths 0 and 2 share a kappa_S eigenvalue
MIRROR_CASES = [
    *(f"chain-{n}" for n in (2, 5, 10)),
    *MANY_BATHS,
    *(f"one-bath-blocks-{s}" for s in range(3)),
    *(f"shared-energy-{s}" for s in range(3)),
]


def _mirror_model(case):
    if case in MANY_BATHS:
        return _many_bath_draws()[case]
    if case.startswith("chain"):
        return chain.build(chain.ChainSpec(length=int(case[6:]), beta0=2.0, betaL=0.5))
    seed = int(case[-1])
    if case.startswith("one-bath"):
        return _one_bath_blocks(seed)
    return random_thermal_model(np.random.default_rng(seed), n_modes=2, n_baths=3, kind="spectral")


def _same_multiset(x, y):
    """Largest distance between x and y paired one to one, at the pairing that minimises the sum."""
    d = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(d)
    return d[rows, cols].max()


class TestMirrorBlocks:
    @pytest.mark.parametrize("case", MIRROR_CASES)
    def test_mirror_spectrum_is_conjugate(self, case):
        model = _mirror_model(case)
        blocks = deviations._factors(model)
        r = np.random.default_rng(61)
        assert sum(b.weight for b in blocks) == len(blocks)
        for _ in range(4):
            alpha = r.uniform(-3.0, 3.0, model.n_baths)
            for b, mirror in zip(blocks, reversed(blocks)):
                if b.w <= 0:
                    continue
                assert mirror.w == -b.w or abs(mirror.w + b.w) <= 1e-14 * b.w
                c = b.shift(alpha)
                assert mirror.shift(alpha) == c
                lam = np.linalg.eigvals(b.z(alpha - c))
                lam_mirror = np.linalg.eigvals(mirror.z(alpha - c))
                assert _same_multiset(lam_mirror, lam.conj()) <= 1e-12 * np.abs(lam).max(), (case, b.w)

    @pytest.mark.parametrize("case", MIRROR_CASES)
    def test_matches_all_block_sum(self, case):
        model = _mirror_model(case)
        r = np.random.default_rng(67)
        for _ in range(4):
            alpha = r.uniform(-3.0, 3.0, model.n_baths)
            ref = _all_blocks_e(model, alpha)
            assert abs(deviations.e_alpha(model, alpha) - ref) <= 1e-13 * max(1.0, abs(ref))
        for a in (-3.0, -0.6, 0.0, 1.7, 8.0):
            got, ref = deviations.e_derivatives(model, a), _all_blocks_derivatives(model, a)
            assert np.all(np.abs(np.subtract(got, ref)) <= 1e-13 * np.maximum(1.0, np.abs(ref))), (case, a, got, ref)

    @pytest.mark.parametrize("case", [f"chain-{n}" for n in (2, 5, 10)] + MANY_BATHS)
    def test_riccati_matches_all_block_solve(self, case):
        # the covariance's -w blocks come from conj(M) = 1 - M instead of a Riccati solve at -w
        model = _mirror_model(case)
        r = np.random.default_rng(71)
        for _ in range(4):
            alpha = r.uniform(-1.5, 1.5, model.n_baths)
            spec, ref = deviations.riccati_max(model, alpha), _all_blocks_e(model, alpha)
            assert abs(spec.e_value - ref) <= 1e-12 * max(1.0, abs(ref))
            assert np.max(np.abs(spec.covariance.maj - _all_blocks_covariance(model, alpha))) <= 1e-12

    def test_half_the_blocks_solved(self, monkeypatch):
        solved = []
        block_eig, eigvals = deviations._block_eig, np.linalg.eigvals
        monkeypatch.setattr(deviations, "_block_eig", lambda b, alpha: solved.append(b.w) or block_eig(b, alpha))
        monkeypatch.setattr(np.linalg, "eigvals", lambda z: solved.append(None) or eigvals(z))
        cases = [(chain.build(chain.ChainSpec(length=n)), 1) for n in range(2, 11)]
        cases += [(_many_bath_draws()[f"spectral-L3-{nb}baths"], 3) for nb in (3, 4)]
        for model, half in cases:
            solved.clear()
            deviations.e_derivatives(model, 0.7)
            assert len(solved) == half and min(solved) > 0
            solved.clear()
            deviations.e_alpha(model, _along_bath0(model, 0.7))
            assert solved == [None] * half
            solved.clear()
            deviations.riccati_max(model, _along_bath0(model, 0.7))
            assert len(solved) == half and min(solved) > 0

    @pytest.mark.parametrize(
        "case,drop",
        [
            pytest.param("chain", lambda us: us[1:], id="chain-block"),
            pytest.param("spectral", lambda us: us[:2] + us[3:], id="spectral-block"),
            pytest.param("chain", lambda us: [us[0][:, 1:], *us[1:]], id="chain-dimension"),
        ],
    )
    def test_unpaired_block_refused(self, monkeypatch, case, drop):
        if case == "chain":
            model = chain.build(chain.ChainSpec(length=3))
        else:
            model = random_thermal_model(np.random.default_rng(3), n_modes=3, n_baths=4, kind="spectral")
        eigenspaces = ps.eigenspaces
        monkeypatch.setattr(ps, "eigenspaces", lambda h: drop(eigenspaces(h)))
        with pytest.raises(InternalConsistencyError, match="has no mirror"):
            deviations.e_alpha(model, _along_bath0(model, 0.3))
        with pytest.raises(InternalConsistencyError, match="has no mirror"):
            deviations.riccati_max(model, _along_bath0(model, 0.3))

    @pytest.mark.parametrize("rotated", [False, True], ids=["embedded", "rotated"])
    def test_zero_energy_block(self, rotated):
        model = _zero_energy_model()
        if rotated:
            # the same model in a rotated Majorana basis: the zero eigenvalues of kappa_S become rounding
            o, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 6)))
            model = thermal.ThermalQuasiFreeModel(
                t_s=ps.PhaseSpaceMatrix(o @ model.t_s.maj @ o.T, Basis.MAJORANA),
                kappa_s=ps.PhaseSpaceMatrix(o @ model.kappa_s.maj @ o.T, Basis.MAJORANA),
                baths=tuple(
                    thermal.BathSpec(b.beta, b.kappa, CouplingMatrix(o @ b.theta.maj, Basis.MAJORANA))
                    for b in model.baths
                ),
            )
        thermal.validate(model)
        assert dynamics.kalman_rank(model) == (6, True)
        blocks = deviations._factors(model)
        assert [b.weight for b in blocks] == [0, 1, 2] and blocks[1].w == 0.0
        assert [b.a.shape[0] for b in blocks] == [2, 2, 2] and blocks[1].baths.tolist() == [1]
        # Z_0 does not depend on alpha
        assert np.array_equal(blocks[1].z(np.array([2.0, -1.0, 0.5])), blocks[1].z(np.zeros(3)))
        for a in np.linspace(-2.0, 2.0, 9):
            got = deviations.e_derivatives(model, a)
            assert np.max(np.abs(np.subtract(got, _all_blocks_derivatives(model, a)))) <= 1e-10
            assert np.max(np.abs(np.subtract(got, _fock_derivatives(model, a)))) <= 1e-10
            lam, rho_a, _ = fock.dominant_eigenvalue(fock.build_deformed(model, _along_bath0(model, a)))
            assert abs(deviations.e_alpha(model, _along_bath0(model, a)) - lam.real) <= 1e-10
            cov = deviations.riccati_max(model, _along_bath0(model, a)).covariance.maj
            assert np.max(np.abs(fock.covariance_of(rho_a).maj - cov)) <= 1e-10
