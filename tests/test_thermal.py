import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiflux import chain, dynamics, fock, thermal
from fermiflux import phasespace as ps
from fermiflux.errors import InfeasibleError, MalformedInputError, ValidationError
from fermiflux.thermal import ThermalQuasiFreeModel

from conftest import make_models


class TestValidate:
    def test_chain_clean(self, chain2):
        report = thermal.validate(chain2)
        assert max(report.values()) < 1e-12

    def test_noncommuting_pseudo_energy_flagged(self, chain2):
        bad_kappa = ps.embed_gauge_invariant(np.diag([1.0, 2.0]))
        bad = ThermalQuasiFreeModel(t_s=chain2.t_s, kappa_s=bad_kappa, baths=chain2.baths)
        with pytest.raises(ValidationError) as err:
            thermal.validate(bad)
        names = [v[0] for v in err.value.violations]
        assert any("commute" in n or "intertwine" in n for n in names)

    def test_closed_system_valid(self, chain2):
        closed = ThermalQuasiFreeModel(t_s=chain2.t_s, kappa_s=chain2.kappa_s, baths=())
        thermal.validate(closed)

    def test_random_models_valid(self):
        for model in make_models(3, 10):
            thermal.validate(model)


class TestFluxes:
    def test_equilibrium_zero(self):
        beta = 0.85
        model = chain.build(chain.ChainSpec(length=2, beta0=beta, betaL=beta))
        j = thermal.fluxes(model, model.gibbs_system_covariance(beta))
        assert np.max(np.abs(j)) < 1e-12

    def test_chain_value(self, chain2):
        j = thermal.fluxes(chain2, dynamics.stationary_covariance(chain2))
        assert abs(j[0] - 0.09242343145200196) < 1e-10
        assert abs(j[0] + j[1]) < 1e-12

    def test_matches_fock_flux(self):
        for model in make_models(17, 2, n_modes=2, n_baths=2):
            m = dynamics.stationary_covariance(model)
            rho = fock.quasi_free_state(m).density
            j_ps = thermal.fluxes(model, m)
            j_fock = fock.lindblad_model(model).fluxes(rho)
            assert np.max(np.abs(j_ps - j_fock)) < 1e-8

    @pytest.mark.parametrize(
        "build",
        [
            lambda: chain.build(chain.ChainSpec(length=1)),
            lambda: chain.build(chain.ChainSpec(length=2, theta0=0.7, beta0=2.0, betaL=-0.3)),
            lambda: chain.build(chain.ChainSpec(length=20)),
            lambda: make_models(5, 1, n_modes=3, n_baths=4, kind="spectral")[0],
            lambda: make_models(6, 1, n_modes=3, n_baths=3, kind="uniform")[0],
            lambda: make_models(7, 1, n_modes=3, n_baths=3, kind="tr_broken")[0],
        ],
        ids=["chain1", "chain2", "chain20", "spectral", "uniform", "tr_broken"],
    )
    def test_matches_paper_formula(self, build):
        # J_i = (1/2) Tr(kappa_S D_i(M_beta_i - M)), D_i(A) = (1/2){Theta_i Theta_i^*, A}
        model = build()
        ks = model.kappa_s.maj
        for m in (dynamics.stationary_covariance(model), model.gibbs_system_covariance(0.37)):
            paper = []
            for i, b in enumerate(model.baths):
                d = model.dissipation_matrix(i)
                delta = model.gibbs_system_covariance(b.beta).maj - m.maj
                paper.append(0.25 * np.trace(ks @ (d @ delta + delta @ d)).real)
            assert np.max(np.abs(thermal.fluxes(model, m) - paper)) < 1e-13

    def test_bath_permutation_invariance(self, chain2):
        m = dynamics.stationary_covariance(chain2)
        j = thermal.fluxes(chain2, m)
        flipped = ThermalQuasiFreeModel(
            t_s=chain2.t_s, kappa_s=chain2.kappa_s, baths=chain2.baths[::-1]
        )
        j2 = thermal.fluxes(flipped, dynamics.stationary_covariance(flipped))
        assert np.max(np.abs(j - j2[::-1])) < 1e-12


class TestEntropyProduction:
    def test_zero_flux(self):
        assert thermal.entropy_production([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_chain_value(self, chain2):
        j = thermal.fluxes(chain2, dynamics.stationary_covariance(chain2))
        sigma = thermal.entropy_production(j, chain2.betas)
        assert abs(sigma - 0.09242343145200196) < 1e-9
        assert sigma > 0

    def test_stationary_always_nonnegative(self):
        for model in make_models(23, 10):
            j = thermal.fluxes(model, dynamics.stationary_covariance(model))
            assert thermal.entropy_production(j, model.betas) >= -1e-9

    def test_length_mismatch(self):
        with pytest.raises(MalformedInputError):
            thermal.entropy_production([1.0], [1.0, 2.0])


class TestNoFridge:
    def test_equal_temperatures_zero(self):
        ok, witness = thermal.check_no_fridge([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert ok and witness is None

    def test_chain_partial_sums(self, chain2):
        j = thermal.fluxes(chain2, dynamics.stationary_covariance(chain2))
        ok, _ = thermal.check_no_fridge(j, chain2.betas)
        assert ok

    def test_fridge_profile_rejected(self):
        # three baths, energy pumped out of the coldest: partial sums fail
        ok, witness = thermal.check_no_fridge([-1.0, 3.0, -2.0], [0.5, 1.0, 2.0])
        assert not ok and witness is not None

    def test_random_model_sweep(self):
        r = np.random.default_rng(99)
        from fermiflux.randgen import random_thermal_model

        for _ in range(30):
            n_baths = int(r.integers(2, 5))
            model = random_thermal_model(r, n_baths=n_baths)
            j = thermal.fluxes(model, dynamics.stationary_covariance(model))
            ok, _ = thermal.check_no_fridge(j, model.betas)
            assert ok

    def test_tied_temperatures_worst_ordering(self):
        # with a tie, every ordering of the tied block must pass
        ok, _ = thermal.check_no_fridge([-1.0, 1.0], [1.0, 1.0])
        assert not ok


class TestDecomposeFluxes:
    def test_spec_example(self):
        out = thermal.decompose_fluxes([-2.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert abs(out[0, 1] + 1.0) < 1e-12
        assert abs(out[0, 2] + 1.0) < 1e-12
        assert abs(out[1, 2]) < 1e-12

    def test_zero_vector(self):
        out = thermal.decompose_fluxes([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        assert np.max(np.abs(out)) == 0.0

    def test_two_bath_forced(self):
        out = thermal.decompose_fluxes([-0.7, 0.7], [1.0, 2.0])
        assert abs(out[0, 1] + 0.7) < 1e-12

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            thermal.decompose_fluxes([1.0, -1.0], [1.0, 2.0])
        with pytest.raises(InfeasibleError):
            thermal.decompose_fluxes([1.0, 1.0], [1.0, 2.0])

    def test_thousand_random_feasible_vectors(self):
        r = np.random.default_rng(1000)
        for _ in range(1000):
            n = int(r.integers(2, 7))
            beta = np.sort(r.uniform(0.0, 3.0, size=n)) + np.arange(n) * 1e-3
            out_flows = r.uniform(0.0, 1.0, size=(n, n))
            j = np.zeros(n)
            for a in range(n):
                for b in range(a + 1, n):
                    j[a] -= out_flows[a, b]  # hotter a loses to colder b
                    j[b] += out_flows[a, b]
            cert = thermal.decompose_fluxes(j, beta)
            assert np.max(np.abs(cert.sum(axis=1) - j)) < 1e-8
            for a in range(n):
                for b in range(n):
                    if beta[a] > beta[b]:
                        assert cert[a, b] >= -1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=6))
    @settings(max_examples=120, deadline=None)
    def test_random_feasible_recompose(self, seed, n):
        # draw a feasible vector by construction: pairwise hot->cold transfers
        r = np.random.default_rng(seed)
        beta = np.sort(r.uniform(0.0, 3.0, size=n))
        j = np.zeros(n)
        for _ in range(n):
            a, b = sorted(r.integers(0, n, size=2))
            if a == b or beta[a] == beta[b]:
                continue
            amount = r.uniform(0.0, 1.0)
            j[a] -= amount  # hotter (smaller beta) loses energy
            j[b] += amount
        out = thermal.decompose_fluxes(j, beta)
        assert np.max(np.abs(out + out.T)) < 1e-12
        assert np.max(np.abs(out.sum(axis=1) - j)) < 1e-8
        for a in range(n):
            for b in range(n):
                if beta[a] > beta[b]:
                    assert out[a, b] >= -1e-12


class TestModelIO:
    def test_round_trip(self, tmp_path, chain2):
        path = tmp_path / "model.json"
        thermal.save_model(chain2, path)
        back = thermal.load_model(path)
        assert np.max(np.abs(back.t_s.maj - chain2.t_s.maj)) < 1e-15
        assert np.max(np.abs(back.kappa_s.maj - chain2.kappa_s.maj)) < 1e-15
        assert back.n_baths == chain2.n_baths
        for b1, b2 in zip(back.baths, chain2.baths):
            assert b1.beta == b2.beta
            assert np.max(np.abs(b1.theta.maj - b2.theta.maj)) < 1e-15
        assert thermal.model_hash(back) == thermal.model_hash(chain2)

    def test_rounding_residual_serializes(self, tmp_path):
        # a drawn model whose -i T_S has an imaginary part at rounding level (2.5e-12 is
        # seen on drawn spectral models): validate accepts it, so the serializer must too
        model = make_models(31, 1, n_modes=2, n_baths=3)[0]
        s = np.random.default_rng(5).normal(size=(4, 4))
        t_s = ps.PhaseSpaceMatrix(model.t_s.maj + 2.5e-12 * (s + s.T) / np.abs(s + s.T).max())
        noisy = ThermalQuasiFreeModel(t_s=t_s, kappa_s=model.kappa_s, baths=model.baths)
        assert np.max(np.abs((-1j * noisy.t_s.maj).imag)) > 1e-12
        thermal.validate(noisy)
        assert len(thermal.model_hash(noisy)) == 16
        path = tmp_path / "noisy.json"
        thermal.save_model(noisy, path)
        back = thermal.load_model(path)
        thermal.validate(back)
        assert np.max(np.abs(back.t_s.maj - model.t_s.maj)) < 1e-11

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedInputError):
            thermal.load_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"L_S": 2}))
        with pytest.raises(MalformedInputError):
            thermal.load_model(path)

    def test_random_model_round_trip(self, tmp_path):
        model = make_models(31, 1, n_modes=2, n_baths=3)[0]
        path = tmp_path / "m.json"
        thermal.save_model(model, path)
        back = thermal.load_model(path)
        j1 = thermal.fluxes(model, dynamics.stationary_covariance(model))
        j2 = thermal.fluxes(back, dynamics.stationary_covariance(back))
        assert np.max(np.abs(j1 - j2)) < 1e-12
