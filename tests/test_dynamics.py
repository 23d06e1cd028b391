import logging

import numpy as np
import pytest
import scipy.linalg as sla

from fermiflux import chain, dynamics, fock, thermal
from fermiflux import phasespace as ps
from fermiflux.errors import NotErgodicError
from fermiflux.phasespace import Basis, CouplingMatrix, PhaseSpaceMatrix
from fermiflux.randgen import random_thermal_model
from fermiflux.thermal import BathSpec, ThermalQuasiFreeModel

from conftest import make_models


def _decoupled_site_model():
    """Two sites, no hopping, one bath on site 1: site 2 is unreachable."""
    t_s = ps.embed_gauge_invariant(np.diag([0.3, 0.7]))
    kappa_s = ps.embed_gauge_invariant(np.eye(2))
    kappa_b = ps.embed_gauge_invariant(np.eye(1))
    theta = ps.embed_gauge_invariant_coupling(np.array([[1.0], [0.0]]))
    bath = BathSpec(beta=0.6, kappa=kappa_b, theta=theta)
    return ThermalQuasiFreeModel(t_s=t_s, kappa_s=kappa_s, baths=(bath,))


def random_pair(rng, n_modes, n_bath_modes=1):
    """A structurally valid (T_S, Theta) pair without the thermal constraints."""
    r = rng.normal(size=(2 * n_modes, 2 * n_modes))
    t_s = PhaseSpaceMatrix(1j * (r - r.T), Basis.MAJORANA)
    w = rng.normal(size=(2 * n_modes, 2 * n_bath_modes))
    theta = CouplingMatrix(1j * w, Basis.MAJORANA)
    kappa_b = PhaseSpaceMatrix(np.diag([1.0, -1.0]), Basis.CA)
    bath = BathSpec(beta=0.5, kappa=kappa_b, theta=theta)
    kappa_s = PhaseSpaceMatrix(np.zeros((2 * n_modes, 2 * n_modes)), Basis.MAJORANA)
    return ThermalQuasiFreeModel(t_s=t_s, kappa_s=kappa_s, baths=(bath,))


def _with_idle_mode(model, energy):
    """The model plus one mode that no bath reaches (padded in the Majorana basis)."""
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def pad(a, b):
        return sla.block_diag(a, 1j * b * rot)

    baths = tuple(
        BathSpec(
            beta=b.beta,
            kappa=b.kappa,
            theta=CouplingMatrix(np.vstack([b.theta.maj, np.zeros((2, 2 * b.n_modes))])),
        )
        for b in model.baths
    )
    return ThermalQuasiFreeModel(
        t_s=PhaseSpaceMatrix(pad(model.t_s.maj, energy)),
        kappa_s=PhaseSpaceMatrix(pad(model.kappa_s.maj, 1.0)),
        baths=baths,
    )


class TestDrift:
    def test_closed_system_skew_spectrum(self, chain2):
        closed = ThermalQuasiFreeModel(t_s=chain2.t_s, kappa_s=chain2.kappa_s, baths=())
        g = dynamics.drift(closed)
        assert np.max(np.abs(np.linalg.eigvals(g.maj).real)) < 1e-12

    def test_chain_strictly_stable(self, chain2):
        g = dynamics.drift(chain2)
        assert np.linalg.eigvals(g.maj).real.max() < -1e-6

    def test_dissipation_positive(self, chain2):
        for i in range(chain2.n_baths):
            w = np.linalg.eigvalsh(chain2.dissipation_matrix(i))
            assert w.min() > -1e-12

    def test_reconstruction(self, chain2):
        theta = chain2.theta_total()
        expected = -1j * chain2.t_s.maj - 0.5 * theta @ theta.conj().T
        assert np.max(np.abs(dynamics.drift(chain2).maj - expected)) < 1e-12


class TestKalman:
    def test_uncoupled_chain_rank_zero(self):
        spec = chain.ChainSpec(length=2, theta0=0.0, thetaL=0.0)
        rank, full = dynamics.kalman_rank(chain.build(spec))
        assert rank == 0 and not full

    def test_chain_full(self, chain2):
        rank, full = dynamics.kalman_rank(chain2)
        assert full and rank == 2 * chain2.n_modes

    def test_one_sided_chain_still_full(self):
        # hopping spreads a single end bath across the whole chain
        spec = chain.ChainSpec(length=2, theta0=1.0, thetaL=0.0)
        _, full = dynamics.kalman_rank(chain.build(spec))
        assert full

    def test_decoupled_site_deficient(self):
        _, full = dynamics.kalman_rank(_decoupled_site_model())
        assert not full

    def test_dark_combination_in_degenerate_eigenspace(self):
        # two equal-energy sites fed by one bath in phase: the antisymmetric
        # combination is dark, although no single site is unreachable
        t_s = ps.embed_gauge_invariant(np.diag([0.5, 0.5]))
        kappa_s = ps.embed_gauge_invariant(np.eye(2))
        kappa_b = ps.embed_gauge_invariant(np.eye(1))
        theta = ps.embed_gauge_invariant_coupling(np.array([[1.0], [1.0]]))
        bath = BathSpec(beta=0.6, kappa=kappa_b, theta=theta)
        model = ThermalQuasiFreeModel(t_s=t_s, kappa_s=kappa_s, baths=(bath,))
        assert dynamics.kalman_rank(model) == (2, False)
        assert np.linalg.eigvals(dynamics.drift(model).maj).real.max() > -1e-10

    def test_equivalent_to_spectral_stability(self):
        # full Kalman rank iff every drift eigenvalue is strictly damped
        r = np.random.default_rng(5)
        agree = 0
        for _ in range(100):
            model = random_pair(r, int(r.integers(1, 4)))
            _, full = dynamics.kalman_rank(model)
            stable = np.linalg.eigvals(dynamics.drift(model).maj).real.max() < -1e-10
            assert full == stable
            agree += 1
        assert agree == 100

    @pytest.mark.parametrize("kind", ["spectral", "uniform", "tr_broken"])
    def test_pbh_matches_drift_stability(self, kind):
        # PBH ergodicity <=> every drift eigenvalue strictly damped, on drawn
        # thermal models and on the same models with an unreachable mode added
        r = np.random.default_rng(41)
        for _ in range(40):
            n_modes = int(r.integers(1, 7))
            n_baths = int(r.integers(n_modes if kind == "spectral" else 1, 7))
            model = random_thermal_model(r, n_modes=n_modes, n_baths=n_baths, kind=kind, ensure_ergodic=False)
            idle = _with_idle_mode(model, r.uniform(-2.0, 2.0))
            thermal.validate(idle)
            for m in (model, idle):
                _, full = dynamics.kalman_rank(m)
                stable = np.linalg.eigvals(dynamics.drift(m).maj).real.max() < -1e-10
                assert full == stable
            # the unreachable subspace is exactly the added mode
            assert dynamics.kalman_rank(idle) == (2 * n_modes, False)

    def test_pbh_margin_logged(self, chain2, caplog):
        with caplog.at_level(logging.DEBUG, logger="fermiflux.dynamics"):
            dynamics.kalman_rank(chain2)
        words = caplog.records[-1].getMessage().split()
        assert words[:2] == ["PBH", "margin"]
        assert float(words[2]) > 1e3 * float(words[-1]) > 0


class TestEvolve:
    def test_time_zero(self, chain2):
        m0 = chain2.gibbs_system_covariance(0.4)
        assert np.max(np.abs(dynamics.evolve(m0, chain2, 0.0).maj - m0.maj)) < 1e-12

    def test_gibbs_stationary_single_bath(self):
        model = make_models(11, 1, n_modes=2, n_baths=1, kind="uniform")[0]
        beta = model.baths[0].beta
        m0 = model.gibbs_system_covariance(beta)
        for t in (0.3, 2.0):
            mt = dynamics.evolve(m0, model, t)
            assert np.max(np.abs(mt.maj - m0.maj)) < 1e-10

    def test_semigroup_property(self, chain2):
        m0 = chain2.gibbs_system_covariance(-0.2)
        one = dynamics.evolve(dynamics.evolve(m0, chain2, 0.7), chain2, 0.9)
        two = dynamics.evolve(m0, chain2, 1.6)
        assert np.max(np.abs(one.maj - two.maj)) < 1e-9

    def test_long_time_reaches_stationary(self, chain2):
        m0 = PhaseSpaceMatrix(0.5 * np.eye(2 * chain2.n_modes), Basis.MAJORANA)
        m_inf = dynamics.stationary_covariance(chain2)
        mt = dynamics.evolve(m0, chain2, 50.0)
        assert np.max(np.abs(mt.maj - m_inf.maj)) < 1e-8

    def test_covariance_invariants_preserved(self, chain2, rng):
        m0 = chain2.gibbs_system_covariance(1.1)
        for t in (0.1, 1.0, 10.0):
            ps.validate_covariance(dynamics.evolve(m0, chain2, t))

    def test_monotone_relaxation_rate(self, chain2):
        # asymptotic decay at least twice the spectral gap of the drift
        mu = -np.linalg.eigvals(dynamics.drift(chain2).maj).real.max()
        m_inf = dynamics.stationary_covariance(chain2).maj
        m0 = chain2.gibbs_system_covariance(3.0)
        t1, t2 = 6.0, 12.0
        d1 = np.linalg.norm(dynamics.evolve(m0, chain2, t1).maj - m_inf)
        d2 = np.linalg.norm(dynamics.evolve(m0, chain2, t2).maj - m_inf)
        rate = -np.log(d2 / d1) / (t2 - t1)
        assert rate >= 2 * mu - 0.05


class TestStationary:
    def test_equal_temperatures_gibbs(self):
        beta = 0.8
        spec = chain.ChainSpec(length=3, beta0=beta, betaL=beta)
        model = chain.build(spec)
        m = dynamics.stationary_covariance(model)
        expected = model.gibbs_system_covariance(beta)
        assert np.max(np.abs(m.maj - expected.maj)) < 1e-10

    def test_chain_values(self, chain2):
        m = dynamics.stationary_covariance(chain2)
        cf = chain.closed_form(chain.ChainSpec(length=2, beta0=1.0, betaL=0.0))
        small = m.ca[:2, :2]
        assert abs(small[0, 0].real - cf.p0) < 1e-10
        assert abs(small[1, 1].real - cf.pL) < 1e-10
        assert abs(abs(small[0, 1].imag) - cf.j) < 1e-10

    def test_residual_small(self, chain2):
        m = dynamics.stationary_covariance(chain2)
        g = dynamics.drift(chain2).maj
        resid = g @ m.maj + m.maj @ g.conj().T + chain2.noise_total()
        assert np.linalg.norm(resid, 2) < 1e-10

    def test_matches_fock_oracle(self):
        for model in make_models(13, 2, n_modes=2, n_baths=2):
            gen = fock.build_lindbladian(model)
            _, rho_inf, _ = fock.dominant_eigenvalue(gen)
            m = dynamics.stationary_covariance(model)
            assert np.max(np.abs(fock.covariance_of(rho_inf).maj - m.maj)) < 1e-8

    def test_refuses_non_ergodic(self):
        spec = chain.ChainSpec(length=2, theta0=0.0, thetaL=0.0)
        with pytest.raises(NotErgodicError):
            dynamics.stationary_covariance(chain.build(spec))
