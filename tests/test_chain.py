import numpy as np
import pytest
from scipy.special import expit

from fermiflux import chain, dynamics, thermal


def particle_block(spec):
    """The L x L CA block of the chain's stationary covariance."""
    return dynamics.stationary_covariance(chain.build(spec)).ca[: spec.length, : spec.length]


class TestBuild:
    def test_passes_validation(self, chain2):
        assert max(thermal.validate(chain2).values()) < 1e-12

    def test_gauge_invariant_blocks(self, chain2):
        # all model data is block diagonal in the creation/annihilation basis
        n = chain2.n_modes
        for mat in (chain2.t_s.ca, chain2.kappa_s.ca):
            assert np.max(np.abs(mat[:n, n:])) < 1e-12
            assert np.max(np.abs(mat[n:, :n])) < 1e-12

    def test_uncoupled_not_ergodic(self):
        spec = chain.ChainSpec(length=3, theta0=0.0, thetaL=0.0)
        rank, full = dynamics.kalman_rank(chain.build(spec))
        assert rank == 0 and not full

    def test_default_coupling_ergodic(self):
        for length in (2, 5):
            _, full = dynamics.kalman_rank(chain.build(chain.ChainSpec(length=length)))
            assert full


class TestSmallStationary:
    def test_equilibrium(self):
        beta = 1.3
        spec = chain.ChainSpec(length=4, beta0=beta, betaL=beta)
        m = particle_block(spec)
        expected = expit(beta) * np.eye(4)
        assert np.max(np.abs(m - expected)) < 1e-12

    def test_tridiagonal_structure(self, chain2_spec):
        spec = chain.ChainSpec(length=5, beta0=1.0, betaL=0.0)
        m = particle_block(spec)
        for i in range(5):
            for j in range(5):
                if abs(i - j) > 1:
                    assert abs(m[i, j]) < 1e-12
        assert np.max(np.abs(np.diag(m).imag)) < 1e-13
        off = np.diag(m, 1)
        assert np.max(np.abs(off.real)) < 1e-12

    def test_closed_form_values(self):
        cf = chain.closed_form(chain.ChainSpec(length=2, beta0=1.0, betaL=0.0))
        assert abs(cf.p0 - 0.6386351471780033) < 1e-12
        assert abs(cf.p_mid - 0.6155292893150024) < 1e-12
        assert abs(cf.pL - 0.5924234314520019) < 1e-12
        assert abs(cf.j - 0.04621171572600098) < 1e-12
        assert abs(cf.flux - 0.09242343145200196) < 1e-12

    @pytest.mark.parametrize("length", range(2, 11))
    def test_closed_form_vs_lyapunov(self, length):
        spec = chain.ChainSpec(length=length, beta0=1.0, betaL=0.0)
        m = particle_block(spec)
        cf = chain.closed_form(spec)
        assert abs(m[0, 0].real - cf.p0) < 1e-10
        assert abs(m[-1, -1].real - cf.pL) < 1e-10
        for k in range(1, length - 1):
            assert abs(m[k, k].real - cf.p_mid) < 1e-10
        for k in range(length - 1):
            assert abs(abs(m[k, k + 1].imag) - cf.j) < 1e-10

    def test_general_couplings_numeric_vs_closed(self):
        spec = chain.ChainSpec(length=3, theta0=0.8, thetaL=0.8, beta0=1.4, betaL=0.2)
        m = particle_block(spec)
        cf = chain.closed_form(spec)
        assert abs(m[0, 0].real - cf.p0) < 1e-10
        assert abs(abs(m[0, 1].imag) - cf.j) < 1e-10

    def test_unequal_couplings_known_discrepancy(self):
        # the published end-site formulas swap the couplings in their cross
        # terms, which shows only for unequal couplings; the corrected ones agree
        spec = chain.ChainSpec(length=4, theta0=1.0, thetaL=0.5, beta0=1.2, betaL=0.1)
        m = particle_block(spec)
        cf = chain.closed_form(spec)
        assert abs(m[1, 1].real - cf.p_mid) < 1e-10
        assert abs(abs(m[0, 1].imag) - cf.j) < 1e-10
        assert abs(2 * abs(m[0, 1].imag) - cf.flux) < 1e-10
        assert abs(m[0, 0].real - cf.p0) < 1e-10
        assert abs(m[-1, -1].real - cf.pL) < 1e-10

    def test_closed_form_on_drawn_chains(self):
        # unequal couplings and temperatures of both signs: the diagonal and the
        # first off-diagonal of the particle block against the closed form
        r = np.random.default_rng(23)
        for length in range(2, 12):
            for _ in range(4):
                theta0, theta_l = r.uniform(0.2, 3.0, 2)
                beta0, beta_l = r.uniform(-2.0, 2.0, 2)
                spec = chain.ChainSpec(length, theta0, theta_l, beta0, beta_l)
                m = particle_block(spec)
                cf = chain.closed_form(spec)
                diag = [cf.p0] + [cf.p_mid] * (length - 2) + [cf.pL]
                assert np.max(np.abs(np.diag(m) - diag)) < 1e-12
                assert np.max(np.abs(np.abs(np.diag(m, 1)) - abs(cf.j))) < 1e-12


class TestFlux:
    @pytest.mark.parametrize("length", range(2, 11))
    def test_length_independence(self, length):
        spec = chain.ChainSpec(length=length, beta0=1.0, betaL=0.0)
        model = chain.build(spec)
        j = thermal.fluxes(model, dynamics.stationary_covariance(model))
        assert abs(j[0] - 0.09242343145200196) < 1e-10
        assert abs(j.sum()) < 1e-12

    def test_flux_equals_twice_current(self):
        r = np.random.default_rng(6)
        for _ in range(5):
            spec = chain.ChainSpec(
                length=3,
                theta0=r.uniform(0.4, 1.4),
                thetaL=r.uniform(0.4, 1.4),
                beta0=r.uniform(0.0, 2.0),
                betaL=r.uniform(0.0, 2.0),
            )
            model = chain.build(spec)
            cov = dynamics.stationary_covariance(model)
            j = thermal.fluxes(model, cov)
            assert abs(j[0] - 2.0 * abs(cov.ca[0, 1].imag) * np.sign(j[0])) < 1e-10

    def test_long_drawn_chains(self):
        # every chain is ergodic, however long; end couplings and
        # temperatures drawn from the flux benchmark's ranges
        r = np.random.default_rng(17)
        for length in range(17, 51):
            spec = chain.ChainSpec(
                length=length,
                theta0=r.uniform(0.5, 1.5),
                thetaL=r.uniform(0.5, 1.5),
                beta0=r.uniform(0.0, 2.0),
                betaL=r.uniform(-0.5, 0.5),
            )
            model = chain.build(spec)
            rank, full = dynamics.kalman_rank(model)
            assert full and rank == 2 * length
            cov = dynamics.stationary_covariance(model)
            g, m = dynamics.drift(model).maj, cov.maj
            resid = np.linalg.norm(g @ m + m @ g.conj().T + model.noise_total(), 2)
            assert resid <= dynamics.LYAPUNOV_TOL
            j = thermal.fluxes(model, cov)
            assert abs(j[0] - chain.closed_form(spec).flux) < 1e-10

    def test_equilibrium_zero(self):
        cf = chain.closed_form(chain.ChainSpec(length=2, beta0=0.7, betaL=0.7))
        assert cf.j == 0.0 and cf.flux == 0.0


class TestGaugePreservation:
    def test_evolution_keeps_blocks(self, chain2):
        m0 = chain2.gibbs_system_covariance(0.5)
        n = chain2.n_modes
        for t in (0.5, 3.0, 20.0):
            mt = dynamics.evolve(m0, chain2, t).ca
            assert np.max(np.abs(mt[:n, n:])) < 1e-10
            assert np.max(np.abs(mt[n:, :n])) < 1e-10
