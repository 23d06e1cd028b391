from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fermiflux import chain
from fermiflux import phasespace as ps
from fermiflux.errors import MalformedInputError, ValidationError
from fermiflux.phasespace import Basis, CouplingMatrix, PhaseSpaceMatrix


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_generator(rng, n_modes):
    r = rng.normal(size=(2 * n_modes, 2 * n_modes))
    return PhaseSpaceMatrix(1j * (r - r.T), Basis.MAJORANA)


class TestBasisConvert:
    def test_identity_fixed(self):
        m = PhaseSpaceMatrix(np.eye(4), Basis.MAJORANA)
        assert np.allclose(m.ca, np.eye(4), atol=1e-14)

    def test_block_formula_example(self):
        # one mode: Majorana i[[0,1],[-1,0]] is the number generator diag(1,-1)
        m = PhaseSpaceMatrix(1j * np.array([[0.0, 1.0], [-1.0, 0.0]]), Basis.MAJORANA)
        assert np.allclose(m.ca, np.diag([1.0, -1.0]), atol=1e-12)

    def test_round_trip(self, rng):
        m = PhaseSpaceMatrix(random_matrix(rng, 6), Basis.MAJORANA)
        back = PhaseSpaceMatrix(m.ca, Basis.CA)
        assert np.max(np.abs(back.maj - m.maj)) < 1e-12

    def test_spectrum_preserved(self, rng):
        m = PhaseSpaceMatrix(random_matrix(rng, 8), Basis.MAJORANA)
        w1 = np.sort_complex(np.linalg.eigvals(m.maj))
        w2 = np.sort_complex(np.linalg.eigvals(m.ca))
        assert np.max(np.abs(w1 - w2)) < 1e-10

    def test_odd_dimension_rejected(self):
        with pytest.raises(MalformedInputError):
            PhaseSpaceMatrix(np.eye(3), Basis.MAJORANA)

    def test_conversions_computed_once(self, rng):
        p, p_inv = ps.ca_change_matrix(3), ps.ca_change_inverse(3)
        assert p is ps.ca_change_matrix(3) and not p.flags.writeable and not p_inv.flags.writeable
        m = PhaseSpaceMatrix(random_matrix(rng, 6), Basis.MAJORANA)
        assert m.ca is m.ca and not m.ca.flags.writeable
        assert np.array_equal(m.ca, p @ m.data @ p_inv)
        with pytest.raises(FrozenInstanceError):
            m.ca = np.eye(6)
        x = random_matrix(rng, 6)[:, :2]
        theta = CouplingMatrix(x, Basis.CA)
        assert theta.maj is theta.data and theta.ca is theta.ca and not theta.ca.flags.writeable
        assert np.array_equal(theta.maj, p_inv @ x @ ps.ca_change_matrix(1))

    def test_ca_input_stored_as_majorana(self):
        # a CA-built chain stores the Majorana bytes of a Majorana-built copy, and the Gibbs
        # covariance of its kappa_S is the eigh/expit result, with no trip through CA
        model = chain.build(chain.ChainSpec(length=5, theta0=0.7, thetaL=1.3))
        p, p_inv, z = ps.ca_change_matrix(5), ps.ca_change_inverse(5), np.zeros((5, 5))
        for small, ca_built in ((chain.hopping_matrix(5), model.t_s), (np.eye(5), model.kappa_s)):
            maj_built = PhaseSpaceMatrix(p_inv @ np.block([[small, z], [z, -small]]) @ p, Basis.MAJORANA)
            assert np.array_equal(ca_built.maj, maj_built.maj)
        for kappa in (model.kappa_s, model.t_s):
            w, v = np.linalg.eigh(0.5 * (kappa.maj + kappa.maj.conj().T))
            assert np.array_equal(ps.gibbs_covariance(kappa, 0.8).maj, (v * expit(0.8 * w)) @ v.conj().T)


class TestXiTranspose:
    def test_majorana_symmetric_fixed(self, rng):
        a = rng.normal(size=(4, 4))
        m = PhaseSpaceMatrix(a + a.T, Basis.MAJORANA)
        assert np.allclose(ps.xi_transpose(m).data, m.data)

    def test_ca_block_rule(self, rng):
        blocks = [[random_matrix(rng, 2), random_matrix(rng, 2)],
                  [random_matrix(rng, 2), random_matrix(rng, 2)]]
        m = PhaseSpaceMatrix(np.block(blocks), Basis.CA)
        expected = np.block(
            [[blocks[1][1].T, blocks[0][1].T], [blocks[1][0].T, blocks[0][0].T]]
        )
        assert np.max(np.abs(ps.xi_transpose(m).ca - expected)) < 1e-12

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, n_modes, seed):
        r = np.random.default_rng(seed)
        m = PhaseSpaceMatrix(random_matrix(r, 2 * n_modes), Basis.MAJORANA)
        twice = ps.xi_transpose(ps.xi_transpose(m))
        assert np.max(np.abs(twice.data - m.data)) < 1e-12


class TestGibbsCovariance:
    def test_infinite_temperature(self, rng):
        kappa = random_generator(rng, 2)
        m = ps.gibbs_covariance(kappa, 0.0)
        assert np.allclose(m.maj, 0.5 * np.eye(4), atol=1e-12)

    def test_scalar_value(self):
        # eigenvalue +1 at beta = 1 maps to the logistic value
        kappa = PhaseSpaceMatrix(np.diag([1.0, -1.0]), Basis.CA)
        m = ps.gibbs_covariance(kappa, 1.0)
        w = np.sort(np.linalg.eigvalsh(m.maj))
        assert abs(w[-1] - 0.7310585786300049) < 1e-12

    def test_zero_temperature_limit(self):
        kappa = PhaseSpaceMatrix(np.diag([1.0, -1.0]), Basis.CA)
        m = ps.gibbs_covariance(kappa, 1e6)
        assert np.allclose(m.ca, np.diag([1.0, 0.0]), atol=1e-12)

    def test_valid_covariance_and_commutes(self, rng):
        for beta in (-0.7, 0.0, 1.3, 40.0):
            kappa = random_generator(rng, 3)
            m = ps.gibbs_covariance(kappa, beta)
            ps.validate_covariance(m)
            comm = m.maj @ kappa.maj - kappa.maj @ m.maj
            assert np.max(np.abs(comm)) < 1e-10

    def test_transpose_is_negative_beta(self, rng):
        kappa = random_generator(rng, 2)
        m = ps.gibbs_covariance(kappa, 0.8)
        m_neg = ps.gibbs_covariance(kappa, -0.8)
        assert np.max(np.abs(ps.xi_transpose(m).maj - m_neg.maj)) < 1e-10
        assert np.max(np.abs(m_neg.maj - (np.eye(4) - m.maj))) < 1e-10


class TestValidation:
    def test_generator_structure(self, rng):
        t = random_generator(rng, 2)
        ps.validate_generator(t)
        res = ps.generator_residuals(t)
        assert max(res.values()) < 1e-12

    def test_generator_violation_raises(self, rng):
        bad = PhaseSpaceMatrix(random_matrix(rng, 4), Basis.MAJORANA)
        with pytest.raises(ValidationError):
            ps.validate_generator(bad)

    def test_coupling_structure(self, rng):
        w = rng.normal(size=(4, 2))
        theta = CouplingMatrix(1j * w, Basis.MAJORANA)
        ps.validate_coupling(theta)
        with pytest.raises(ValidationError):
            ps.validate_coupling(CouplingMatrix(w + 0j, Basis.MAJORANA))

    def test_gauge_invariant_embeddings(self, rng):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = h + h.conj().T
        ps.validate_generator(ps.embed_gauge_invariant(h))
        col = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
        ps.validate_coupling(ps.embed_gauge_invariant_coupling(col))
