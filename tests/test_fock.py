import logging

import numpy as np
import pytest
import scipy.linalg as sla

from fermiflux import chain, dynamics, fock, randgen, thermal
from fermiflux import phasespace as ps
from fermiflux import superop as so
from fermiflux.errors import MalformedInputError, ResourceLimitError
from fermiflux.phasespace import Basis, PhaseSpaceMatrix

from conftest import kernel_map, make_models


class TestMajoranaMatrices:
    def test_one_mode_values(self):
        g1, g2 = fock.majorana_matrices(1)
        assert np.array_equal(g1, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(g2, np.array([[0, -1j], [1j, 0]]))

    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_car_exact(self, n_modes):
        gams = fock.majorana_matrices(n_modes)
        eye = np.eye(2**n_modes)
        for i, gi in enumerate(gams):
            for j, gj in enumerate(gams):
                anti = gi @ gj + gj @ gi
                expected = 2.0 * eye if i == j else 0.0 * eye
                # CAR holds exactly: entries of the JW matrices are in {0, +-1, +-i}
                assert np.array_equal(anti, expected)

    def test_self_adjoint(self):
        for g in fock.majorana_matrices(3):
            assert np.array_equal(g, g.conj().T)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            fock.majorana_matrices(7)


class TestQuadraticOperator:
    def test_zero(self):
        t = PhaseSpaceMatrix(np.zeros((4, 4)), Basis.MAJORANA)
        assert np.allclose(fock.quadratic_operator(t), 0.0)

    def test_number_generator(self):
        kappa = PhaseSpaceMatrix(np.diag([1.0, -1.0]), Basis.CA)
        c = fock.annihilation_operators(1)[0]
        q = fock.quadratic_operator(kappa)
        assert np.max(np.abs(q - (c.conj().T @ c - 0.5 * np.eye(2)))) < 1e-14

    def test_self_adjoint(self, rng):
        r = rng.normal(size=(6, 6))
        t = PhaseSpaceMatrix(1j * (r - r.T), Basis.MAJORANA)
        q = fock.quadratic_operator(t)
        assert np.max(np.abs(q - q.conj().T)) < 1e-12

    def test_conjugation_formula(self, rng):
        # Gamma(e^X) gamma_l Gamma(e^X)^{-1} = phi(e^X f_l) for X = iT
        r = rng.normal(size=(4, 4))
        t = PhaseSpaceMatrix(1j * (r - r.T), Basis.MAJORANA)
        x = PhaseSpaceMatrix(1j * t.maj, Basis.MAJORANA)
        big = fock.gaussian_conjugator(x)
        m = sla.expm(x.maj)
        gams = fock.majorana_matrices(2)
        inv = np.linalg.inv(big)
        for l in range(4):
            lhs = sum(m[k, l] * gams[k] for k in range(4))
            rhs = big @ gams[l] @ inv
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestQuasiFreeStates:
    def test_maximally_mixed(self):
        m = PhaseSpaceMatrix(0.5 * np.eye(4), Basis.MAJORANA)
        st = fock.quasi_free_state(m)
        assert np.allclose(st.density, np.eye(4) / 4.0, atol=1e-12)

    def test_gibbs_consistency(self, rng):
        r = rng.normal(size=(4, 4))
        kappa = PhaseSpaceMatrix(1j * (r - r.T), Basis.MAJORANA)
        beta = 0.9
        st = fock.quasi_free_state(ps.gibbs_covariance(kappa, beta))
        direct = sla.expm(-beta * fock.quadratic_operator(kappa))
        direct /= np.trace(direct)
        assert np.max(np.abs(st.density - direct)) < 1e-10

    def test_covariance_round_trip(self, rng):
        for _ in range(5):
            r = rng.normal(size=(6, 6))
            kappa = PhaseSpaceMatrix(1j * (r - r.T), Basis.MAJORANA)
            m = ps.gibbs_covariance(kappa, rng.uniform(-1, 1))
            st = fock.quasi_free_state(m)
            got = fock.covariance_of(st.density)
            assert np.max(np.abs(got.maj - m.maj)) < 1e-13

    def test_pure_vacuum_exact(self):
        # spectrum {0, 1}: the normal-mode product takes the pure mode as it is
        m = PhaseSpaceMatrix(np.diag([1.0, 0.0]), Basis.CA)
        st = fock.quasi_free_state(m)
        vac = np.diag([1.0, 0.0]).astype(complex)
        assert np.max(np.abs(st.density - vac)) < 1e-14

    @pytest.mark.parametrize("beta_w", [20.0, 30.0, 40.0, 60.0])
    def test_exact_at_large_beta_w(self, rng, beta_w):
        # the largest |beta w| of the Gibbs covariance is beta_w, far past where a logit of m saturates
        r = rng.normal(size=(6, 6))
        kappa = 1j * (r - r.T)
        kappa = PhaseSpaceMatrix(kappa * beta_w / np.abs(np.linalg.eigvalsh(kappa)).max(), Basis.MAJORANA)
        st = fock.quasi_free_state(ps.gibbs_covariance(kappa, 1.0))
        direct = sla.expm(-fock.quadratic_operator(kappa))
        direct /= np.trace(direct)
        assert np.max(np.abs(st.density - direct)) < 1e-13


class TestCovarianceOf:
    def test_maximally_mixed(self):
        rho = np.eye(8) / 8.0
        assert np.allclose(fock.covariance_of(rho).maj, 0.5 * np.eye(6), atol=1e-12)

    def test_vacuum(self):
        vac = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(fock.covariance_of(vac).ca, np.diag([1.0, 0.0]), atol=1e-12)

    def test_transpose_identity(self, rng):
        # M^T = 1 - M holds for any state by the anticommutation relations
        rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = rho @ rho.conj().T
        rho /= np.trace(rho)
        m = fock.covariance_of(rho)
        assert np.max(np.abs(ps.xi_transpose(m).maj - (np.eye(6) - m.maj))) < 1e-12

    def test_non_state_rejected(self):
        with pytest.raises(MalformedInputError):
            fock.covariance_of(2.0 * np.eye(4))


class TestWick:
    def test_maximally_mixed_distinct(self):
        st = fock.quasi_free_state(PhaseSpaceMatrix(0.5 * np.eye(8), Basis.MAJORANA))
        lhs, rhs = fock.wick_check(st, (0, 1, 2, 3))
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    def test_repeated_indices(self):
        st = fock.quasi_free_state(PhaseSpaceMatrix(0.5 * np.eye(8), Basis.MAJORANA))
        lhs, rhs = fock.wick_check(st, (0, 0, 1, 1))
        assert abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12

    def test_random_gibbs_all_indices(self, rng):
        r = rng.normal(size=(6, 6))
        kappa = PhaseSpaceMatrix(1j * (r - r.T), Basis.MAJORANA)
        st = fock.quasi_free_state(ps.gibbs_covariance(kappa, 0.63))
        worst = 0.0
        for _ in range(40):
            idx = tuple(rng.integers(0, 6, size=4))
            lhs, rhs = fock.wick_check(st, idx)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10


class TestLindbladian:
    def test_closed_system_spectrum_imaginary(self, chain2):
        closed = thermal.ThermalQuasiFreeModel(t_s=chain2.t_s, kappa_s=chain2.kappa_s, baths=())
        gen = fock.build_lindbladian(closed)
        w = np.linalg.eigvals(gen)
        assert np.max(np.abs(w.real)) < 1e-12

    def test_trace_preservation(self, chain2):
        gen = fock.build_lindbladian(chain2)
        dim = 2**chain2.n_modes
        assert np.linalg.norm(so.vec(np.eye(dim)).conj() @ gen) < 1e-10

    def test_zero_mode_simple_rest_damped(self, chain2):
        gen = fock.build_lindbladian(chain2)
        w = np.sort(np.linalg.eigvals(gen).real)[::-1]
        assert abs(w[0]) < 1e-10
        assert w[1] < -1e-10

    def test_stationary_matches_lyapunov(self, chain2):
        gen = fock.build_lindbladian(chain2)
        _, rho_inf, _ = fock.dominant_eigenvalue(gen)
        m = dynamics.stationary_covariance(chain2)
        assert np.max(np.abs(fock.covariance_of(rho_inf).maj - m.maj)) < 1e-8

    def test_covariance_equation_of_motion(self, chain2):
        # the covariance of exp(tL^*) rho follows the drift + noise linear law
        m0 = chain2.gibbs_system_covariance(0.37)
        rho = fock.quasi_free_state(m0).density
        gen = fock.build_lindbladian(chain2)
        t = 0.31
        rho_t = so.apply_super(sla.expm(t * gen), rho)
        m_t = dynamics.evolve(m0, chain2, t)
        assert np.max(np.abs(fock.covariance_of(rho_t).maj - m_t.maj)) < 1e-9


def _kernel_route_deformed(model, alpha):
    """-i[H, .] + adjoint(kernel_map(tilted K)) - (1/2){Phi(1), .}, term by term from the kernels."""
    gammas = fock.majorana_matrices(model.n_modes)
    dim = 2**model.n_modes
    tilted = np.zeros((2 * model.n_modes, 2 * model.n_modes), dtype=complex)
    for i, a in enumerate(alpha):
        w, n, t = model.bath_modes(i)
        tilted += (t * (n * np.exp(a * w))) @ t.conj().T
    phi_one = so.unvec(kernel_map(model.noise_total(), gammas) @ so.vec(np.eye(dim)))
    h = fock.system_hamiltonian(model)
    return (
        -1j * (so.left_mul(h) - so.right_mul(h))
        + so.adjoint_super(kernel_map(tilted, gammas))
        - 0.5 * so.anticommutator_super(phi_one)
    )


def _kernel_route_models():
    return [
        chain.build(chain.ChainSpec(length=2, beta0=1.0, betaL=0.0)),
        make_models(3, 1, n_modes=2, n_baths=3, kind="spectral")[0],
        make_models(4, 1, n_modes=3, n_baths=2, kind="uniform")[0],
        make_models(5, 1, n_modes=2, n_baths=3, kind="tr_broken")[0],
    ]


class TestJumpOperators:
    @pytest.mark.parametrize("idx", range(4), ids=["chain2", "spectral", "uniform", "tr_broken"])
    def test_kraus_rebuild_jump_kernel(self, idx):
        model = _kernel_route_models()[idx]
        gammas = fock.majorana_matrices(model.n_modes)
        for i in range(model.n_baths):
            w, ks = fock.jump_operators(model, i)
            assert ks.shape == (2 * model.baths[i].n_modes,) + gammas[0].shape
            assert np.array_equal(w, model.bath_modes(i)[0])
            heis = so.kraus_map(ks.conj().transpose(0, 2, 1))
            assert np.max(np.abs(heis - kernel_map(model.jump_kernel(i), gammas))) < 1e-12

    @pytest.mark.parametrize("idx", range(4), ids=["chain2", "spectral", "uniform", "tr_broken"])
    def test_deformed_matches_kernel_route(self, idx):
        model = _kernel_route_models()[idx]
        rng = np.random.default_rng(100 + idx)
        for alpha in (np.zeros(model.n_baths), rng.uniform(-1.0, 1.0, size=model.n_baths)):
            err = np.max(np.abs(fock.build_deformed(model, alpha) - _kernel_route_deformed(model, alpha)))
            assert err < 1e-12


class TestLindbladModel:
    @pytest.mark.parametrize("idx", [0, 1, 3], ids=["chain2", "spectral", "tr_broken"])
    def test_no_jump_plus_jumps_is_generator(self, idx):
        # the sampler's no-jump evolution G rho + rho G^dagger and its jumps add up to the Lindbladian
        lm = fock.lindblad_model(_kernel_route_models()[idx])
        g = lm.no_jump()
        rebuilt = so.left_mul(g) + so.right_mul(g.conj().T) + sum(so.kraus_map(ks) for ks in lm.kraus)
        assert np.max(np.abs(lm.generator() - rebuilt)) < 1e-12

    @pytest.mark.parametrize("idx", [1, 3], ids=["spectral", "tr_broken"])
    def test_deformed_at_zero_is_lindbladian(self, idx):
        # chain2 is TestDeformed.test_zero_alpha_exact
        model = _kernel_route_models()[idx]
        assert np.array_equal(fock.build_deformed(model, np.zeros(model.n_baths)), fock.build_lindbladian(model))


class TestDeformed:
    def test_zero_alpha_exact(self, chain2):
        gen = fock.build_lindbladian(chain2)
        deformed = fock.build_deformed(chain2, [0.0, 0.0])
        assert np.array_equal(gen, deformed)

    def test_minus_beta_zero_mode(self, chain2):
        # the fluctuation-theorem partner of alpha = 0 also has eigenvalue 0
        lam, _, _ = fock.dominant_eigenvalue(fock.build_deformed(chain2, -chain2.betas))
        assert abs(lam) < 1e-9

    def test_dominant_eigenvalue_real_simple(self, chain2):
        lam, _, gap = fock.dominant_eigenvalue(fock.build_deformed(chain2, [0.3, 0.0]))
        assert abs(lam.imag) < 1e-10
        assert gap > 1e-10

    def test_matches_spectral_reduction(self, chain2):
        from fermiflux import deviations

        lam, _, _ = fock.dominant_eigenvalue(fock.build_deformed(chain2, [0.3, 0.0]))
        assert abs(lam.real - deviations.e_alpha(chain2, [0.3, 0.0])) < 1e-8

    @pytest.mark.parametrize("alpha", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0], [0.3]])
    def test_malformed_alpha_refused(self, chain2, alpha):
        with pytest.raises(MalformedInputError):
            fock.build_deformed(chain2, alpha)

    def test_matches_e_alpha_on_pairing_models(self):
        # the tilt acts on the bath quantum, so Fock keeps up with the blocks at large alpha
        from fermiflux import deviations

        models = make_models(0, 2, n_modes=2, n_baths=3, kind="spectral")
        models += make_models(1, 2, n_modes=3, n_baths=4, kind="spectral")
        models += make_models(1, 1, n_modes=3, n_baths=3, kind="spectral")  # e identically 0
        for model in models:
            alpha = np.zeros(model.n_baths)
            alpha[0] = 6.0
            lam, _, _ = fock.dominant_eigenvalue(fock.build_deformed(model, alpha))
            e = deviations.e_alpha(model, alpha)
            assert abs(lam.real - e) < 1e-10 * max(1.0, abs(e))


def _full_space_dominant(gen):
    """The reference: dense eig of the whole d^2 x d^2 generator, both parity sectors at once."""
    w, v = np.linalg.eig(gen)
    lead = np.argmax(w.real)
    return w[lead], so.density_of(v[:, lead])


def _sector_models():
    models = {
        f"chain{n}-{b0:g},{bl:g}": chain.build(chain.ChainSpec(length=n, beta0=b0, betaL=bl))
        for n in range(1, 5)
        for b0, bl in ((1.0, 0.0), (40.0, 40.0), (-30.0, 30.0))
    }
    for kind, seed in (("uniform", 4), ("spectral", 3), ("tr_broken", 5)):
        for n in (2, 3, 4):
            models[f"{kind}{n}"] = make_models(seed + 10 * n, 1, n_modes=n, n_baths=max(n, 3), kind=kind)[0]
    return models


SECTOR_MODELS = _sector_models()


def _sector_alphas(model):
    """alpha = 0, a draw with |alpha_i| <= 0.5 and the fluctuation-theorem partner -beta."""
    rng = np.random.default_rng(model.n_modes)
    return [np.zeros(model.n_baths), rng.uniform(-0.5, 0.5, model.n_baths), -np.asarray(model.betas)]


class TestEvenSector:
    @pytest.mark.parametrize("name", SECTOR_MODELS)
    def test_matches_full_space_solve(self, name):
        model = SECTOR_MODELS[name]
        w_max = np.abs(np.linalg.eigvalsh(model.kappa_s.maj)).max()
        for alpha in _sector_alphas(model):
            if np.abs(alpha).max() * w_max > 30.0:
                continue  # past the Fock oracle's alpha range (ROADMAP standing note): the two solves differ by ~1e-8
            gen = fock.build_deformed(model, alpha)
            lam, rho, _ = fock.dominant_eigenvalue(gen)
            lam_full, rho_full = _full_space_dominant(gen)
            assert abs(lam - lam_full) <= 1e-12, alpha
            assert np.max(np.abs(rho - rho_full)) <= 1e-12, alpha

    @pytest.mark.parametrize("name", SECTOR_MODELS)
    def test_off_sector_blocks_exactly_zero(self, name):
        model = SECTOR_MODELS[name]
        even, odd = fock._parity_sectors(model.n_modes)
        gens = [fock.build_lindbladian(model)] + [fock.build_deformed(model, a) for a in _sector_alphas(model)]
        for gen in gens:
            assert not gen[np.ix_(even, odd)].any()
            assert not gen[np.ix_(odd, even)].any()

    @pytest.mark.parametrize("name", SECTOR_MODELS)
    def test_odd_sector_lies_below(self, name):
        model = SECTOR_MODELS[name]
        _, odd = fock._parity_sectors(model.n_modes)
        for alpha in _sector_alphas(model):
            gen = fock.build_deformed(model, alpha)
            lam, _, _ = fock.dominant_eigenvalue(gen)
            assert np.linalg.eigvals(gen[np.ix_(odd, odd)]).real.max() < lam.real, alpha

    def test_sectors_split_by_parity(self):
        even, odd = fock._parity_sectors(2)
        # basis states 0, 3 are even and 1, 2 odd; vec position a * 4 + b
        assert even.tolist() == [0, 3, 5, 6, 9, 10, 12, 15]
        assert sorted(even.tolist() + odd.tolist()) == list(range(16))

    @pytest.mark.parametrize("block", ["even-odd", "odd-even"])
    def test_coupled_sectors_refused(self, chain2, block):
        gen = fock.build_lindbladian(chain2)
        even, odd = fock._parity_sectors(chain2.n_modes)
        row, col = (even[3], odd[5]) if block == "even-odd" else (odd[5], even[3])
        gen[row, col] = 1e-300
        with pytest.raises(MalformedInputError, match="parity sectors"):
            fock.dominant_eigenvalue(gen)

    @pytest.mark.parametrize("shape", [(16,), (8, 8), (16, 8), (0, 0)])
    def test_non_superoperator_shape_refused(self, shape):
        with pytest.raises(MalformedInputError, match="4\\^L x 4\\^L"):
            fock.dominant_eigenvalue(np.zeros(shape))

    def test_solve_logged(self, chain2, caplog):
        with caplog.at_level(logging.DEBUG, logger="fermiflux.fock"):
            lam, _, gap = fock.dominant_eigenvalue(fock.build_deformed(chain2, [0.3, 0.0]), fock.pseudo_energy(chain2))
        words = [r.getMessage() for r in caplog.records if r.name == "fermiflux.fock"][-1].split()
        assert words[:3] == ["K", "sector", "dim"] and words[4] == "of" and words[6] == "even,"
        assert words[7] == "leak" and words[9] == "of" and words[11:13] == ["leading", "eigenvalue"]
        assert words[14] == "gap"
        assert int(words[3]) == 6  # C(4, 2): the operators |a><b| with N_a = N_b
        assert int(words[5]) == 4**chain2.n_modes // 2
        assert float(words[8]) <= float(words[10].rstrip(",")) == fock.SECTOR_LEAK_TOL
        assert complex(words[13].rstrip(",")) == lam
        assert float(words[15]) == pytest.approx(gap, rel=1e-6)


def _resonant_pairing_model():
    """An L = 3 pairing model whose kappa_S energies satisfy w1 + w2 = w3.

    A ``spectral`` draw with its three energies moved to (w1, w2, w1 + w2) on
    the same eigenvectors, each bath's energy following its pair; T_S and
    the couplings are kept.  The K levels |110> (even) and |001> (odd) then
    coincide.
    """
    base = randgen._spectral_model(np.random.default_rng(2), 3, 3)
    w, v = np.linalg.eigh(base.kappa_s.maj)  # -w3, -w2, -w1, w1, w2, w3
    old = w[3:]
    new = np.array([old[0], old[1], old[0] + old[1]])
    kappa = PhaseSpaceMatrix((v * np.concatenate([-new[::-1], new])) @ v.conj().T, Basis.MAJORANA)
    baths = []
    for b in base.baths:
        omega = new[np.argmin(np.abs(old - b.kappa.ca[0, 0].real))]
        baths.append(thermal.BathSpec(b.beta, PhaseSpaceMatrix(omega * np.diag([1.0, -1.0]), Basis.CA), b.theta))
    return thermal.ThermalQuasiFreeModel(t_s=base.t_s, kappa_s=kappa, baths=tuple(baths))


class TestPseudoEnergySector:
    @pytest.mark.parametrize("name", SECTOR_MODELS)
    def test_matches_full_space_solve(self, name):
        model = SECTOR_MODELS[name]
        k = fock.pseudo_energy(model)
        w_max = np.abs(np.linalg.eigvalsh(model.kappa_s.maj)).max()
        for alpha in _sector_alphas(model):
            if np.abs(alpha).max() * w_max > 30.0:
                continue  # past the Fock oracle's alpha range, as in TestEvenSector
            gen = fock.build_deformed(model, alpha)
            lam, rho, _ = fock.dominant_eigenvalue(gen, k)
            lam_full, rho_full = _full_space_dominant(gen)
            assert abs(lam - lam_full) <= 1e-12, alpha
            assert np.max(np.abs(rho - rho_full)) <= 1e-12, alpha

    def test_resonant_levels_keep_their_parity(self):
        model = _resonant_pairing_model()
        assert max(thermal.residual_report(model).values()) < 1e-12
        assert dynamics.kalman_rank(model)[1]
        k = fock.pseudo_energy(model)
        parity = np.array([bin(a).count("1") & 1 for a in range(8)])
        e_even = np.linalg.eigvalsh(k[np.ix_(parity == 0, parity == 0)])
        e_odd = np.linalg.eigvalsh(k[np.ix_(parity == 1, parity == 1)])
        assert np.abs(e_even[:, None] - e_odd[None, :]).min() < 1e-12  # an even and an odd level coincide
        for alpha in _sector_alphas(model):
            gen = fock.build_deformed(model, alpha)
            lam, rho, _ = fock.dominant_eigenvalue(gen, k)
            lam_full, rho_full = _full_space_dominant(gen)
            assert abs(lam - lam_full) <= 1e-12, alpha
            assert np.max(np.abs(rho - rho_full)) <= 1e-12, alpha

    @pytest.mark.parametrize("entry", [(0, 3), (3, 0)], ids=["sector-row", "sector-column"])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_off_sector_entry_refused(self, chain2, entry, factor):
        # vec positions 0 = |00><00| (in the sector) and 3 = |00><11| (even, N_a - N_b = -2)
        gen = fock.build_lindbladian(chain2)
        gen[entry] = factor * fock.SECTOR_LEAK_TOL * np.abs(gen).max()
        if factor < 1.0:
            fock.dominant_eigenvalue(gen, fock.pseudo_energy(chain2))
        else:
            with pytest.raises(MalformedInputError, match="sector of K"):
                fock.dominant_eigenvalue(gen, fock.pseudo_energy(chain2))
        fock.dominant_eigenvalue(gen)  # K = 0: the entry lies inside the even sector

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_no_k_is_the_even_sector(self, n_modes):
        assert np.array_equal(fock._even_basis(n_modes), np.eye(4**n_modes // 2))

    def test_k_shape_refused(self, chain2):
        with pytest.raises(MalformedInputError, match="conserved observable"):
            fock.dominant_eigenvalue(fock.build_lindbladian(chain2), np.eye(2))

    @pytest.mark.parametrize(
        "model",
        [
            chain.build(chain.ChainSpec(length=6)),
            randgen.random_thermal_model(np.random.default_rng(1), n_modes=6, n_baths=6, kind="spectral"),
        ],
        ids=["chain", "spectral"],
    )
    def test_six_modes_match_riccati(self, model):
        from fermiflux import deviations

        alpha = np.linspace(0.4, -0.3, model.n_baths)
        lam, rho, _ = fock.dominant_eigenvalue(fock.build_deformed(model, alpha), fock.pseudo_energy(model))
        spec = deviations.riccati_max(model, alpha)
        assert abs(lam.real - deviations.e_alpha(model, alpha)) <= 1e-8
        assert abs(lam.real - spec.e_value) <= 1e-8
        assert np.max(np.abs(fock.covariance_of(rho).maj - spec.covariance.maj)) <= 1e-7


class TestDiscreteStep:
    def test_pure_hamiltonian_step_exact(self, chain2):
        closed = thermal.ThermalQuasiFreeModel(t_s=chain2.t_s, kappa_s=chain2.kappa_s, baths=())
        tau = 0.7  # arbitrary: no coupling means an exact unitary conjugation
        step = fock.discrete_step(closed, tau)
        u = sla.expm(-1j * tau * fock.system_hamiltonian(closed))
        expected = so.sandwich(u, u.conj().T)
        assert np.max(np.abs(step - expected)) < 1e-10

    def test_converges_to_semigroup(self, chain2):
        gen = fock.build_lindbladian(chain2)
        t = 0.5
        exact = sla.expm(t * gen)
        errs = []
        for tau in (1e-2, 1e-3, 1e-4):
            step = fock.discrete_step(chain2, tau)
            approx = np.linalg.matrix_power(step, int(round(t / tau)))
            errs.append(np.linalg.norm(approx - exact, 2))
        # empirical rate at least sqrt(tau)
        assert errs[0] < 0.2
        for tau, err in zip((1e-2, 1e-3, 1e-4), errs):
            assert err < 2.0 * np.sqrt(tau)

    def test_completely_positive_unital_adjoint(self, chain2):
        step = fock.discrete_step(chain2, 0.05)
        assert so.is_completely_positive(step, tol=1e-9)
        dim = 2**chain2.n_modes
        # adjoint unital == step trace preserving
        assert np.linalg.norm(so.vec(np.eye(dim)).conj() @ step - so.vec(np.eye(dim)).conj()) < 1e-10

    def test_energy_conservation(self, chain2):
        real = fock.joint_realization(chain2)
        u = sla.expm(-1j * (0.37 * real["h_system"] + np.sqrt(0.37) * real["h_coupling"]))
        k_tot = real["k_system"] + real["k_bath"]
        assert np.max(np.abs(u @ k_tot - k_tot @ u)) < 1e-12


def _detailed_balance_loop(phi_h, sigma):
    """max_A || Phi^*(A sigma) - Phi(A) sigma ||_2 over the matrix units A = E_ab, one at a time."""
    dim = sigma.shape[0]
    phi_s = so.adjoint_super(phi_h)
    worst = 0.0
    unit = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            unit[a, b] = 1.0
            lhs = so.unvec(phi_s @ so.vec(unit @ sigma))
            rhs = so.unvec(phi_h @ so.vec(unit)) @ sigma
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
            unit[a, b] = 0.0
    return worst


class TestDetailedBalance:
    def test_quasi_free_bath_pieces(self, chain2):
        for i in range(chain2.n_baths):
            sigma = fock.quasi_free_state(
                chain2.gibbs_system_covariance(chain2.baths[i].beta)
            ).density
            resid = so.detailed_balance_residual(fock.lindblad_model(chain2).phi_heisenberg(i), sigma)
            assert resid < 1e-10

    def test_wrong_state_fails(self, chain2):
        sigma = fock.quasi_free_state(chain2.gibbs_system_covariance(0.123)).density
        resid = so.detailed_balance_residual(fock.lindblad_model(chain2).phi_heisenberg(0), sigma)
        assert resid > 1e-3

    def test_random_models(self):
        # the L=4 pairing draws have ill-conditioned sigma; the residual must not carry cond(sigma)
        models = make_models(7, 3, n_modes=2, n_baths=2)
        models += make_models(0, 2, n_modes=4, n_baths=4, kind="spectral")
        for model in models:
            for i in range(model.n_baths):
                sigma = fock.quasi_free_state(
                    model.gibbs_system_covariance(model.baths[i].beta)
                ).density
                resid = so.detailed_balance_residual(fock.lindblad_model(model).phi_heisenberg(i), sigma)
                assert resid < 1e-10

    def test_matches_matrix_unit_loop(self):
        models = make_models(11, 3, n_modes=2, n_baths=2)
        models += make_models(12, 2, n_modes=3, n_baths=3, kind="spectral")
        models += make_models(13, 1, n_modes=4, n_baths=2, kind="tr_broken")
        for model in models:
            lm = fock.lindblad_model(model)
            for i in range(model.n_baths):
                phi = lm.phi_heisenberg(i)
                sigma = fock.quasi_free_state(model.gibbs_system_covariance(model.baths[i].beta)).density
                assert abs(so.detailed_balance_residual(phi, sigma) - _detailed_balance_loop(phi, sigma)) < 1e-15
                # a Gibbs state at the wrong temperature: both report the same O(1) violation
                wrong = fock.quasi_free_state(model.gibbs_system_covariance(0.123)).density
                ref = _detailed_balance_loop(phi, wrong)
                assert ref > 1e-3
                assert abs(so.detailed_balance_residual(phi, wrong) - ref) < 1e-13 * ref

    def test_non_faithful_sigma_refused(self, chain2):
        vacuum = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(MalformedInputError):
            so.detailed_balance_residual(fock.lindblad_model(chain2).phi_heisenberg(0), vacuum)

    @pytest.mark.parametrize("beta0", [25.0, 40.0])
    def test_cold_bath_balanced(self, beta0):
        # bath 0's modes sit e^-beta0 from pure; an exact state keeps the residual at rounding
        model = chain.build(chain.ChainSpec(length=2, beta0=beta0))
        sigma = fock.quasi_free_state(model.gibbs_system_covariance(beta0)).density
        assert so.detailed_balance_residual(fock.lindblad_model(model).phi_heisenberg(0), sigma) < 1e-14

    def test_perturbed_coupling_fails(self, chain2):
        b0 = chain2.baths[0]
        theta = b0.theta.maj.copy()
        theta[0, 0] += 1e-8j
        bath = thermal.BathSpec(b0.beta, b0.kappa, ps.CouplingMatrix(theta, ps.Basis.MAJORANA))
        model = thermal.ThermalQuasiFreeModel(chain2.t_s, chain2.kappa_s, (bath,) + chain2.baths[1:])
        sigma = fock.quasi_free_state(model.gibbs_system_covariance(b0.beta)).density
        assert so.detailed_balance_residual(fock.lindblad_model(model).phi_heisenberg(0), sigma) > 1e-10


class TestEntropyBalance:
    def test_stationary_state_production(self, chain2):
        m = dynamics.stationary_covariance(chain2)
        rho = fock.quasi_free_state(m).density
        t = 2.0
        bal = fock.entropy_balance(chain2, rho, t, steps=32)
        j = thermal.fluxes(chain2, m)
        expected = t * thermal.entropy_production(j, chain2.betas)
        assert bal >= -1e-8
        assert abs(bal - expected) < 1e-6

    def test_equal_temperatures_gibbs_zero(self):
        spec = chain.ChainSpec(length=2, beta0=0.8, betaL=0.8)
        model = chain.build(spec)
        rho = fock.quasi_free_state(model.gibbs_system_covariance(0.8)).density
        assert abs(fock.entropy_balance(model, rho, 1.5, steps=32)) < 1e-8

    def test_random_initial_states_nonnegative(self, rng, chain2):
        for _ in range(3):
            dim = 2**chain2.n_modes
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            coarse = fock.entropy_balance(chain2, rho, 1.0, steps=64)
            fine = fock.entropy_balance(chain2, rho, 1.0, steps=128)
            assert coarse >= -1e-8
            assert abs(coarse - fine) < 1e-6
