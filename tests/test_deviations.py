import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from fermiflux import chain, deviations, dynamics, fock, thermal
from fermiflux.errors import UnsupportedModelError
from fermiflux.randgen import random_thermal_model

from conftest import make_models


class TestBlocks:
    def test_alpha_zero_reductions(self, chain2):
        b = deviations.deformed_blocks(chain2, [0.0, 0.0])
        assert np.max(np.abs(b.q)) < 1e-14
        assert np.max(np.abs(b.c)) < 1e-14
        assert np.max(np.abs(b.g - dynamics.drift(chain2).maj)) < 1e-12
        expected = sum(
            chain2.gibbs_system_covariance(chain2.baths[i].beta).maj
            @ chain2.dissipation_matrix(i)
            for i in range(2)
        )
        assert np.max(np.abs(b.b_plus - expected)) < 1e-12

    def test_identities(self, chain2):
        b = deviations.deformed_blocks(chain2, [0.3, 0.0])
        res = b.identity_residuals()
        assert res["a_equals_g_plus_b"] < 1e-12
        assert res["c_closure"] < 1e-10

    def test_identities_random_models(self):
        r = np.random.default_rng(8)
        for model in make_models(8, 4):
            a = r.uniform(-0.6, 0.6, model.n_baths)
            res = deviations.deformed_blocks(model, a).identity_residuals()
            assert max(res.values()) < 1e-10

    def test_uniform_tilt_commutant(self):
        # equal temperatures and alpha = lambda * (1, 1): every block is built
        # from functions of kappa_S times Theta Theta^*, all commuting with kappa_S
        model = chain.build(chain.ChainSpec(length=2, beta0=0.6, betaL=0.6))
        b = deviations.deformed_blocks(model, [0.4, 0.4])
        ks = model.kappa_s.maj
        for mat in (b.b_plus, b.b_minus, b.q, b.c):
            assert np.max(np.abs(mat @ ks - ks @ mat)) < 1e-12


class TestZMatrix:
    def test_spectral_symmetry(self, chain2):
        r = np.random.default_rng(2)
        for _ in range(5):
            a = r.uniform(-0.8, 0.8, 2)
            z = deviations.build_z(deviations.deformed_blocks(chain2, a))
            lam = np.linalg.eigvals(z)
            mirrored = -np.conj(lam)
            # multiset equality under lambda -> -conj(lambda)
            for x in lam:
                assert np.min(np.abs(mirrored - x)) < 1e-8

    def test_closed_system_block_diagonal(self, chain2):
        closed = thermal.ThermalQuasiFreeModel(
            t_s=chain2.t_s, kappa_s=chain2.kappa_s, baths=()
        )
        z = deviations.build_z(deviations.deformed_blocks(closed, np.zeros(0)))
        n = 2 * closed.n_modes
        assert np.max(np.abs(z[:n, n:])) < 1e-14
        assert np.max(np.abs(z[n:, :n])) < 1e-14
        lam = np.sort(np.linalg.eigvals(z).imag)
        ts = np.linalg.eigvalsh(closed.t_s.maj)
        expected = np.sort(np.concatenate([-ts, ts]))
        assert np.max(np.abs(lam - expected)) < 1e-10

    def test_chain_gap_from_axis(self, chain2):
        z = deviations.build_z(deviations.deformed_blocks(chain2, [0.3, 0.0]))
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
        # uncoupled model: the doubled matrix has purely imaginary spectrum,
        # so the half-plane split is undefined and must fail loudly
        from fermiflux.errors import DegenerateSpectrumError

        model = chain.build(chain.ChainSpec(length=2, theta0=0.0, thetaL=0.0))
        with pytest.raises(DegenerateSpectrumError):
            deviations.e_alpha(model, [0.1, 0.0])

    def test_gradient_is_flux(self, chain2):
        # d e / d alpha at 0 equals +J: the adopted global sign convention
        j = thermal.fluxes(chain2, dynamics.stationary_covariance(chain2))
        eps = 1e-6
        for i in range(2):
            a = np.zeros(2)
            a[i] = eps
            de = (deviations.e_alpha(chain2, a) - deviations.e_alpha(chain2, -a)) / (2 * eps)
            assert abs(de - j[i]) < 1e-5


class TestRiccati:
    def test_alpha_zero_is_stationary_covariance(self, chain2):
        spec = deviations.riccati_max(chain2, [0.0, 0.0])
        m = dynamics.stationary_covariance(chain2)
        assert np.max(np.abs(spec.covariance.maj - m.maj)) < 1e-9
        assert abs(spec.e_value) < 1e-9

    def test_solution_properties(self, chain2):
        a = np.array([0.3, 0.0])
        spec = deviations.riccati_max(chain2, a)
        x = spec.x_max
        assert deviations.riccati_residual(chain2, a, x) < 1e-8
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


class TestTwoBathReduction:
    def test_zero(self, chain2):
        assert abs(deviations.e_two_bath(chain2, 0.0)) < 1e-9

    def test_difference_identity(self, chain2):
        r = np.random.default_rng(10)
        for _ in range(5):
            a1, a2 = r.uniform(-0.8, 0.8, 2)
            full = deviations.e_alpha(chain2, [a1, a2])
            reduced = deviations.e_two_bath(chain2, a1 - a2)
            assert abs(full - reduced) < 1e-9

    def test_zero_at_minus_beta_gap(self, chain2):
        gap = chain2.betas[0] - chain2.betas[1]
        assert abs(deviations.e_two_bath(chain2, -gap)) < 1e-9

    def test_reflection_symmetry(self, chain2):
        # combining the two symmetries: e~ is even about -(beta0-betaL)/2
        gap = chain2.betas[0] - chain2.betas[1]
        r = np.random.default_rng(11)
        for _ in range(5):
            u = r.uniform(-0.8, 0.8)
            left = deviations.e_two_bath(chain2, -gap / 2 + u)
            right = deviations.e_two_bath(chain2, -gap / 2 - u)
            assert abs(left - right) < 1e-9

    def test_needs_two_baths(self):
        model = make_models(12, 1, n_baths=3)[0]
        with pytest.raises(UnsupportedModelError):
            deviations.e_two_bath(model, 0.1)


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

    def test_csv_round_formatting(self, chain2):
        curve = deviations.rate_function(chain2, [0.0, 0.05], metadata={"model": "chain2"})
        text = curve.to_csv()
        assert text.splitlines()[0].startswith("#")
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "zeta,I,alpha_star,converged"

    def test_two_bath_required(self):
        model = make_models(13, 1, n_baths=3)[0]
        with pytest.raises(UnsupportedModelError):
            deviations.rate_function(model, [0.0])


def _half_spectrum_e(model, a):
    """e(alpha) from the full 4L x 4L Majorana Z, with no sector split."""
    lam = np.linalg.eigvals(deviations.build_z(deviations.deformed_blocks(model, a)))
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
            sectors = deviations._factors(model).sectors
            assert [s.a.shape[0] for s in sectors] == [model.n_modes] * 2
            for _ in range(6):
                a = r.uniform(-3.0, 3.0, model.n_baths)
                ref = _half_spectrum_e(model, a)
                assert abs(deviations.e_alpha(model, a) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_pairing_models_take_full_path(self):
        r = np.random.default_rng(19)
        for n in (2, 3, 4):
            model = random_thermal_model(r, n_modes=n, n_baths=n, kind="spectral")
            sectors = deviations._factors(model).sectors
            assert len(sectors) == 1
            assert sectors[0].a.shape == (2 * n, 2 * n)

    def test_rate_tails_converge_against_fock(self, chain2):
        # the expanding bracket walks out to |alpha| ~ 20 on these tails
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
        assert abs(deviations.e_two_bath(chain2, a) - ref) <= 1e-12 * abs(ref)


class TestFactorCache:
    def test_freed_with_model(self):
        model = chain.build(chain.ChainSpec(length=3))
        deviations.e_two_bath(model, 0.2)
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_threads_share_fresh_models(self):
        alphas = np.linspace(-2.0, 2.0, 9)
        specs = [chain.ChainSpec(length=n) for n in (2, 3, 4)]
        expected = [[deviations.e_two_bath(chain.build(s), a) for a in alphas] for s in specs]
        models = [chain.build(s) for s in specs]
        results = {}

        def work(k):
            j = k % len(models)
            results[k] = [deviations.e_two_bath(models[j], a) for a in alphas]

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
