import logging

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import stats

from fermiflux import chain, deviations, dynamics, fock, thermal, unravel
from fermiflux import phasespace as ps
from fermiflux import superop as so
from fermiflux.errors import MalformedInputError, UnsupportedModelError
from fermiflux.thermal import BathSpec, ThermalQuasiFreeModel

from conftest import kernel_map, make_models


@pytest.fixture(scope="module")
def chain2m():
    return chain.build(chain.ChainSpec(length=2, beta0=1.0, betaL=0.0))


@pytest.fixture(scope="module")
def chain2_setup(chain2m):
    m_inf = dynamics.stationary_covariance(chain2m)
    rho0 = fock.quasi_free_state(m_inf).density
    ctx = unravel._make_context(chain2m)
    return chain2m, rho0, ctx


class TestChannels:
    def test_chain_two_per_bath(self, chain2m):
        chs = unravel.extract_channels(chain2m)
        # by bath, ascending delta, each delta exactly the bath energy
        got = [(c.bath, c.delta) for c in chs]
        assert got == [(0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0)]

    def test_zero_coupling_empty(self, chain2m):
        zero_theta = ps.CouplingMatrix(np.zeros((4, 2)), ps.Basis.MAJORANA)
        b0 = chain2m.baths[0]
        model = ThermalQuasiFreeModel(
            t_s=chain2m.t_s,
            kappa_s=chain2m.kappa_s,
            baths=(BathSpec(beta=b0.beta, kappa=b0.kappa, theta=zero_theta),),
        )
        assert unravel.extract_channels(model) == []

    def test_sum_reconstructs_jump_map(self, chain2m):
        chs = unravel.extract_channels(chain2m, cross_check=False)
        total = sum(so.kraus_map(c.kraus) for c in chs)
        gammas = fock.majorana_matrices(chain2m.n_modes)
        direct = sum(so.adjoint_super(kernel_map(chain2m.jump_kernel(i), gammas)) for i in range(2))
        assert np.max(np.abs(total - direct)) < 1e-10

    def test_completely_positive(self, chain2m):
        for c in unravel.extract_channels(chain2m, cross_check=False):
            assert so.is_completely_positive(so.kraus_map(c.kraus), tol=1e-10)

    def test_routes_agree_random_models(self):
        models = make_models(41, 2, n_modes=2, n_baths=2)
        models += make_models(42, 1, n_modes=3, n_baths=3, kind="spectral")
        models += make_models(43, 1, n_modes=3, n_baths=3, kind="uniform")
        models += make_models(44, 1, n_modes=2, n_baths=3, kind="tr_broken")
        # the projector route weighs bath states by a Gibbs state with beta w = 40
        models.append(chain.build(chain.ChainSpec(length=2, beta0=40.0)))
        for model in models:
            unravel.extract_channels(model, cross_check=True)

    def test_context_holds_kraus_stacks_only(self):
        # L=6: a d^2 x d^2 channel superoperator would take 268 MB; the context keeps d x d blocks
        model = chain.build(chain.ChainSpec(length=6))
        ctx = unravel._make_context(model)
        assert [c.kraus.shape for c in ctx.channels] == [(1, 64, 64)] * 4
        assert ctx.rates.shape == (4, 64, 64)
        for c, r in zip(ctx.channels, ctx.rates):
            assert np.max(np.abs(r - so.kraus_rate(c.kraus))) == 0.0

    def test_weights_are_jump_traces(self):
        # complex couplings: tr(R h) and tr(R^T h) differ, so the contraction order is pinned
        model = make_models(44, 1, n_modes=2, n_baths=3, kind="tr_broken")[0]
        ctx = unravel._make_context(model)
        r = np.random.default_rng(5).normal(size=(2, 4, 4))
        h = (r[0] + 1j * r[1]) @ (r[0] + 1j * r[1]).conj().T
        expected = [np.trace(c.apply(h)).real for c in ctx.channels]
        assert np.max(np.abs(ctx.weights(h[None])[0] - expected)) < 1e-12

    def test_multimode_bath_rejected(self, chain2m):
        kappa2 = ps.embed_gauge_invariant(np.eye(2))
        theta2 = ps.embed_gauge_invariant_coupling(np.array([[1.0, 0.0], [0.0, 1.0]]))
        model = ThermalQuasiFreeModel(
            t_s=chain2m.t_s,
            kappa_s=chain2m.kappa_s,
            baths=(BathSpec(beta=0.5, kappa=kappa2, theta=theta2),),
        )
        with pytest.raises(UnsupportedModelError):
            unravel.extract_channels(model)


class TestSimulate:
    def test_closed_system_no_jumps(self, chain2m):
        closed = ThermalQuasiFreeModel(t_s=chain2m.t_s, kappa_s=chain2m.kappa_s, baths=())
        rho0 = np.eye(4) / 4.0
        recs = unravel.simulate_batch(closed, rho0, 10.0, 3, base_seed=1)
        assert [(r.seed, r.n_jumps, r.totals.shape) for r in recs] == [(1, 0, (0,)), (2, 0, (0,)), (3, 0, (0,))]

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    def test_horizon_must_be_finite_positive(self, chain2_setup, horizon):
        model, rho0, _ = chain2_setup
        with pytest.raises(MalformedInputError):
            unravel.simulate_batch(model, rho0, horizon, 1, base_seed=0)

    @pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-6])
    def test_rho0_must_have_unit_trace(self, chain2_setup, scale):
        model, rho0, _ = chain2_setup
        with pytest.raises(MalformedInputError):
            unravel.simulate_batch(model, scale * rho0, 10.0, 2, base_seed=0)

    @pytest.mark.parametrize(
        "rho0",
        [
            np.eye(2) / 2.0,
            np.diag([1.5, -0.5, 0.0, 0.0]),
            np.eye(4) / 4.0 + np.triu(np.ones((4, 4)), 1) * 1e-3,
            np.diag([np.nan, 0.5, 0.25, 0.25]),
        ],
        ids=["wrong-size", "negative", "not-hermitian", "nan"],
    )
    def test_rho0_must_be_a_density_matrix(self, chain2_setup, rho0):
        model, _, _ = chain2_setup
        with pytest.raises(MalformedInputError):
            unravel.simulate_batch(model, rho0, 10.0, 2, base_seed=0)

    def test_seeded_determinism(self, chain2_setup):
        model, rho0, _ = chain2_setup
        r1 = unravel.simulate_batch(model, rho0, 25.0, 1, base_seed=99)[0]
        r2 = unravel.simulate_batch(model, rho0, 25.0, 1, base_seed=99)[0]
        assert r1.jumps == r2.jumps
        assert np.array_equal(r1.totals, r2.totals)

    def test_batch_of_n_is_n_batches_of_one(self, chain2_setup, monkeypatch):
        # three trajectories per chunk at d = 4: the batch of 7 spans two chunk boundaries
        model, rho0, _ = chain2_setup
        monkeypatch.setattr(unravel, "CHUNK_ENTRIES", 3 * 16)
        batch = unravel.simulate_batch(model, rho0, 30.0, 7, base_seed=40)
        singles = [unravel.simulate_batch(model, rho0, 30.0, 1, base_seed=40 + k)[0] for k in range(7)]
        assert [r.seed for r in batch] == list(range(40, 47))
        assert sum(r.n_jumps for r in batch) > 100
        assert [r.jumps for r in batch] == [r.jumps for r in singles]
        assert unravel.records_to_csv(batch) == unravel.records_to_csv(singles)

    def test_jump_times_ordered(self, chain2_setup):
        model, rho0, _ = chain2_setup
        rec = unravel.simulate_batch(model, rho0, 30.0, 1, base_seed=5)[0]
        times = [t for t, _, _ in rec.jumps]
        assert all(0 < a < b < 30.0 for a, b in zip(times, times[1:]))
        for i in range(2):
            acc = sum(d for _, b, d in rec.jumps if b == i)
            assert abs(acc - rec.totals[i]) < 1e-12

    def test_mean_rate_matches_flux(self, chain2_setup):
        model, rho0, _ = chain2_setup
        recs = unravel.simulate_batch(model, rho0, 50.0, 600, base_seed=0)
        j = thermal.fluxes(model, dynamics.stationary_covariance(model))
        mean, sem = unravel.mean_rates(recs)
        assert np.all(np.abs(mean - j) < 4.0 * sem)

    def test_mean_rate_matches_flux_chain4(self):
        model = chain.build(chain.ChainSpec(length=4))
        m_inf = dynamics.stationary_covariance(model)
        rho0 = fock.quasi_free_state(m_inf).density
        recs = unravel.simulate_batch(model, rho0, 20.0, 200, base_seed=0)
        mean, sem = unravel.mean_rates(recs)
        assert np.all(np.abs(mean - thermal.fluxes(model, m_inf)) < 5.0 * sem)

    def test_ensemble_average_state(self, chain2m):
        # averaging conditional states at T reproduces exp(T L^*) rho0
        rho0 = fock.quasi_free_state(chain2m.gibbs_system_covariance(0.3)).density
        ctx = unravel._make_context(chain2m)
        t_end = 1.5
        n = 800
        acc = np.zeros_like(rho0)
        for rec in unravel.simulate_batch(chain2m, rho0, t_end, n, base_seed=10_000):
            h = rho0.copy()
            t_prev = 0.0
            for (t, _, _), k in zip(rec.jumps, _jump_channel_indices(rec, ctx)):
                h = _evolve(ctx, h, t - t_prev)
                h = ctx.channels[k].apply(h)
                h = h / np.trace(h).real
                t_prev = t
            h = _evolve(ctx, h, t_end - t_prev)
            acc += h / np.trace(h).real
        avg = acc / n
        expected = so.apply_super(sla.expm(t_end * fock.build_lindbladian(chain2m)), rho0)
        assert np.max(np.abs(avg - expected)) < 0.05

    def test_jump_count_tail_bound(self, chain2_setup):
        model, rho0, ctx = chain2_setup
        horizon = 5.0
        recs = unravel.simulate_batch(model, rho0, horizon, 500, base_seed=2_000)
        counts = np.array([r.n_jumps for r in recs])
        # fitted C: smallest C with P(Z = k) <= (CT)^k / k! for all observed k
        ks = np.arange(counts.max() + 1)
        probs = np.array([(counts == k).mean() for k in ks])
        from scipy.special import gammaln

        needed = []
        for k, p in zip(ks, probs):
            if p > 0 and k > 0:
                # C >= (p k!)^(1/k) / T
                needed.append(np.exp((np.log(p) + gammaln(k + 1)) / k) / horizon)
        c_fit = max(needed)
        # compare against the total jump-rate bound sum_i tr-norm of the channels
        c_theory = sum(np.linalg.norm(so.kraus_map(c.kraus), 2) for c in ctx.channels)
        assert c_fit <= 2.0 * c_theory

    def test_channel_draw_matches_generator_choice(self, chain2_setup, monkeypatch):
        model, rho0, _ = chain2_setup
        new = unravel.simulate_batch(model, rho0, 50.0, 200, base_seed=11)
        monkeypatch.setattr(
            unravel, "_draw_channels", lambda rngs, p: np.array([rng.choice(len(q), p=q) for rng, q in zip(rngs, p)])
        )
        ref = unravel.simulate_batch(model, rho0, 50.0, 200, base_seed=11)
        assert sum(r.n_jumps for r in ref) > 1000
        assert unravel.records_to_csv(new) == unravel.records_to_csv(ref)


def _jump_channel_indices(rec, ctx):
    keys = [(c.bath, c.delta) for c in ctx.channels]
    return [keys.index((b, d)) for _, b, d in rec.jumps]


class TestWaitingTimes:
    def test_exponential_law_single_mode(self):
        # L_S = 1, one bath: post-jump states are number eigenstates, so the
        # waiting time from each is exactly exponential with rate tr(Phi(1) rho)
        model = chain.build(chain.ChainSpec(length=1, beta0=0.7, betaL=0.7))
        model = ThermalQuasiFreeModel(t_s=model.t_s, kappa_s=model.kappa_s, baths=model.baths[:1])
        ctx = unravel._make_context(model)
        rho0 = fock.quasi_free_state(dynamics.stationary_covariance(model)).density
        phi_one = so.unvec(fock.lindblad_model(model).phi_heisenberg(0) @ so.vec(np.eye(2)))
        waits = {0: [], 1: []}
        for rec in unravel.simulate_batch(model, rho0, 200.0, 400, base_seed=0):
            times = [t for t, _, _ in rec.jumps]
            deltas = [d for _, _, d in rec.jumps]
            for (t1, t2, d) in zip(times, times[1:], deltas):
                # after delta=+1 (quantum into the bath) the system is empty
                state = 0 if d > 0 else 1
                waits[state].append(t2 - t1)
        for state in (0, 1):
            vec_state = np.zeros((2, 2))
            vec_state[state, state] = 1.0
            rate = np.trace(phi_one @ vec_state).real
            ks = stats.kstest(waits[state], "expon", args=(0, 1.0 / rate))
            assert ks.pvalue > 0.01


def _bisect_invert(lam, coef, target, t_max):
    """Reference inversion: 64 bisection steps on s(t) = Re sum_jk C_jk e^{t (lam_j + conj(lam_k))}."""
    mu = lam[:, None] + lam.conj()[None, :]

    def s(t):
        return float(np.real((coef * np.exp(mu * t)).sum()))

    if s(t_max) > target:
        return None
    lo, hi = 0.0, t_max
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if s(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _coefficients(ctx, h):
    """Survival coefficients C = w * V^{-1} h V^{-dagger} of one state."""
    return ctx.w * (ctx.vinv @ h @ ctx.vinv.conj().T)


def _evolve(ctx, h, t):
    """e^{tG} h e^{tG*} from the propagator V e^{t lam} V^{-1}."""
    expd = (ctx.v * np.exp(ctx.lam * t)) @ ctx.vinv
    return expd @ h @ expd.conj().T


def _reference_trajectory(model, ctx, rho0, horizon, seed):
    """The sequential sampler: one trajectory at a time, each waiting time by bisection."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    h = np.array(rho0, dtype=complex)
    t_now = 0.0
    jumps = []
    totals = np.zeros(model.n_baths)
    while True:
        dt = _bisect_invert(ctx.lam, _coefficients(ctx, h), rng.random(), horizon - t_now)
        if dt is None:
            break  # survived to the horizon
        t_now += dt
        h = _evolve(ctx, h, dt)
        weights = np.maximum(np.einsum("kij,ji->k", ctx.rates, h).real, 0.0)
        total = weights.sum()
        if total <= 0.0:
            break  # dark state
        cdf = np.cumsum(weights / total)
        cdf /= cdf[-1]
        ch = ctx.channels[int(cdf.searchsorted(rng.random(), side="right"))]
        h = ch.apply(h)
        h = h / np.trace(h).real
        jumps.append((t_now, ch.bath, ch.delta))
        totals[ch.bath] += ch.delta
    return unravel.TrajectoryRecord(seed=seed, horizon=horizon, jumps=tuple(jumps), totals=totals)


def _assert_matches_reference(model, rho0, horizon, n_traj, base_seed=0):
    ctx = unravel._make_context(model)
    new = unravel.simulate_batch(model, rho0, horizon, n_traj, base_seed=base_seed)
    ref = [_reference_trajectory(model, ctx, rho0, horizon, base_seed + k) for k in range(n_traj)]
    assert sum(r.n_jumps for r in ref) > 5 * n_traj
    assert unravel.records_to_csv(new) == unravel.records_to_csv(ref)
    for a, b in zip(new, ref):
        assert [j[1:] for j in a.jumps] == [j[1:] for j in b.jumps]
        ta = np.array([j[0] for j in a.jumps])
        tb = np.array([j[0] for j in b.jumps])
        assert np.all(np.abs(ta - tb) <= 1e-12 * tb)


def _post_jump_coefficients(ctx, rng, count):
    """Survival coefficients of normalized post-jump states of random density matrices."""
    d = ctx.rates.shape[1]
    out = []
    for k in range(count):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = ctx.channels[k % len(ctx.channels)].apply(a @ a.conj().T)
        out.append(_coefficients(ctx, h / np.trace(h).real))
    return out


class TestInvert:
    MODELS = {
        "chain2": lambda: chain.build(chain.ChainSpec(length=2)),
        "chain3": lambda: chain.build(chain.ChainSpec(length=3)),
        # complex couplings: oscillating survival terms
        "tr_broken": lambda: make_models(44, 1, n_modes=2, n_baths=3, kind="tr_broken")[0],
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_bisection(self, name):
        ctx = unravel._make_context(self.MODELS[name]())
        rng = np.random.default_rng(17)
        rows = []  # (coefficients, target, t_max, s(t_max)), all inverted as one stack
        for coef in _post_jump_coefficients(ctx, rng, 12):
            for t_max in (0.3, 4.0, 50.0):
                s_end = ctx.survival(coef[None], np.array([t_max]))[0][0]
                targets = [0.5 * s_end, s_end, 1.0, *np.geomspace(s_end, 1.0, 9)[1:-1], *rng.uniform(s_end, 1.0, 4)]
                rows += [(coef, u, t_max, s_end) for u in targets]
        coefs, targets, t_maxes, s_ends = (np.array(col) for col in zip(*rows))
        got, evaluations = ctx.invert(coefs, targets, t_maxes)
        calls = 0
        for coef, u, t_max, s_end, t in zip(coefs, targets, t_maxes, s_ends, got):
            assert np.isnan(t) == (s_end > u)
            ref = _bisect_invert(ctx.lam, coef, u, t_max)
            if ref is None or np.isnan(t):
                # at u = s(t_max) the two survival formulas may round to either side
                assert (ref is None and np.isnan(t)) or u == s_end
            else:
                calls += 1
                assert 0.0 <= t <= t_max
                assert abs(t - ref) <= 1e-12 * max(1.0, ref)
        survivors = np.isnan(got)
        assert 0 < survivors.sum() < len(got)
        # a trajectory that survives to t_max costs one evaluation
        assert ctx.invert(coefs[survivors], targets[survivors], t_maxes[survivors])[1] == survivors.sum()
        if name == "chain2":
            assert evaluations / calls <= 6.0

    @pytest.mark.parametrize("length,n_traj", [(2, 200), (3, 50)])
    def test_same_trajectories_as_bisection(self, length, n_traj):
        model = chain.build(chain.ChainSpec(length=length))
        rho0 = fock.quasi_free_state(dynamics.stationary_covariance(model)).density
        _assert_matches_reference(model, rho0, 50.0, n_traj)

    def test_same_trajectories_as_bisection_three_baths(self):
        model = self.MODELS["tr_broken"]()
        rho0 = fock.quasi_free_state(dynamics.stationary_covariance(model)).density
        _assert_matches_reference(model, rho0, 50.0, 50, base_seed=7)

    def test_batch_logs_evaluations(self, chain2_setup, caplog):
        model, rho0, _ = chain2_setup
        with caplog.at_level(logging.DEBUG, logger="fermiflux.unravel"):
            recs = unravel.simulate_batch(model, rho0, 20.0, 5, base_seed=3)
        words = [r.getMessage() for r in caplog.records if r.name == "fermiflux.unravel"][-1].split()
        assert words[1:3] == ["trajectories,", str(sum(r.n_jumps for r in recs))]
        assert int(words[0]) == 5
        assert 1.0 <= float(words[4]) <= 6.0
        # one chunk: the longest trajectory is live for its jumps plus the round it stops in
        longest = max(r.n_jumps for r in recs)
        assert words[9:11] == [str(longest + 1), "lockstep"]
        assert words[14] == str(longest)


@pytest.fixture(scope="module")
def records(chain2_setup):
    model, rho0, _ = chain2_setup
    return unravel.simulate_batch(model, rho0, 50.0, 600, base_seed=0)


class TestEmpiricalCgf:
    def test_zero_alpha_exact(self, records):
        est = unravel.empirical_cgf(records, [0.0, 0.0])
        assert est.value == 0.0
        assert est.ci_low <= 0.0 <= est.ci_high

    def test_brackets_exact_cgf(self, chain2m, records):
        for a in ([0.1, 0.0], [-0.1, 0.0]):
            est = unravel.empirical_cgf(records, a)
            exact = deviations.e_alpha(chain2m, a)
            assert est.reliable
            assert est.ci_low <= exact <= est.ci_high

    def test_translation_invariance_within_ci(self, records):
        lam = 0.07
        est = unravel.empirical_cgf(records, [lam, lam])
        # alpha proportional to (1,1) weights exp(lam * sum N) with sum N small
        assert est.ci_low <= 0.0 <= est.ci_high

    def test_needs_enough_records(self, records):
        with pytest.raises(MalformedInputError):
            unravel.empirical_cgf(records[:10], [0.1, 0.0])

    @pytest.mark.parametrize(
        "alpha",
        [[0.1], [0.1, 0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]],
        ids=["short", "long", "nan", "inf", "-inf"],
    )
    def test_alpha_needs_one_entry_per_bath(self, records, alpha):
        with pytest.raises(MalformedInputError):
            unravel.empirical_cgf(records, alpha)

    def test_records_need_one_horizon(self, records):
        r = records[-1]
        other = unravel.TrajectoryRecord(seed=r.seed, horizon=2.0 * r.horizon, jumps=r.jumps, totals=r.totals)
        with pytest.raises(MalformedInputError):
            unravel.empirical_cgf(records[:-1] + [other], [0.1, 0.0])


class TestSerialization:
    def test_records_csv(self, chain2_setup):
        model, rho0, _ = chain2_setup
        recs = unravel.simulate_batch(model, rho0, 5.0, 3, base_seed=0)
        text = unravel.records_to_csv(recs)
        lines = text.splitlines()
        assert lines[0] == "seed,T,n_jumps,N_0,N_1"
        assert len(lines) == 4
        log = unravel.jump_log_csv(recs)
        assert log.splitlines()[0] == "seed,t,bath,delta"
        assert len(log.splitlines()) == 1 + sum(r.n_jumps for r in recs)
