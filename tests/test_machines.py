import functools

import numpy as np
import pytest
import scipy.linalg as sla

from fermiflux import machines, thermal
from fermiflux import superop as so
from fermiflux.errors import InfeasibleError, MalformedInputError


def depolarizing_model(sigma, rate):
    """One bath relaxing a qubit toward sigma, with no Hamiltonian."""
    zero = np.zeros((2, 2), dtype=complex)
    return so.LindbladModel(zero, zero, (0.0,), (machines.depolarizing(sigma, rate),))


class TestDepolarizing:
    def test_explicit_semigroup(self, rng):
        sigma = machines.gibbs_qubit(1.0, 0.8)
        lam = 0.6
        gen = depolarizing_model(sigma, lam).generator()
        rho0 = np.array([[0.2, 0.1j], [-0.1j, 0.8]])
        for t in (0.3, 1.7):
            rho_t = so.apply_super(sla.expm(t * gen), rho0)
            expected = (rho0 - sigma) * np.exp(-lam * t) + sigma
            assert np.max(np.abs(rho_t - expected)) < 1e-12

    def test_spectrum(self):
        sigma = machines.gibbs_qubit(1.0, 0.5)
        gen = depolarizing_model(sigma, 0.9).generator()
        w = np.sort(np.linalg.eigvals(gen).real)
        assert abs(w[-1]) < 1e-12
        assert np.max(np.abs(w[:-1] + 0.9)) < 1e-12

    def test_stationary_state(self):
        sigma = machines.gibbs_qubit(2.0, 1.3)
        gen = depolarizing_model(sigma, 1.0).generator()
        rho = so.stationary_density(gen)
        assert np.max(np.abs(rho - sigma)) < 1e-12

    def test_unital_for_maximally_mixed(self):
        gen = depolarizing_model(0.5 * np.eye(2), 1.0).generator()
        assert np.max(np.abs(so.apply_super(gen, np.eye(2)))) < 1e-12

    def test_exact_detailed_balance(self):
        # the channel is self-adjoint for the sigma-weighted inner product
        sigma = machines.gibbs_qubit(1.0, 0.7)
        phi = depolarizing_model(sigma, 1.0).phi_heisenberg(0)
        assert so.detailed_balance_residual(phi, sigma) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(MalformedInputError):
            machines.depolarizing(np.diag([0.7, 0.7]), 1.0)
        with pytest.raises(MalformedInputError):
            machines.depolarizing(machines.gibbs_qubit(1.0, 1.0), -2.0)


class TestTwoChannel:
    def test_equal_states_zero_flux(self):
        sigma = machines.gibbs_qubit(1.0, 0.4)
        _, j1 = machines.two_channel_flux(sigma, sigma, 1.0, 2.0, np.diag([0.0, 1.0]))
        assert j1 == 0.0

    def test_reference_value(self):
        # beta = (1, 0) on a unit-gap qubit: |J1| = (1/2)(1/2 - e^{-1}/(1+e^{-1}));
        # energy enters the colder bath 1, so J1 > 0 (the opposite sign would
        # violate the second law: beta . J = J1 here)
        k = np.diag([0.0, 1.0])
        s1 = machines.gibbs_qubit(1.0, 1.0)
        s2 = machines.gibbs_qubit(1.0, 0.0)
        rho, j1 = machines.two_channel_flux(s1, s2, 1.0, 1.0, k)
        assert abs(j1 - 0.11552928931500245) < 1e-12
        assert thermal.entropy_production([j1, -j1], [1.0, 0.0]) > 0

    def test_closed_form_matches_numeric(self, rng):
        k = np.diag([0.0, 1.3])
        b1, b2 = 1.7, 0.2
        s1 = machines.gibbs_qubit(1.3, b1)
        s2 = machines.gibbs_qubit(1.3, b2)
        lam1, lam2 = 0.7, 1.9
        rho_cf, j1_cf = machines.two_channel_flux(s1, s2, lam1, lam2, k)
        model = machines.two_channel_model(s1, s2, lam1, lam2, k, betas=(b1, b2))
        rho = model.stationary_state()
        j = model.fluxes(rho)
        assert np.max(np.abs(rho - rho_cf)) < 1e-10
        assert abs(j[0] - j1_cf) < 1e-10
        assert abs(j.sum()) < 1e-12

    def test_detailed_balance_both_baths(self):
        k = np.diag([0.0, 1.0])
        model = machines.two_channel_model(
            machines.gibbs_qubit(1.0, 1.1),
            machines.gibbs_qubit(1.0, 0.3),
            1.0,
            1.0,
            k,
            betas=(1.1, 0.3),
        )
        assert np.max(model.detailed_balance_residuals()) < 1e-8


class TestFridge:
    def test_structure(self):
        model = machines.fridge(1.0, 0.6, betas=(2.0, 1.0, 0.4), rates=(1.0, 1.0, 1.0), g=0.5, h=1.0)
        # swap conservation: [H, K_S] = 0 exactly because E2 = E1 + E3
        comm = model.hamiltonian @ model.k_system - model.k_system @ model.hamiltonian
        assert np.max(np.abs(comm)) < 1e-12
        assert np.max(model.detailed_balance_residuals()) < 1e-8

    def test_flux_proportionality(self):
        model = machines.fridge(1.0, 0.6, betas=(2.0, 1.0, 0.4), rates=(1.3, 0.8, 1.1), g=0.4, h=0.9)
        alpha, resid = machines.fridge_alpha(model, (1.0, 1.6, 0.6))
        assert resid < 1e-9
        j = model.fluxes()
        assert abs(j.sum()) < 1e-10

    def test_equilibrium_condition(self):
        # (beta1-beta2) E1 = (beta2-beta3) E3 stalls the machine and the
        # stationary state is the product of local Gibbs states
        e1, e3 = 1.0, 0.5
        b1, b2 = 1.4, 1.0
        b3 = b2 - (b1 - b2) * e1 / e3
        assert abs((b1 - b2) * e1 - (b2 - b3) * e3) < 1e-12
        model = machines.fridge(e1, e3, betas=(b1, b2, b3), rates=(1.0, 1.0, 1.0), g=0.5, h=1.0)
        alpha, _ = machines.fridge_alpha(model, (e1, e1 + e3, e3))
        assert abs(alpha) < 1e-12
        rho = model.stationary_state()
        product = np.kron(
            np.kron(machines.gibbs_qubit(e1, b1), machines.gibbs_qubit(e1 + e3, b2)),
            machines.gibbs_qubit(e3, b3),
        )
        assert np.max(np.abs(rho - product)) < 1e-10

    def test_sign_criterion_sweep(self):
        # which scalar predicts sign(alpha): the flux-weighted combination
        # beta1 E1 - beta2 E2 + beta3 E3 does; the plain sum does not
        r = np.random.default_rng(12)
        weighted_ok = 0
        plain_ok = 0
        discriminating = 0
        n = 50
        for _ in range(n):
            e1, e3 = r.uniform(0.2, 2.0, size=2)
            e2 = e1 + e3
            b = np.sort(r.uniform(0.1, 3.0, size=3))[::-1]
            g, h = r.uniform(0.2, 1.2, size=2)
            model = machines.fridge(e1, e3, betas=tuple(b), rates=(1.0, 1.0, 1.0), g=g, h=h)
            alpha, resid = machines.fridge_alpha(model, (e1, e2, e3))
            assert resid < 1e-9
            weighted = b[0] * e1 - b[1] * e2 + b[2] * e3
            plain = b[0] * e1 + b[1] * e2 + b[2] * e3
            if abs(weighted) > 1e-10 and abs(alpha) > 1e-14:
                weighted_ok += np.sign(alpha) == np.sign(weighted)
                plain_ok += np.sign(alpha) == np.sign(plain)
                if np.sign(weighted) != np.sign(plain):
                    discriminating += 1
        assert weighted_ok == n
        assert discriminating > 0
        assert plain_ok < n

    def test_fridge_escapes_quasi_free_inequality(self):
        # a working fridge delivers energy to its hottest bath, which the
        # sorted partial-sum inequality forbids for quasi-free models
        model = machines.fridge(1.0, 0.6, betas=(2.0, 1.0, 0.4), rates=(1.0, 1.0, 1.0), g=0.5, h=1.0)
        alpha, _ = machines.fridge_alpha(model, (1.0, 1.6, 0.6))
        assert abs(alpha) > 1e-6
        ok, _ = thermal.check_no_fridge(model.fluxes(), model.betas)
        assert not ok

    def test_scaling_multiplies_fluxes(self):
        model = machines.fridge(0.8, 0.5, betas=(2.0, 1.0, 0.4), rates=(1.0, 1.0, 1.0), g=0.5, h=1.0)
        j = model.fluxes()
        j2 = model.scaled(2.5).fluxes()
        assert np.max(np.abs(j2 - 2.5 * j)) < 1e-10


class TestComposition:
    def test_flux_additivity(self):
        betas = (1.0, 2.0, 3.0)
        a = machines.fridge(0.7, 0.4, betas=betas, rates=(1.0, 1.0, 1.0), g=0.5, h=1.0)
        b = machines._pair_machine(2, 0, 0.3, betas)
        assert abs(b.fluxes()[2] - 0.3) < 1e-12
        combined = machines.tensor_models(a, b)
        assert np.max(np.abs(combined.fluxes() - (a.fluxes() + b.fluxes()))) < 1e-10


class TestSynthesize:
    def test_two_bath_exact(self):
        machine = machines.synthesize([-1.0, 1.0], (0.0, 1.0))
        assert np.max(np.abs(machine.fluxes() - [-1.0, 1.0])) < 1e-9

    def test_three_bath_example(self):
        target = np.array([1.0, -3.0, 2.0])
        machine = machines.synthesize(target, (1.0, 2.0, 3.0))
        assert np.max(np.abs(machine.fluxes() - target)) < 1e-6
        # the composed model solved as one system gives the same fluxes
        full = functools.reduce(machines.tensor_models, machine.components)
        assert np.max(np.abs(full.fluxes() - target)) < 1e-6

    def test_random_feasible_targets(self):
        r = np.random.default_rng(3)
        for _ in range(5):
            betas = tuple(np.sort(r.uniform(0.2, 3.0, size=3)))
            j12 = r.uniform(-1.0, 1.0, size=2)
            j = np.array([j12[0], j12[1], -j12.sum()])
            if np.asarray(betas) @ j <= 1e-3:
                j = -j
            machine = machines.synthesize(j, betas)
            assert np.max(np.abs(machine.fluxes() - j)) < 1e-6

    def test_any_temperature_order_and_four_baths(self):
        # each fridge is calibrated on its own three baths, then relabelled to the global ones
        for target, betas in (
            ([2.0, -3.0, 1.0], (3.0, 2.0, 1.0)),
            ([1.0, -3.0, 1.0, 1.0], (4.0, 2.0, 3.0, 1.0)),
        ):
            machine = machines.synthesize(target, betas)
            assert np.max(np.abs(machine.fluxes() - target)) < 1e-6

    def test_only_components_that_carry_flux(self):
        # at most n - 2 fridges (dimension 8) and one bridge (dimension 2), each
        # moving energy; a bath with zero target gets no component and reads 0.0
        for target, betas in (
            ([1.0, -3.0, 2.0], (1.0, 2.0, 3.0)),
            ([1.0, -3.0, 1.0, 1.0], (4.0, 2.0, 3.0, 1.0)),
            ([0.0, -1.0, 1.0], (1.0, 2.0, 3.0)),
            ([0.0, 1.0, -3.0, 2.0], (1.0, 2.0, 3.0, 4.0)),
        ):
            machine = machines.synthesize(target, betas)
            dims = sorted(comp.dim for comp in machine.components)
            assert dims.count(2) <= 1 and dims.count(8) <= len(betas) - 2 and set(dims) <= {2, 8}
            for comp in machine.components:
                assert np.max(np.abs(comp.fluxes())) > machines.ZERO_FLUX
            achieved = machine.fluxes()
            assert np.max(np.abs(achieved - target)) < 1e-6
            for i, t in enumerate(target):
                if t == 0.0:
                    assert achieved[i] == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(InfeasibleError):
            machines.synthesize([0.0, 0.0, 0.0], (1.0, 2.0, 3.0))

    def test_second_law_violation_rejected(self):
        with pytest.raises(InfeasibleError):
            machines.synthesize([1.0, 1.0, -2.0], (1.0, 2.0, 3.0))

    def test_first_law_violation_rejected(self):
        with pytest.raises(InfeasibleError):
            machines.synthesize([1.0, 1.0, 1.0], (1.0, 2.0, 3.0))

    def test_duplicate_temperatures_rejected(self):
        with pytest.raises(InfeasibleError):
            machines.synthesize([-1.0, 0.0, 1.0], (1.0, 1.0, 2.0))

    def test_synthesized_models_are_thermal(self):
        machine = machines.synthesize([1.0, -3.0, 2.0], (1.0, 2.0, 3.0))
        for comp in machine.components:
            assert np.max(comp.detailed_balance_residuals()) < 1e-8
            # primitive: the stationary solve is unique (spectral gap)
            _, _, gap = so.dominant_eigenpair(comp.generator())
            assert gap > 1e-10
