"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Round ``r`` of a workload draws its inputs from
``SeedSequence([seed, workload, r])``, so a seed fixes every round, and the
shape of a round (model sizes, families, point counts) is the same for every
seed: only drawn values change.  A round is a list of ``Op``; an op is one
timed call into the program covering ``units`` work units, followed by an
untimed check that returns one failure cause (or None) per unit.  One pass of
a run is the ops of rounds ``0 .. DRAWS[workload] - 1``; the runner builds a
pass afresh, with the same values, every time it repeats it.

A failure whose cause is listed in ``Op.known`` is a defect the program has
at the commit this benchmark was written against; it is counted as failed
like any other, but does not make the run incorrect.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fermiflux import chain, cli, deviations, dynamics, fock, randgen, thermal, unravel

WHY = {
    "rate-chain": "rate-function points of two-bath chains at L=2,6,10 plus an L=2 tail; "
    "e(alpha) block assembly and eigensolves dominate",
    "mc-chain": "jump Monte Carlo trajectories of the L=2 chain at T=50; unravel dominates, "
    "no deviations or Fock eigensolves",
    "flux-sweep": "stationary fluxes of chains L=2..24 and random models; Lyapunov and Kalman "
    "dominate, crosses the L=17 Kalman breakdown",
    "oracle-random": "Fock-oracle check list on random models L=2..4 of both families; "
    "Fock superoperators and riccati_max dominate",
}
WORKLOADS = tuple(WHY)


@dataclass
class Op:
    kind: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], list]
    known: frozenset = frozenset()
    digest: Callable[[object], str] | None = None
    stats: Callable[[object], dict] | None = None


def round_rng(seed: int, workload: str, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), r])


# ---------------------------------------------------------------------------
# rate-chain
# ---------------------------------------------------------------------------

# the published figure grid, zeta in [-0.1, 0.3] around the beta=(1,0) flux;
# each curve shifts it to its own mean flux J and evaluates a window of it
PAPER_GRID = np.linspace(-0.1, 0.3, 200)
PAPER_J = chain.closed_form(chain.ChainSpec(length=2)).flux
WINDOW = 8
RATE_LENGTHS = (2, 6, 10)
# Rate-function tails of the default L=2 chain, the reproduction of the
# InternalConsistencyError defect: both raise for every seed at the commit
# this benchmark was written against (drawn couplings let the first one
# pass on some seeds, so these inputs are fixed).
TAILS = (np.linspace(-1.0, -0.3, 4), np.linspace(1.5, 3.0, 4))
TAIL_KNOWN = frozenset({"InternalConsistencyError", "nonconverged"})
I_AT_J_TOL = 1e-6
SYMMETRY_TOL = 1e-4
FOCK_E_TOL = 1e-8


def _point_causes(model, curve) -> list:
    out = []
    for p in curve.points:
        if not p.converged or not np.isfinite(p.rate):
            out.append("nonconverged")
        elif p.rate < -1e-9:
            out.append("check:I_negative")
        elif model.n_modes <= 4:
            gen = fock.build_deformed(model, [p.alpha_star, 0.0])
            e_fock = fock.dominant_eigenvalue(gen)[0].real
            e_curve = p.alpha_star * p.zeta - p.rate
            out.append("check:fock_e" if abs(e_fock - e_curve) > FOCK_E_TOL else None)
        else:
            out.append(None)
    return out


def _check_curve(model, spec, flux, curve) -> list:
    causes = _point_causes(model, curve)
    curve_cause = None
    if deviations.rate_function(model, [flux]).points[0].rate > I_AT_J_TOL:
        curve_cause = "check:I_at_J"
    else:
        mid = curve.points[len(curve.points) // 2]
        minus = deviations.rate_function(model, [-mid.zeta]).points[0].rate
        expected = -(spec.beta0 - spec.betaL) * mid.zeta
        if not abs(mid.rate - minus - expected) <= SYMMETRY_TOL:
            curve_cause = "check:symmetry"
    return [c or curve_cause for c in causes]


def rate_chain_round(ctx, seed: int, r: int) -> list:
    rng = round_rng(seed, "rate-chain", r)
    ops = []
    for length in RATE_LENGTHS:
        spec = chain.ChainSpec(
            length=length,
            theta0=rng.uniform(0.9, 1.1),
            thetaL=rng.uniform(0.9, 1.1),
            beta0=rng.uniform(0.8, 1.2),
            betaL=rng.uniform(-0.1, 0.1),
        )
        model = chain.build(spec)
        thermal.validate(model)
        flux = chain.closed_form(spec).flux
        start = int(rng.integers(0, len(PAPER_GRID) - WINDOW + 1))
        zetas = PAPER_GRID[start:start + WINDOW] - PAPER_J + flux
        ops.append(Op(
            kind=f"curve L={length}", units=WINDOW,
            run=functools.partial(deviations.rate_function, model, zetas),
            check=functools.partial(_check_curve, model, spec, flux),
            digest=lambda c: c.to_csv(),
        ))
    tail_model = chain.build(chain.ChainSpec(length=2))
    for tail in TAILS:
        ops.append(Op(
            kind="tail", units=len(tail),
            run=functools.partial(deviations.rate_function, tail_model, tail),
            check=functools.partial(_point_causes, tail_model),
            known=TAIL_KNOWN,
            digest=lambda c: c.to_csv(),
        ))
    return ops


# ---------------------------------------------------------------------------
# mc-chain
# ---------------------------------------------------------------------------

MC_BATCH = 100
MC_HORIZON = 50.0
# 5 sigma per bath per batch: a correct sampler fails a batch about once in 10^6
MC_Z_MAX = 5.0


def mc_setup() -> dict:
    model = chain.build(chain.ChainSpec(length=2))
    thermal.validate(model)
    m_inf = dynamics.stationary_covariance(model)
    unravel.extract_channels(model, cross_check=True)
    return {
        "model": model,
        "rho0": fock.quasi_free_state(m_inf).density,
        "flux": thermal.fluxes(model, m_inf),
    }


def _check_mc(flux, records) -> list:
    mean, sem = unravel.mean_rates(records)
    z = np.abs(mean - flux) / sem
    return [None if np.all(z < MC_Z_MAX) else "check:mean_rate_z"] * len(records)


def mc_chain_round(ctx, seed: int, r: int) -> list:
    base = int(round_rng(seed, "mc-chain", r).integers(0, 2**31))
    return [Op(
        kind="batch", units=MC_BATCH,
        run=functools.partial(
            unravel.simulate_batch, ctx["model"], ctx["rho0"], MC_HORIZON, MC_BATCH, base
        ),
        check=functools.partial(_check_mc, ctx["flux"]),
        digest=unravel.records_to_csv,
        stats=lambda recs: {"jumps": sum(rec.n_jumps for rec in recs)},
    )]


# ---------------------------------------------------------------------------
# flux-sweep
# ---------------------------------------------------------------------------

FLUX_LENGTHS = range(2, 25)
# (family, L, baths); spectral needs baths >= L
RANDOM_SWEEP = (
    ("spectral", 1, 2), ("spectral", 2, 3), ("spectral", 3, 3), ("spectral", 4, 5), ("spectral", 5, 5),
    ("uniform", 1, 2), ("uniform", 2, 4), ("uniform", 3, 3), ("uniform", 4, 2), ("uniform", 5, 5),
    ("uniform", 6, 3), ("uniform", 6, 2),
)
# Every chain is ergodic, so NotErgodicError on one is the false non-ergodic
# defect.  When this benchmark was written, the Kalman test rejected every
# chain with L >= 17 and, for rare couplings, one with L = 16.
CHAIN_KNOWN = frozenset({"NotErgodicError"})
CLOSED_FORM_TOL = 1e-10
SUM_J_TOL = 1e-10
CERTIFICATE_TOL = 1e-9


def _flux_pipeline(model):
    thermal.validate(model)
    m = dynamics.stationary_covariance(model)
    j = thermal.fluxes(model, m)
    return j, thermal.decompose_fluxes(j, model.betas)


def _check_flux(closed_flux, result) -> list:
    j, cert = result
    if closed_flux is not None and abs(j[0] - closed_flux) > CLOSED_FORM_TOL:
        return ["check:closed_form"]
    if abs(j.sum()) > SUM_J_TOL:
        return ["check:sum_J"]
    if np.max(np.abs(cert + cert.T)) > CERTIFICATE_TOL or np.max(np.abs(cert.sum(axis=1) - j)) > CERTIFICATE_TOL:
        return ["check:certificate"]
    return [None]


def _flux_row(label, result) -> str:
    return label + "," + ",".join(f"{x:.12e}" for x in result[0]) + "\n"


def flux_sweep_round(ctx, seed: int, r: int) -> list:
    rng = round_rng(seed, "flux-sweep", r)
    ops = []
    for length in FLUX_LENGTHS:
        spec = chain.ChainSpec(
            length=length,
            theta0=rng.uniform(0.5, 1.5),
            thetaL=rng.uniform(0.5, 1.5),
            beta0=rng.uniform(0.0, 2.0),
            betaL=rng.uniform(-0.5, 0.5),
        )
        ops.append(Op(
            kind=f"chain L={length}", units=1,
            run=functools.partial(_flux_pipeline, chain.build(spec)),
            check=functools.partial(_check_flux, chain.closed_form(spec).flux),
            known=CHAIN_KNOWN,
            digest=functools.partial(_flux_row, f"chain{length}"),
        ))
    for family, length, baths in RANDOM_SWEEP:
        model = randgen.random_thermal_model(rng, n_modes=length, n_baths=baths, kind=family)
        ops.append(Op(
            kind=f"{family} L={length} baths={baths}", units=1,
            run=functools.partial(_flux_pipeline, model),
            check=functools.partial(_check_flux, None),
            digest=functools.partial(_flux_row, f"{family}{length}x{baths}"),
        ))
    return ops


# ---------------------------------------------------------------------------
# oracle-random
# ---------------------------------------------------------------------------

ORACLE_MODELS = (
    ("chain", 2, 2),
    ("uniform", 2, 2), ("spectral", 2, 2), ("uniform", 2, 3), ("spectral", 2, 3),
    ("uniform", 2, 4), ("spectral", 2, 4),
    ("uniform", 3, 2), ("uniform", 3, 3), ("spectral", 3, 3), ("spectral", 3, 4),
    ("uniform", 4, 2), ("uniform", 4, 3), ("spectral", 4, 4),
)
ORACLE_ALPHA_SAMPLES = 4
# When this benchmark was written, pairing (spectral) models with L >= 3
# failed in three ways.  Most failed the detailed-balance check: sigma^-1
# amplifies rounding past the absolute 1e-10 tolerance.  Rarely the Gibbs
# state underflowed and the check raised MalformedInputError ("requires a
# faithful (positive) sigma"), or riccati_max's trace formula missed the
# half-spectrum sum (InternalConsistencyError).
ORACLE_KNOWN = frozenset({"check:detailed_balance", "MalformedInputError", "InternalConsistencyError"})


def _oracle_run(model, alpha_seed):
    return list(cli._oracle_checks(model, ORACLE_ALPHA_SAMPLES, alpha_seed))


def _check_oracle(rows) -> list:
    bad = [name for name, resid, tol in rows if not resid <= tol]
    if not bad:
        return [None]
    if all(name.startswith("detailed_balance") for name in bad):
        return ["check:detailed_balance"]
    return [f"check:{bad[0]}"]


def oracle_round(ctx, seed: int, r: int) -> list:
    rng = round_rng(seed, "oracle-random", r)
    ops = []
    for family, length, baths in ORACLE_MODELS:
        if family == "chain":
            model = chain.build(chain.ChainSpec(
                length=length, theta0=rng.uniform(0.5, 1.5), thetaL=rng.uniform(0.5, 1.5),
                beta0=rng.uniform(0.0, 2.0), betaL=rng.uniform(-0.5, 0.5),
            ))
        else:
            model = randgen.random_thermal_model(rng, n_modes=length, n_baths=baths, kind=family)
        ops.append(Op(
            kind=f"{family} L={length} baths={baths}", units=1,
            run=functools.partial(_oracle_run, model, int(rng.integers(0, 2**31))),
            check=_check_oracle,
            known=ORACLE_KNOWN if family == "spectral" else frozenset(),
        ))
    return ops


def setup(workload: str):
    """Per-process set-up shared by all passes; only mc-chain has any."""
    return mc_setup() if workload == "mc-chain" else None


ROUNDS = {
    "rate-chain": rate_chain_round,
    "mc-chain": mc_chain_round,
    "flux-sweep": flux_sweep_round,
    "oracle-random": oracle_round,
}
# Rounds drawn per pass.  Random models vary in cost and failures between
# seeds, so the workloads that draw them hold 4 rounds per pass; the chain
# workloads vary little, and a short pass gives each op more repeats.
DRAWS = {"rate-chain": 1, "mc-chain": 1, "flux-sweep": 4, "oracle-random": 4}


def pass_ops(workload: str, ctx, seed: int) -> list:
    """The ops of one pass, built afresh: the same values on every call."""
    return [op for r in range(DRAWS[workload]) for op in ROUNDS[workload](ctx, seed, r)]
