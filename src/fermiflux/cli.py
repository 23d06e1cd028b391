"""Command-line frontend: model ingestion, experiments, CSV emission.

Subcommands: validate, flux, e-alpha, rate, oracle, mc, machine, chain-sweep.
Models come either from a JSON file (--model) or inline chain flags
(--chain-L/--theta0/--thetaL/--beta0/--betaL).  All CSV outputs carry a
'#'-prefixed metadata header (package version, model hash, tolerances) and are
byte-identical across runs for fixed inputs and seed.

Exit codes: 0 success, 1 usage error, 2 invalid model / infeasible target,
3 non-ergodic model, 4 numeric non-convergence, 5 oracle failure.
"""

from __future__ import annotations

import argparse
import io
import logging
import os
import sys

import numpy as np

from . import __version__, chain, deviations, dynamics, fock, machines, thermal, unravel
from . import superop as so
from .errors import (
    FermifluxError,
    InfeasibleError,
    MalformedInputError,
    NotErgodicError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NONERGODIC = 3
EXIT_NONCONVERGED = 4
EXIT_ORACLE = 5

log = logging.getLogger("fermiflux")


def _setup_logging():
    level = os.environ.get("FERMIFLUX_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(message)s")


def _add_chain_args(p: argparse.ArgumentParser, chain_range: bool):
    p.add_argument(
        "--chain-L",
        dest="chain_l",
        help="interior chain length" + (" (or a range like 2-10 for sweeps)" if chain_range else ""),
    )
    p.add_argument("--theta0", type=float, default=1.0)
    p.add_argument("--thetaL", type=float, default=1.0)
    p.add_argument("--beta0", type=float, default=1.0)
    p.add_argument("--betaL", type=float, default=0.0)
    p.add_argument("--out", help="output file (default: stdout)")


def _add_model_args(p: argparse.ArgumentParser, chain_range: bool):
    p.add_argument("--model", help="path to a JSON model file")
    _add_chain_args(p, chain_range)


def _parse_chain_lengths(arg: str):
    try:
        if "-" in arg.strip().lstrip("-"):
            lo, hi = arg.split("-")
            lengths = list(range(int(lo), int(hi) + 1))
        else:
            lengths = [int(x) for x in arg.split(",")]
    except ValueError:
        raise UsageError(f"--chain-L expects N, N-M or N,M,...; got {arg!r}") from None
    if not lengths:
        raise UsageError(f"--chain-L range {arg!r} is empty")
    return lengths


def _finite(flag: str, value: float) -> None:
    if not np.isfinite(value):
        raise UsageError(f"{flag} must be a finite number, got {value}")


def _positive(flag: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise UsageError(f"{flag} must be a finite positive number, got {value}")


def _chain_spec(args, length: int) -> chain.ChainSpec:
    for flag in ("theta0", "thetaL", "beta0", "betaL"):
        _finite(f"--{flag}", getattr(args, flag))
    try:
        return chain.ChainSpec(
            length=length, theta0=args.theta0, thetaL=args.thetaL, beta0=args.beta0, betaL=args.betaL
        )
    except ValueError as exc:
        raise UsageError(f"--chain-L: {exc}") from None


def _check_count(flag: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{flag} must be >= 1")


def _check_seed(seed: int, count: int) -> None:
    """Philox keys are uint64: the seeds seed, ..., seed + count - 1 must all fit."""
    if not 0 <= seed <= 2**64 - count:
        raise UsageError(f"--seed must be an integer from 0 to {2**64 - count}, got {seed}")


def _load_model(args):
    sources = sum(x is not None for x in (args.model, args.chain_l))
    if sources != 1:
        raise UsageError("exactly one model source required: --model or --chain-L")
    if args.model is not None:
        return thermal.load_model(args.model)
    lengths = _parse_chain_lengths(args.chain_l)
    if len(lengths) != 1:
        raise UsageError("a single chain length is required here")
    return chain.build(_chain_spec(args, lengths[0]))


class UsageError(Exception):
    pass


def _load_validated(args):
    """The model of ``_load_model``, checked against the structural tolerance --tol."""
    _positive("--tol", args.tol)
    model = _load_model(args)
    thermal.validate(model, tol=args.tol)
    return model


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(model, **extra) -> str:
    out = io.StringIO()
    out.write(f"# fermiflux: {__version__}\n")
    if model is not None:
        out.write(f"# model_hash: {thermal.model_hash(model)}\n")
    for k, v in extra.items():
        out.write(f"# {k}: {v}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    _positive("--tol", args.tol)
    model = _load_model(args)
    report = thermal.residual_report(model)
    out = io.StringIO()
    out.write(_header(model, tolerance=args.tol))
    out.write("constraint,residual,pass\n")
    worst = 0.0
    for k, v in report.items():
        out.write(f"{k},{v:.6e},{int(v <= args.tol)}\n")
        worst = max(worst, v)
    _emit(args, out.getvalue())
    return EXIT_OK if worst <= args.tol else EXIT_INVALID


def cmd_flux(args) -> int:
    model = _load_validated(args)
    out = io.StringIO()
    out.write(_header(model, tolerance=args.tol))
    out.write("bath,beta,J\n")
    try:
        m = dynamics.stationary_covariance(model)
    except NotErgodicError as exc:
        log.warning("non-ergodic model: %s", exc)
        _emit(args, out.getvalue())
        return EXIT_NONERGODIC
    j = thermal.fluxes(model, m)
    for i, b in enumerate(model.baths):
        out.write(f"{i},{b.beta:.12e},{j[i]:.12e}\n")
    out.write(f"sum_J,,{j.sum():.12e}\n")
    out.write(f"entropy_production,,{thermal.entropy_production(j, model.betas):.12e}\n")
    _emit(args, out.getvalue())
    return EXIT_OK


def _parse_alpha(text: str) -> np.ndarray:
    try:
        values = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise UsageError(f"expected a comma list of numbers, got {text!r}") from None
    if not np.all(np.isfinite(values)):
        raise UsageError(f"expected finite numbers, got {text!r}")
    return values


def cmd_e_alpha(args) -> int:
    alphas = [_parse_alpha(text) for text in args.alpha]
    model = _load_validated(args)
    for text, a in zip(args.alpha, alphas):
        if a.size != model.n_baths:
            raise UsageError(f"--alpha {text!r} needs one entry per bath ({model.n_baths}), got {a.size}")
    dynamics.require_ergodic(model)
    out = io.StringIO()
    out.write(_header(model))
    out.write(",".join(f"alpha_{i}" for i in range(model.n_baths)) + ",e\n")
    for text, a in zip(args.alpha, alphas):
        try:
            e = deviations.e_alpha(model, a)
        except deviations.NUMERIC_ERRORS as exc:
            log.error("e(alpha) failed at %s: %s", text, exc)
            _emit(args, out.getvalue())
            return EXIT_NONCONVERGED
        out.write(",".join(f"{x:.12e}" for x in a) + f",{e:.12e}\n")
    _emit(args, out.getvalue())
    return EXIT_OK


def rate_table(lengths, zetas, curves) -> str:
    """CSV table ``zeta,I_L<length>,...``: one row per zeta, one column per chain length."""
    out = io.StringIO()
    out.write("zeta," + ",".join(f"I_L{length}" for length in lengths) + "\n")
    for k, z in enumerate(zetas):
        vals = ",".join(f"{c.points[k].rate:.12e}" for c in curves)
        out.write(f"{z:.12e},{vals}\n")
    return out.getvalue()


def cmd_rate(args) -> int:
    _check_count("--points", args.points)
    _finite("--zeta-min", args.zeta_min)
    _finite("--zeta-max", args.zeta_max)
    _positive("--alpha-max", args.alpha_max)
    zetas = np.linspace(args.zeta_min, args.zeta_max, args.points)
    lengths = None
    if args.chain_l is not None:
        lengths = _parse_chain_lengths(args.chain_l)
    if args.model is not None or (lengths is not None and len(lengths) == 1):
        model = _load_validated(args)
        dynamics.require_ergodic(model)
        curve = deviations.rate_function(
            model,
            zetas,
            alpha_max=args.alpha_max,
            metadata={
                "model_hash": thermal.model_hash(model),
                "betas": ",".join(f"{b:g}" for b in model.betas),
            },
        )
        text = f"# fermiflux: {__version__}\n" + curve.to_csv()
        _emit(args, text)
        bad = [p for p in curve.points if not p.converged]
        return EXIT_NONCONVERGED if bad else EXIT_OK
    if lengths is None:
        raise UsageError("rate needs a model source")
    _positive("--tol", args.tol)
    models = [chain.build(_chain_spec(args, length)) for length in lengths]
    for model in models:
        thermal.validate(model, tol=args.tol)
        dynamics.require_ergodic(model)
    curves = [deviations.rate_function(model, zetas, alpha_max=args.alpha_max) for model in models]
    header = _header(None, betas=f"{args.beta0},{args.betaL}", thetas=f"{args.theta0},{args.thetaL}")
    _emit(args, header + rate_table(lengths, zetas, curves))
    bad = any(not p.converged for c in curves for p in c.points)
    return EXIT_NONCONVERGED if bad else EXIT_OK


def _oracle_checks(model, n_alpha, seed):
    """The fock-vs-phase-space equivalence suite; yields (name, residual, tolerance)."""
    report = thermal.residual_report(model)
    yield "model_structure", max(report.values()), 1e-10
    lam0, rho_inf, _ = fock.dominant_eigenvalue(fock.build_lindbladian(model))
    yield "generator_zero_mode", abs(lam0), 1e-9
    m_lyap = dynamics.stationary_covariance(model)
    yield "stationary_covariance", float(
        np.max(np.abs(fock.covariance_of(rho_inf).maj - m_lyap.maj))
    ), 1e-8
    j_ps = thermal.fluxes(model, m_lyap)
    lm = fock.lindblad_model(model)
    j_fock = lm.fluxes(rho_inf)
    yield "stationary_fluxes", float(np.max(np.abs(j_ps - j_fock))), 1e-8
    for i in range(model.n_baths):
        sigma = fock.quasi_free_state(model.gibbs_system_covariance(model.baths[i].beta)).density
        yield f"detailed_balance_bath{i}", so.detailed_balance_residual(lm.phi_heisenberg(i), sigma), 1e-10
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], dtype=np.uint64)))
    worst_e = 0.0
    worst_cov = 0.0
    for _ in range(n_alpha):
        a = rng.uniform(-0.5, 0.5, size=model.n_baths)
        lam, rho_a, _ = fock.dominant_eigenvalue(fock.build_deformed(model, a))
        spec = deviations.riccati_max(model, a)
        worst_e = max(worst_e, abs(lam.real - spec.e_value))
        worst_cov = max(
            worst_cov, float(np.max(np.abs(fock.covariance_of(rho_a).maj - spec.covariance.maj)))
        )
    yield "deformed_eigenvalue", worst_e, 1e-8
    yield "deformed_covariance", worst_cov, 1e-7
    e0 = deviations.e_alpha(model, np.zeros(model.n_baths))
    yield "e_at_zero", abs(e0), 1e-9
    e_gc = deviations.e_alpha(model, -model.betas)
    yield "gallavotti_cohen_zero", abs(e_gc), 1e-9


def cmd_oracle(args) -> int:
    _check_count("--alpha-samples", args.alpha_samples)
    _check_seed(args.seed, 1)
    model = _load_model(args)
    dynamics.require_ergodic(model)
    out = io.StringIO()
    out.write(_header(model, alpha_samples=args.alpha_samples, seed=args.seed))
    out.write("check,residual,tolerance,pass\n")
    all_pass = True
    try:
        for name, resid, tol in _oracle_checks(model, args.alpha_samples, args.seed):
            good = resid <= tol
            all_pass &= good
            out.write(f"{name},{resid:.6e},{tol:.1e},{int(good)}\n")
    except FermifluxError as exc:
        # a structurally broken model can crash later checks: report and stop
        log.warning("oracle check aborted: %s", exc)
        out.write("aborted,inf,0.0e+00,0\n")
        all_pass = False
    _emit(args, out.getvalue())
    return EXIT_OK if all_pass else EXIT_ORACLE


def cmd_mc(args) -> int:
    _check_count("--trajectories", args.trajectories)
    _check_seed(args.seed, args.trajectories)
    _positive("--T", args.T)
    model = _load_validated(args)
    m_inf = dynamics.stationary_covariance(model)
    rho0 = fock.quasi_free_state(m_inf).density
    with open(args.jump_log or os.devnull, "w") as fh:  # opened first: a bad path costs no simulation
        records = unravel.simulate_batch(model, rho0, args.T, args.trajectories, base_seed=args.seed)
        if args.jump_log:
            fh.write(unravel.jump_log_csv(records))
    j = thermal.fluxes(model, m_inf)
    mean, sem = unravel.mean_rates(records)
    out = io.StringIO()
    out.write(_header(model, seed=args.seed, T=args.T, trajectories=args.trajectories))
    out.write(unravel.records_to_csv(records))
    for i in range(model.n_baths):
        z = (mean[i] - j[i]) / sem[i] if sem[i] != 0 else 0.0  # nan for a single trajectory
        out.write(f"# summary bath {i}: mean_rate {mean[i]:.6e} stderr {sem[i]:.6e} J {j[i]:.6e} z {z:.3f}\n")
    _emit(args, out.getvalue())
    return EXIT_OK


def cmd_machine(args) -> int:
    _check_count("--sweep", args.sweep)
    _check_seed(args.seed, 1)
    if bool(args.synthesize) != (args.beta is not None):
        raise UsageError("--synthesize and --beta go together")
    out = io.StringIO()
    out.write(_header(None, seed=args.seed))
    if args.synthesize:
        target = _parse_alpha(args.synthesize)
        betas = _parse_alpha(args.beta)
        if target.size != betas.size:
            raise UsageError(f"--synthesize needs one entry per --beta ({betas.size}), got {target.size}")
        machine = machines.synthesize(target, betas)
        achieved = machine.fluxes()
        out.write("bath,beta,J_target,J_achieved\n")
        for i, b in enumerate(betas):
            out.write(f"{i},{b:.12e},{target[i]:.12e},{achieved[i]:.12e}\n")
        out.write(f"# max_error: {np.max(np.abs(achieved - target)):.6e}\n")
        _emit(args, out.getvalue())
        return EXIT_OK
    # fridge sweep
    rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 3], dtype=np.uint64)))
    out.write("E1,E3,beta1,beta2,beta3,g,h,alpha,J1,J2,J3,resid\n")
    for _ in range(args.sweep):
        e1, e3 = rng.uniform(0.3, 1.5, size=2)
        b = np.sort(rng.uniform(0.1, 3.0, size=3))[::-1]
        g, h = rng.uniform(0.2, 1.0, size=2)
        model = machines.fridge(e1, e3, betas=tuple(b), rates=(1.0, 1.0, 1.0), g=g, h=h)
        alpha, resid = machines.fridge_alpha(model, (e1, e1 + e3, e3))
        j = model.fluxes()
        out.write(
            f"{e1:.6e},{e3:.6e},{b[0]:.6e},{b[1]:.6e},{b[2]:.6e},{g:.6e},{h:.6e},"
            f"{alpha:.6e},{j[0]:.6e},{j[1]:.6e},{j[2]:.6e},{resid:.3e}\n"
        )
    _emit(args, out.getvalue())
    return EXIT_OK


def cmd_chain_sweep(args) -> int:
    lengths = _parse_chain_lengths(args.chain_l or "2-10")
    out = io.StringIO()
    out.write(_header(None, thetas=f"{args.theta0},{args.thetaL}", betas=f"{args.beta0},{args.betaL}"))
    out.write("L,J_numeric,J_closed,p0_num,pmid_num,pL_num,j_num,max_closed_form_diff\n")
    for length in lengths:
        spec = _chain_spec(args, length)
        model = chain.build(spec)
        cov = dynamics.stationary_covariance(model)
        cf = chain.closed_form(spec)
        j_num = thermal.fluxes(model, cov)[0]
        m = cov.ca[:length, :length]
        p0 = m[0, 0].real
        pl = m[-1, -1].real
        pm = m[1, 1].real if length > 2 else 0.5 * (p0 + pl)
        jj = abs(m[0, 1].imag)
        diffs = [abs(p0 - cf.p0), abs(pl - cf.pL), abs(jj - abs(cf.j)), abs(j_num - cf.flux)]
        if length > 2:
            diffs.append(abs(pm - cf.p_mid))
        out.write(
            f"{length},{j_num:.12e},{cf.flux:.12e},{p0:.12e},{pm:.12e},{pl:.12e},{jj:.12e},{max(diffs):.6e}\n"
        )
    _emit(args, out.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fermiflux", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check model invariants")
    _add_model_args(sp, False)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("flux", help="stationary energy fluxes")
    _add_model_args(sp, False)
    sp.set_defaults(func=cmd_flux)

    sp = sub.add_parser("e-alpha", help="cumulant generating function at given alpha")
    _add_model_args(sp, False)
    sp.add_argument(
        "--alpha",
        action="append",
        required=True,
        help='comma list, e.g. "0.3,0"; use --alpha=-1,0 for leading minus signs',
    )
    sp.set_defaults(func=cmd_e_alpha)

    sp = sub.add_parser("rate", help="rate function of bath 0's energy on a flux grid (list a bath first to select it)")
    _add_model_args(sp, True)
    sp.add_argument("--zeta-min", type=float, default=-0.1)
    sp.add_argument("--zeta-max", type=float, default=0.3)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--alpha-max", type=float, default=deviations.ALPHA_MAX)
    sp.set_defaults(func=cmd_rate)

    sp = sub.add_parser("oracle", help="fock-vs-phase-space equivalence suite")
    _add_model_args(sp, False)
    sp.add_argument("--alpha-samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("mc", help="jump Monte Carlo against the stationary fluxes")
    _add_model_args(sp, False)
    sp.add_argument("--trajectories", type=int, required=True)
    sp.add_argument("--T", type=float, default=50.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jump-log", help="also write the full (seed, t, bath, delta) jump log here")
    sp.set_defaults(func=cmd_mc)

    sp = sub.add_parser("machine", help="fridge sweep or flux-vector synthesis")
    sp.add_argument("--synthesize", help='target fluxes, e.g. "1,-3,2"')
    sp.add_argument("--beta", help='temperatures for --synthesize, e.g. "1,2,3"')
    sp.add_argument("--sweep", type=int, default=20, help="fridge sweep size")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_machine)

    sp = sub.add_parser("chain-sweep", help="closed forms vs Lyapunov across lengths")
    _add_chain_args(sp, True)
    sp.set_defaults(func=cmd_chain_sweep)

    for name in ("validate", "flux", "e-alpha", "rate", "mc"):  # the commands that validate the model
        sub.choices[name].add_argument("--tol", type=float, default=1e-10, help="structural validation tolerance")

    return p


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: a --model, --out or --jump-log path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedInputError, ValidationError, InfeasibleError) as exc:
        print(f"invalid model or target: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotErgodicError as exc:
        print(f"non-ergodic model: {exc}", file=sys.stderr)
        return EXIT_NONERGODIC
    except deviations.NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except FermifluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
