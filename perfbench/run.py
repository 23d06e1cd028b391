"""fermiflux benchmark: one workload per process, seeded, checked, timed.

    python3 perfbench/run.py --workload rate-chain --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # the four, one process each

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing else.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
measures half of ``--seconds`` untraced and half with span wrappers
installed, and reports the per-layer metrics.  The full result
(environment, failure causes, output digests, counts) and, when traced, the
spans are written under ``perfbench/results/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
NPROC = len(os.sched_getaffinity(0))
# BLAS threads pinned here, before numpy loads, not in the program.  One
# thread: the matrices are small (at most 1024^2 when this benchmark was
# written), and a threaded BLAS call on a shared machine waits for its
# slowest core.
BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)
SETUP_PROBES = 3
WARMUP_POLICY = (
    "no separate warm-up: each run starts cold in a fresh process, as a CLI invocation does; "
    "set-up fills fock's lru caches (_jw_ops, majorana_matrices) only where set-up "
    "itself uses the Fock layer (mc-chain rho0); the cold pass 0 is timed and is one "
    "sample of each operation's slowest time"
)


def _import_program():
    """Import fermiflux from this checkout's src/, or exit 1 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fermiflux
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fermiflux from {src}: {exc}")
    if not Path(fermiflux.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: fermiflux resolved outside {src}: {fermiflux.__file__}")


def _attempt(op, tracer, check: bool):
    """Run one op timed, then, if ``check``, check it untimed.

    Returns (seconds, result, per-unit causes, error, outcome).  The outcome
    is the exception class or the output digest: cheap to compare between
    passes over the same inputs.
    """
    tracer.enabled, tracer.cur_phase = True, 1
    t0 = time.perf_counter()
    try:
        res = op.run()
    except Exception as exc:  # a failed operation is counted, the run goes on
        return time.perf_counter() - t0, None, [type(exc).__name__] * op.units, exc, type(exc).__name__
    finally:
        tracer.enabled = False
    elapsed = time.perf_counter() - t0
    outcome = op.digest(res) if op.digest else None
    if not check:
        return elapsed, res, None, None, outcome
    try:
        return elapsed, res, op.check(res), None, outcome
    except Exception as exc:  # a check that cannot run fails its units
        return elapsed, res, [f"check_error:{type(exc).__name__}"] * op.units, exc, outcome


def measure(wl, seed: int, seconds: float, tracer) -> dict:
    """Set up, then repeat the seed's pass until the timed wall time reaches ``seconds``.

    Every pass rebuilds its inputs from the seed, so each pass gets fresh
    objects with the same values.  Pass 0 is checked and gives the
    counts, the failure causes and the output digest; a later pass whose
    exception or output differs from pass 0 makes the run incorrect.  After
    pass 0 the run stops at the first operation that brings the timed wall
    time to ``seconds``.  ``units_per_s`` divides pass 0's passed units by
    the sum over operations of each operation's slowest time.  ``tracer``
    records spans only when its wrappers are installed; this loop just tells
    it which phase, pass and operation is running.
    """
    import workloads

    tracer.enabled, tracer.cur_phase, tracer.cur_pass = True, 0, 0
    ctx = workloads.setup(wl)
    ops = workloads.pass_ops(wl, ctx, seed)
    first_op = time.perf_counter()
    op_s = [[] for _ in ops]  # seconds of each op, one entry per pass
    outcomes = []  # exception class or output digest of each op in pass 0
    passed = 0
    log = []  # (pass, units, stats) per op, in op order
    causes: dict[str, dict] = {}
    repeats_agree = True
    digest = hashlib.sha256() if any(op.digest for op in ops) else None
    timed = 0.0
    n_pass = 0
    while n_pass == 0 or timed < seconds:
        if n_pass:
            tracer.enabled, tracer.cur_phase, tracer.cur_pass = True, 0, n_pass
            ops = workloads.pass_ops(wl, ctx, seed)
        for k, op in enumerate(ops):
            tracer.cur_pass, tracer.cur_op = n_pass, len(log)
            elapsed, res, per_unit, exc, outcome = _attempt(op, tracer, check=n_pass == 0)
            op_s[k].append(elapsed)
            timed += elapsed
            log.append((n_pass, op.units, op.stats(res) if op.stats and res is not None else {}))
            if n_pass:
                repeats_agree &= outcome == outcomes[k]
                if timed >= seconds:
                    break
                continue
            outcomes.append(outcome)
            if op.digest and res is not None:
                digest.update(outcome.encode())
            passed += per_unit.count(None)
            for cause in filter(None, per_unit):
                entry = causes.setdefault(
                    f"{op.kind}:{cause}", {"count": 0, "known": True, "message": str(exc or "")[:200]}
                )
                entry["count"] += 1
                entry["known"] &= cause in op.known
        n_pass += 1
    tracer.enabled = False
    # On a shared host speed alternates between a steady contended level and
    # irregular faster stretches; an operation's slowest repeat follows the
    # steady level, and it includes the first-call costs of the cold pass 0.
    slowest_pass_s = sum(map(max, op_s))
    return {
        "first_op_after_start_s": first_op - T_START,
        "timed_s": timed,
        "passes": n_pass,
        "op_s": op_s,
        "slowest_pass_s": slowest_pass_s,
        "units_per_s": passed / slowest_pass_s,
        "attempted": sum(op.units for op in ops),
        "passed": passed,
        "causes": causes,
        "repeats_agree": repeats_agree,
        "log": log,
        "digest_pass0": digest.hexdigest() if digest else None,
    }


def probe_setup(wl: str, seed: int) -> float:
    """Wall time from spawning a fresh process to its first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed for {wl}")
    return elapsed


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "seed": seed,
        "warmup": WARMUP_POLICY,
    }


def main(argv=None) -> int:
    _import_program()
    import tracing
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    wl, seed = args.workload, args.seed
    if wl == "all":  # each workload in its own fresh process, one after another
        cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run(cmd + ["--workload", w], cwd=ROOT).returncode for w in workloads.WORKLOADS]
        return max(codes)
    if args.setup_probe:
        workloads.pass_ops(wl, workloads.setup(wl), seed)
        print("ready", flush=True)
        return 0

    # a traced run splits --seconds between an untraced and a traced measurement
    seconds = args.seconds / 2 if args.trace else args.seconds
    run = measure(wl, seed, seconds, tracing.Tracer())
    ups = run["units_per_s"]
    result = {"workload": wl, "why": workloads.WHY[wl], "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        import fermiflux

        tracer = tracing.Tracer()
        tracer.install([getattr(fermiflux, m) for m in tracing.LAYERS])
        traced = measure(wl, seed, seconds, tracer)
        ups_traced = traced["units_per_s"]
        layer = tracing.layer_metrics(tracer, traced["timed_s"], traced["log"])
        layer["trace.overhead_frac"] = (1.0 - ups_traced / ups, "fraction")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"{wl}-seed{seed}-spans.npz")
        result["untraced_units_per_s"] = ups
        result["pass0_repeats"] = traced["digest_pass0"] == run["digest_pass0"]
        traced["repeats_agree"] &= run["repeats_agree"]
        run = traced
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = [probe_setup(wl, seed) for _ in range(SETUP_PROBES)]
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "units_per_s": {"value": ups, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": run["passed"] / run["attempted"], "unit": "fraction"},
        }
        result["setup_probes_s"] = probes
    failed = run["attempted"] - run["passed"]
    correct = run["repeats_agree"] and all(c["known"] for c in run["causes"].values())
    result.update(
        correct=correct,
        attempted=run["attempted"],
        failed=failed,
        failed_frac=failed / run["attempted"],
        metrics=metrics,
        environment=environment(seed),
        **{k: v for k, v in run.items() if k not in ("attempted", "log")},
    )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{wl}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {wl} seed={seed} trace={args.trace} passes={run['passes']} timed={run['timed_s']:.3f}s")
    print(f"  failed_frac {result['failed_frac']:.6g} ({failed}/{run['attempted']})")
    for cause, c in sorted(run["causes"].items()):
        print(f"    {cause}: {c['count']}{' (known)' if c['known'] else ''}")
    if not run["repeats_agree"]:
        print("  a later pass disagreed with pass 0 on the same inputs")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
