"""Span tracer installed from outside the program, for the traced benchmark run.

``Tracer.install`` replaces every public function and public method of the
traced fermiflux modules with a timing wrapper (module attributes and class
attributes, so calls between the program's own functions are caught too).
Each call records a span: name, start, end, parent span, and the benchmark
phase, pass and operation it ran in.  Spans live in typed arrays in memory
and are written out once, when the run ends.  Nothing under ``src/`` changes.

Basis conversions are traced only when they change basis: ``to_basis`` is
called on every ``.maj``/``.ca`` access, and a no-op return is not work.
"""

from __future__ import annotations

import inspect
import statistics
import time
from array import array

LAYERS = ("phasespace", "thermal", "dynamics", "deviations", "unravel", "fock", "chain")

# functions whose first argument is a model: their spans also record its mode count L
SIZED = {
    "dynamics.stationary_covariance",
    "dynamics.kalman_rank",
    "deviations.e_alpha",
    "deviations.riccati_max",
    "fock.build_lindbladian",
    "fock.build_deformed",
}

PHASES = ("gen", "op")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("i")
        self.phase = array("b")
        self.pass_no = array("i")
        self.op = array("i")
        self.modes = array("i")
        self.raised = array("b")
        self._stack = [-1]
        self.enabled = False
        self.cur_phase = 0
        self.cur_pass = 0
        self.cur_op = -1

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, conversion: bool = False):
        nid = self._name_id(name)
        sized = name in SIZED
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            if conversion and (args[1] if len(args) > 1 else kwargs["target"]) == args[0].basis:
                return fn(*args, **kwargs)
            idx = len(tr.t0)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.phase.append(tr.cur_phase)
            tr.pass_no.append(tr.cur_pass)
            tr.op.append(tr.cur_op)
            tr.modes.append(args[0].n_modes if sized else 0)
            tr.raised.append(0)
            tr.t1.append(0)
            tr._stack.append(idx)
            tr.t0.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.raised[idx] = 1
                raise
            finally:
                tr.t1[idx] = time.perf_counter_ns()
                tr._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules) -> None:
        """Wrap the public functions and methods defined in each module."""
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(mod, attr, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, f"{layer}.{attr}.{meth}", conversion=meth == "to_basis")

    def _patch(self, owner, attr: str, name: str, conversion: bool = False) -> None:
        fn = getattr(owner, attr) if inspect.ismodule(owner) else vars(owner)[attr]
        setattr(owner, attr, self._wrap(name, fn, conversion))

    def __len__(self) -> int:
        return len(self.t0)

    def write(self, path) -> None:
        """All spans as compressed numpy columns; times in ns on the perf_counter clock."""
        import numpy as np

        columns = {
            "name": self.name, "start_ns": self.t0, "end_ns": self.t1, "parent": self.parent,
            "phase": self.phase, "pass": self.pass_no, "op": self.op, "L": self.modes, "raised": self.raised,
        }
        np.savez_compressed(
            path,
            names=np.array(self.names),
            phases=np.array(PHASES),
            **{k: np.array(v) for k, v in columns.items()},
        )


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, timed_wall_s: float, ops) -> dict:
    """Per-layer metrics from the spans of one traced measurement.

    ``ops`` lists the operations of the traced phase as
    ``(pass, units, stats)`` in op-index order; ``stats`` carries
    workload counts such as MC jumps.  Shares and counts use spans inside
    timed operations only; per-call times use set-up and operation spans.
    Counts are taken over pass 0; every pass runs the same inputs.
    """
    n = len(tr)
    ns = 1e-9
    names = tr.names
    dur = [tr.t1[i] - tr.t0[i] for i in range(n)]
    child = [0] * n
    kids: dict[int, list[int]] = {}
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
            kids.setdefault(p, []).append(i)
    self_t = [dur[i] - child[i] for i in range(n)]
    is_op = [tr.phase[i] == 1 for i in range(n)]

    by_name: dict[str, list[int]] = {}
    for i in range(n):
        by_name.setdefault(names[tr.name[i]], []).append(i)

    def spans(name, op_only=False, pass0=False):
        return [
            i for i in by_name.get(name, [])
            if (not op_only or is_op[i]) and (not pass0 or tr.pass_no[i] == 0)
        ]

    def kid_time(i, *wanted):
        return sum(dur[k] for k in kids.get(i, []) if names[tr.name[k]] in wanted)

    units0 = sum(u for r, u, _ in ops if r == 0) or 1
    timed_ns = timed_wall_s / ns
    out = {}

    layer_self = dict.fromkeys(LAYERS, 0)
    covered = 0
    for i in range(n):
        if not is_op[i]:
            continue
        layer_self[names[tr.name[i]].split(".", 1)[0]] += self_t[i]
        if tr.parent[i] < 0:
            covered += dur[i]

    conversions = [
        i for nm in ("phasespace.PhaseSpaceMatrix.to_basis", "phasespace.CouplingMatrix.to_basis")
        for i in spans(nm, op_only=True, pass0=True)
    ]
    out["phasespace.convert_per_unit"] = (len(conversions) / units0, "count")
    out["thermal.gibbs_per_unit"] = (
        len(spans("thermal.ThermalQuasiFreeModel.gibbs_system_covariance", True, True)) / units0, "count")
    out["thermal.dissipation_per_unit"] = (
        len(spans("thermal.ThermalQuasiFreeModel.dissipation_matrix", True, True)) / units0, "count")

    lyap = spans("dynamics.stationary_covariance")
    for label, lo, hi in (("small", 1, 6), ("mid", 7, 12), ("large", 13, 24)):
        out[f"dynamics.lyapunov_s.{label}"] = (
            _p50([self_t[i] * ns for i in lyap if lo <= tr.modes[i] <= hi]), "s")
    out["dynamics.kalman_s"] = (_p50([dur[i] * ns for i in spans("dynamics.kalman_rank")]), "s")
    # complex LU of the (2L)^2 x (2L)^2 Kronecker system: (8/3) N^3 real flops, N = 4 L^2
    solved = [i for i in spans("dynamics.stationary_covariance", True, True) if not tr.raised[i]]
    out["dynamics.lyapunov_flop"] = (sum(8 / 3 * (4 * tr.modes[i] ** 2) ** 3 for i in solved) / units0, "flop")

    e_calls = spans("deviations.e_alpha")
    out["deviations.e_calls_per_point"] = (len(spans("deviations.e_alpha", True, True)) / units0, "count")
    out["deviations.e_alpha_s"] = (_p50([dur[i] * ns for i in e_calls]), "s")
    out["deviations.blocks_s"] = (
        _p50([kid_time(i, "deviations.deformed_blocks", "deviations.build_z") * ns for i in e_calls]), "s")
    out["deviations.spectrum_s"] = (_p50([self_t[i] * ns for i in e_calls]), "s")
    out["deviations.riccati_s"] = (_p50([dur[i] * ns for i in spans("deviations.riccati_max")]), "s")
    # eigenvalues of a general complex n x n matrix, n = 4L: ~10 n^3 complex = 40 n^3 real flops
    eigs = spans("deviations.e_alpha", True, True) + spans("deviations.riccati_max", True, True)
    out["deviations.eig_flop"] = (sum(40 * (4 * tr.modes[i]) ** 3 for i in eigs) / units0, "flop")

    jumps = sum(x.get("jumps", 0) for _, _, x in ops)
    trajs0 = sum(u for r, u, x in ops if r == 0 and "jumps" in x)
    jumps0 = sum(x["jumps"] for r, _, x in ops if r == 0 and "jumps" in x)
    out["unravel.jumps_per_traj"] = (jumps0 / trajs0 if trajs0 else 0.0, "count")
    sim_ns = sum(dur[i] for i in spans("unravel.simulate", op_only=True))
    out["unravel.s_per_jump"] = (sim_ns * ns / jumps if jumps else 0.0, "s")
    out["unravel.context_s"] = (_p50([
        kid_time(i, "unravel.extract_channels", "unravel.no_jump_generator") * ns
        for i in spans("unravel.simulate_batch")
    ]), "s")

    per_op: dict[str, dict[int, int]] = {"lind": {}, "def": {}, "eig": {}}
    lind_top = [
        i for i in spans("fock.build_lindbladian", op_only=True)
        if tr.parent[i] < 0 or names[tr.name[tr.parent[i]]] != "fock.build_deformed"
    ]
    for key, idx in (("lind", lind_top), ("def", spans("fock.build_deformed", op_only=True)),
                     ("eig", spans("fock.dominant_eigenvalue", op_only=True))):
        for i in idx:
            per_op[key][tr.op[i]] = per_op[key].get(tr.op[i], 0) + dur[i]
    out["fock.lindbladian_s"] = (_p50([v * ns for v in per_op["lind"].values()]), "s")
    out["fock.deformed_s"] = (_p50([v * ns for v in per_op["def"].values()]), "s")
    out["fock.eig_s"] = (_p50([v * ns for v in per_op["eig"].values()]), "s")
    supers = [i for i in lind_top if tr.pass_no[i] == 0] + spans("fock.build_deformed", True, True)
    out["fock.superop_bytes"] = (sum(16 * 16 ** tr.modes[i] for i in supers) / units0, "B")

    out["chain.build_s"] = (_p50([dur[i] * ns for i in spans("chain.build")]), "s")

    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_self[layer] / timed_ns if timed_ns else 0.0, "fraction")
    out["trace.unattributed_share"] = ((timed_ns - covered) / timed_ns if timed_ns else 0.0, "fraction")
    return out

