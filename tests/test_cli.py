import hashlib
import json
import logging
import warnings

import numpy as np
import pytest

from fermiflux import chain, cli, deviations, thermal, unravel
from fermiflux import phasespace as ps
from fermiflux.errors import InternalConsistencyError
from fermiflux.randgen import random_thermal_model


def run_cli(args):
    return cli.main(args)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


class TestFlux:
    def test_chain_values(self, tmp_path):
        out = tmp_path / "flux.csv"
        assert run_cli(["flux", "--chain-L", "4", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["bath", "beta", "J"]
        j_vals = [float(r[2]) for r in rows if r[0] in ("0", "1")]
        assert abs(j_vals[0] - 0.09242343) < 1e-7
        assert abs(j_vals[1] + 0.09242343) < 1e-7
        tail = {r[0]: float(r[2]) for r in rows if r[0] in ("sum_J", "entropy_production")}
        assert abs(tail["sum_J"]) < 1e-12
        assert tail["entropy_production"] > 0

    def test_metadata_header(self, tmp_path):
        out = tmp_path / "flux.csv"
        run_cli(["flux", "--chain-L", "2", "--out", str(out)])
        text = out.read_text()
        assert text.startswith("# fermiflux:")
        assert "# model_hash:" in text

    def test_non_ergodic_exit_code(self, tmp_path):
        out = tmp_path / "flux.csv"
        code = run_cli(["flux", "--chain-L", "2", "--theta0", "0", "--thetaL", "0", "--out", str(out)])
        assert code == 3
        header, rows = read_rows(out)
        assert rows == []  # header only, no flux rows

    def test_malformed_model_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run_cli(["flux", "--model", str(bad)]) == 2

    def test_model_file_round_trip(self, tmp_path):
        model = chain.build(chain.ChainSpec(length=3, beta0=1.0, betaL=0.0))
        path = tmp_path / "m.json"
        thermal.save_model(model, path)
        out = tmp_path / "flux.csv"
        assert run_cli(["flux", "--model", str(path), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert abs(float(rows[0][2]) - 0.09242343) < 1e-7

    def test_long_chain(self, tmp_path):
        out = tmp_path / "flux.csv"
        assert run_cli(["flux", "--chain-L", "100", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        tail = {r[0]: float(r[2]) for r in rows}
        assert abs(tail["sum_J"]) <= 1e-10

    def test_debug_logging_leaves_csv_unchanged(self, tmp_path, caplog):
        outs = []
        for k, level in enumerate((logging.WARNING, logging.DEBUG)):
            out = tmp_path / f"f{k}.csv"
            with caplog.at_level(level, logger="fermiflux.dynamics"):
                assert run_cli(["flux", "--chain-L", "3", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        messages = [r.getMessage() for r in caplog.records if r.name == "fermiflux.dynamics"]
        assert any(m.startswith("PBH margin") for m in messages)
        assert any(m.startswith("Lyapunov residual") for m in messages)

    def test_requires_one_source(self):
        assert run_cli(["flux"]) == 1
        # both sources at once is also a usage error
        assert run_cli(["flux", "--model", "x.json", "--chain-L", "2"]) == 1


    @pytest.mark.parametrize(
        "args",
        [
            ["flux", "--chain-L", "0"],
            ["flux", "--chain-L", "abc"],
            ["flux", "--chain-L", "2-x"],
            ["rate", "--chain-L", "3-2"],
            ["e-alpha", "--chain-L", "2", "--alpha=a,b"],
            ["machine", "--synthesize", "1,-1"],
            ["machine", "--synthesize", "1,-1", "--beta", "1,2,3"],
            ["e-alpha", "--chain-L", "2", "--alpha", "0.3"],
            ["e-alpha", "--chain-L", "2", "--alpha", "0.3,0", "--alpha", "1,2,3"],
            ["rate", "--chain-L", "2", "--points", "-1"],
            ["rate", "--chain-L", "2", "--alpha-max", "-1"],
            ["rate", "--chain-L", "2", "--zeta-min", "nan"],
            ["mc", "--chain-L", "2", "--trajectories", "2", "--T", "nan"],
            ["mc", "--chain-L", "2", "--trajectories", "2", "--T", "inf"],
            ["mc", "--chain-L", "2", "--trajectories", "2", "--T", "-1"],
            ["flux", "--chain-L", "2", "--beta0", "nan"],
            ["flux", "--chain-L", "2", "--tol", "nan"],
            ["e-alpha", "--chain-L", "2", "--alpha", "nan,0"],
            ["mc", "--chain-L", "2", "--trajectories", "2", "--seed", "-1"],
            ["mc", "--chain-L", "2", "--trajectories", "2", "--seed", "18446744073709551615"],
            ["oracle", "--chain-L", "2", "--seed", "-1"],
            ["oracle", "--chain-L", "2", "--alpha-samples", "0"],
            ["oracle", "--chain-L", "2", "--alpha-samples", "-3"],
            ["machine", "--seed", "-1"],
            ["machine", "--sweep", "-1"],
            ["rate", "--chain-L", "2-3", "--tol", "nan", "--points", "2"],
            ["machine", "--beta", "1,2"],
        ],
    )
    def test_bad_input_usage_error(self, args, capsys):
        assert run_cli(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["flux", "--model", "{tmp}/missing.json"],
            ["flux", "--chain-L", "2", "--out", "{tmp}/no_dir/flux.csv"],
            ["mc", "--chain-L", "2", "--trajectories", "2", "--T", "1", "--jump-log", "{tmp}/no_dir/jumps.csv"],
        ],
    )
    def test_file_error_usage_error(self, args, tmp_path, capsys):
        assert run_cli([a.format(tmp=tmp_path) for a in args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(tmp_path) in lines[0]

    def test_jump_log_opened_before_sampling(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kw):
            raise AssertionError("simulate_batch ran before the jump log was opened")

        monkeypatch.setattr(unravel, "simulate_batch", never)
        log = tmp_path / "no_dir" / "jumps.csv"
        assert run_cli(["mc", "--chain-L", "2", "--trajectories", "2", "--jump-log", str(log)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["chain-sweep", "--chain-L", "2-3", "--model", "m.json"],
            ["chain-sweep", "--chain-L", "2-3", "--tol", "1e-9"],
            ["oracle", "--chain-L", "2", "--tol", "1e-9"],
        ],
    )
    def test_flags_the_command_does_not_use_are_refused(self, args, capsys):
        assert run_cli(args) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_model(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run_cli(["validate", "--chain-L", "2", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert all(r[2] == "1" for r in rows)

    def test_invalid_model(self, tmp_path):
        model = chain.build(chain.ChainSpec(length=2))
        doc = thermal.model_to_dict(model)
        doc["kappa_S"] = (np.array(doc["kappa_S"]) * 0.5).tolist()  # breaks intertwining
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["validate", "--model", str(path)]) == 2


class TestEAlpha:
    def test_values(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run_cli(["e-alpha", "--chain-L", "2", "--alpha", "0.3,0", "--alpha=-1,0", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        assert abs(float(rows[0][2]) - 0.036025584191812676) < 1e-10
        assert abs(float(rows[1][2])) < 1e-9

    def test_pairing_model_at_large_alpha(self, tmp_path):
        # each bath sits at its own kappa_S eigenvalue, so e is identically 0
        model = random_thermal_model(np.random.default_rng(0), n_modes=2, n_baths=2, kind="spectral")
        path = tmp_path / "model.json"
        thermal.save_model(model, path)
        out = tmp_path / "e.csv"
        assert run_cli(["e-alpha", "--model", str(path), "--alpha=10,0", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 1
        assert abs(float(rows[0][2])) < 1e-12

    def test_non_ergodic_exit_code(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code = run_cli([
            "e-alpha", "--chain-L", "2", "--theta0", "0", "--thetaL", "0",
            "--alpha", "0.3,0", "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()
        assert "non-ergodic model" in capsys.readouterr().err


def _failing_past(fn, limit):
    """``fn`` that raises InternalConsistencyError once some |alpha| entry exceeds ``limit``."""

    def wrapped(model, a, **kw):
        if np.max(np.abs(a)) > limit:
            raise InternalConsistencyError("injected numeric failure")
        return fn(model, a, **kw)

    return wrapped


class TestNumericFailure:
    def test_rate_marks_points_and_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(deviations, "_derivatives", _failing_past(deviations._derivatives, 1.0))
        out = tmp_path / "rate.csv"
        code = run_cli([
            "rate", "--chain-L", "2", "--zeta-min", "0.05", "--zeta-max", "0.5",
            "--points", "4", "--out", str(out),
        ])
        assert code == 4
        _, rows = read_rows(out)
        assert len(rows) == 4
        assert rows[0][3] == "1" and float(rows[0][1]) < 1e-2
        assert rows[-1][1] == "inf" and rows[-1][3] == "0"

    def test_rate_of_unpaired_blocks_keeps_rows_and_exits_4(self, tmp_path, monkeypatch):
        # a kappa_S block without its mirror fails each rate point; the rows are still written
        kappa, eigenspaces = chain.build(chain.ChainSpec(length=2)).kappa_s.maj, ps.eigenspaces
        monkeypatch.setattr(
            ps, "eigenspaces", lambda h: eigenspaces(h)[1:] if np.array_equal(h, kappa) else eigenspaces(h)
        )
        out = tmp_path / "rate.csv"
        assert run_cli(["rate", "--chain-L", "2", "--points", "3", "--out", str(out)]) == 4
        _, rows = read_rows(out)
        assert [r[1:] for r in rows] == [["inf", "nan", "0"]] * 3

    def test_e_alpha_keeps_rows_and_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(deviations, "e_alpha", _failing_past(deviations.e_alpha, 1.0))
        out = tmp_path / "e.csv"
        code = run_cli(["e-alpha", "--chain-L", "2", "--alpha", "0.3,0", "--alpha", "2,0", "--out", str(out)])
        assert code == 4
        _, rows = read_rows(out)
        assert len(rows) == 1
        assert abs(float(rows[0][2]) - 0.036025584191812676) < 1e-10


    def test_e_alpha_past_overflow_keeps_rows_and_exits_4(self, tmp_path, caplog):
        # alpha = (1500, 0) puts e^{(alpha_i - c) w} at e^750: refused before it overflows
        out = tmp_path / "e.csv"
        code = run_cli(["e-alpha", "--chain-L", "2", "--alpha=0.3,0", "--alpha=1500,0", "--out", str(out)])
        assert code == 4
        _, rows = read_rows(out)
        assert len(rows) == 1
        assert abs(float(rows[0][2]) - 0.036025584191812676) < 1e-10
        assert "overflows" in caplog.text

    def test_rate_past_overflow_marks_point_and_exits_4(self, tmp_path):
        # zeta = 1e300 drives the search to the bound a = 3000, past the overflow
        out = tmp_path / "rate.csv"
        code = run_cli([
            "rate", "--chain-L", "2", "--zeta-min", "1", "--zeta-max", "1e300", "--points", "2",
            "--alpha-max", "3000", "--out", str(out),
        ])
        assert code == 4
        _, rows = read_rows(out)
        assert rows[0][3] == "1"
        assert rows[1][1:] == ["inf", "nan", "0"]


class TestRate:
    def test_single_curve(self, tmp_path):
        out = tmp_path / "rate.csv"
        code = run_cli([
            "rate", "--chain-L", "2", "--zeta-min", "0.0", "--zeta-max", "0.15",
            "--points", "16", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["zeta", "I", "alpha_star", "converged"]
        rates = np.array([float(r[1]) for r in rows])
        zetas = np.array([float(r[0]) for r in rows])
        assert rates.min() < 1e-4  # grid brackets the mean flux
        assert abs(zetas[rates.argmin()] - 0.0924) < 0.02
        assert all(r[3] == "1" for r in rows)

    def test_nonconvergence_keeps_partial_output(self, tmp_path):
        # a hopeless alpha cap makes every supremum escape the bracket: the
        # command exits 4 but still writes the rows with I = inf
        out = tmp_path / "rate.csv"
        code = run_cli([
            "rate", "--chain-L", "2", "--zeta-min", "0.2", "--zeta-max", "0.3",
            "--points", "3", "--alpha-max", "0.05", "--out", str(out),
        ])
        assert code == 4
        _, rows = read_rows(out)
        assert len(rows) == 3
        assert all(r[1] == "inf" and r[3] == "0" for r in rows)

    def test_three_bath_model_file(self, tmp_path):
        # bath 0's marginal of a 3-bath model
        model = random_thermal_model(np.random.default_rng(0), n_modes=3, n_baths=3, kind="uniform")
        path = tmp_path / "model.json"
        thermal.save_model(model, path)
        out = tmp_path / "rate.csv"
        code = run_cli([
            "rate", "--model", str(path), "--points", "7", "--zeta-min", "-0.2", "--zeta-max", "0.2",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["zeta", "I", "alpha_star", "converged"]
        assert len(rows) == 7 and all(r[3] == "1" for r in rows)

    def test_grid_containing_mean_flux(self, tmp_path):
        j = 0.09242343145200196
        out = tmp_path / "rate.csv"
        code = run_cli([
            "rate", "--chain-L", "2", "--zeta-min", str(j - 0.01), "--zeta-max", str(j + 0.01),
            "--points", "3", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_rows(out)
        assert min(float(r[1]) for r in rows) < 1e-8

    def test_multi_length_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli([
            "rate", "--chain-L", "2-4", "--zeta-min", "0.05", "--zeta-max", "0.15",
            "--points", "5", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["zeta", "I_L2", "I_L3", "I_L4"]
        assert len(rows) == 5

    def test_non_ergodic_sweep_exit_code(self, tmp_path, capsys):
        # every length is checked before any rate point, as for a single length
        for lengths in ("2", "2-3"):
            out = tmp_path / f"rate{lengths}.csv"
            code = run_cli([
                "rate", "--chain-L", lengths, "--theta0", "0", "--thetaL", "0",
                "--points", "3", "--out", str(out),
            ])
            assert code == 3
            assert not out.exists()
            assert "non-ergodic model" in capsys.readouterr().err


class TestOracle:
    def test_chain_suite_passes(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = run_cli(["oracle", "--chain-L", "2", "--alpha-samples", "4", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        assert all(r[3] == "1" for r in rows)

    @pytest.mark.parametrize("beta0", [25.0, 40.0])
    def test_cold_bath_passes(self, beta0):
        model = chain.build(chain.ChainSpec(length=2, beta0=beta0))
        failed = [(name, r, tol) for name, r, tol in cli._oracle_checks(model, 4, 0) if not r <= tol]
        assert failed == []

    @pytest.mark.parametrize("kind", ["chain", "spectral"])
    def test_five_modes_pass(self, kind):
        # a spectral L = 5 model needs 5 single-mode baths to be ergodic; seed 1 as in the CI pairing model.
        # Seeds 0, 3 and 4 stop at detailed_balance_residual's faithful-state refusal (ROADMAP Small fixes)
        if kind == "chain":
            model = chain.build(chain.ChainSpec(length=5))
        else:
            model = random_thermal_model(np.random.default_rng(1), n_modes=5, n_baths=5, kind="spectral")
        failed = [(name, r, tol) for name, r, tol in cli._oracle_checks(model, 4, 0) if not r <= tol]
        assert failed == []

    def test_corrupted_model_fails(self, tmp_path):
        # double the bath energy scale without touching the coupling: the
        # intertwining constraint breaks, and with it detailed balance
        model = chain.build(chain.ChainSpec(length=2, beta0=1.0, betaL=0.0))
        doc = thermal.model_to_dict(model)
        doc["baths"][0]["kappa"] = (2.0 * np.array(doc["baths"][0]["kappa"])).tolist()
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        code = run_cli(["oracle", "--model", str(path), "--alpha-samples", "2", "--out", str(out)])
        assert code == 5
        _, rows = read_rows(out)
        failed = {r[0] for r in rows if r[3] == "0"}
        assert "model_structure" in failed
        assert any(name.startswith("detailed_balance") for name in failed)

    def test_jumps_not_k_eigenoperators_abort(self, tmp_path):
        # kappa_S = T_S still commutes with H, but the end-site jumps no longer shift K by fixed energies
        doc = thermal.model_to_dict(chain.build(chain.ChainSpec(length=2, beta0=1.0, betaL=0.0)))
        doc["kappa_S"] = doc["T_S"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        code = run_cli(["oracle", "--model", str(path), "--alpha-samples", "2", "--out", str(out)])
        assert code == 5
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["model_structure", "aborted"]
        assert rows[0][3] == "0" and rows[1][3] == "0"

    def test_non_ergodic_exit_code(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = run_cli([
            "oracle", "--chain-L", "2", "--theta0", "0", "--thetaL", "0",
            "--alpha-samples", "2", "--out", str(out),
        ])
        assert code == 3
        assert not out.exists()
        assert "non-ergodic model" in capsys.readouterr().err


class TestMc:
    def test_summary_and_determinism(self, tmp_path):
        out1 = tmp_path / "mc1.csv"
        out2 = tmp_path / "mc2.csv"
        args = ["mc", "--chain-L", "2", "--trajectories", "60", "--T", "10", "--seed", "7"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
        assert h1 == h2
        text = out1.read_text()
        assert "# summary bath 0" in text

    def test_jump_log(self, tmp_path):
        out = tmp_path / "mc.csv"
        log = tmp_path / "jumps.csv"
        code = run_cli([
            "mc", "--chain-L", "2", "--trajectories", "5", "--T", "5", "--seed", "2",
            "--out", str(out), "--jump-log", str(log),
        ])
        assert code == 0
        lines = log.read_text().splitlines()
        assert lines[0] == "seed,t,bath,delta"
        assert len(lines) > 1

    def test_single_trajectory_no_warnings(self, tmp_path):
        out = tmp_path / "mc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([
                "mc", "--chain-L", "2", "--trajectories", "1", "--T", "10", "--seed", "1",
                "--out", str(out),
            ])
        assert code == 0
        summary = [l for l in out.read_text().splitlines() if l.startswith("# summary")]
        assert len(summary) == 2
        assert all("stderr nan" in l and l.endswith("z nan") for l in summary)

    def test_zero_trajectories_usage_error(self):
        assert run_cli(["mc", "--chain-L", "2", "--trajectories", "0", "--T", "5"]) == 1

    def test_non_ergodic(self):
        code = run_cli([
            "mc", "--chain-L", "2", "--theta0", "0", "--thetaL", "0",
            "--trajectories", "5", "--T", "1",
        ])
        assert code == 3


class TestMachine:
    def test_synthesize(self, tmp_path):
        out = tmp_path / "syn.csv"
        code = run_cli(["machine", "--synthesize", "1,-3,2", "--beta", "1,2,3", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        for r in rows:
            assert abs(float(r[2]) - float(r[3])) < 1e-6

    def test_infeasible_target(self):
        assert run_cli(["machine", "--synthesize", "1,1,-2", "--beta", "1,2,3"]) == 2

    def test_fridge_sweep(self, tmp_path):
        out = tmp_path / "fridge.csv"
        assert run_cli(["machine", "--sweep", "3", "--seed", "1", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header[:2] == ["E1", "E3"]
        assert len(rows) == 3
        for r in rows:
            assert float(r[-1]) < 1e-9  # proportionality residual


class TestChainSweep:
    def test_flux_constant_in_length(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["chain-sweep", "--chain-L", "2-6", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        fluxes = [float(r[1]) for r in rows]
        assert np.ptp(fluxes) < 1e-12
        assert max(float(r[-1]) for r in rows) < 1e-10

    def test_long_chains_match_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["chain-sweep", "--chain-L", "2-60", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [int(r[0]) for r in rows] == list(range(2, 61))
        assert max(float(r[-1]) for r in rows) <= 1e-10

    def test_one_sided_chain_accepted(self, tmp_path):
        # theta0 = 0 leaves one bath, which reaches every site: ergodic, no flux
        out = tmp_path / "sweep.csv"
        assert run_cli(["chain-sweep", "--chain-L", "2-3", "--theta0", "0", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [int(r[0]) for r in rows] == [2, 3]
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_unequal_couplings_match_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["chain-sweep", "--chain-L", "2-6", "--theta0", "2", "--thetaL", "1", "--out", str(out)]
        assert run_cli(args) == 0
        _, rows = read_rows(out)
        assert max(float(r[-1]) for r in rows) < 1e-12

    def test_uncoupled_chain_refused(self, capsys):
        assert run_cli(["chain-sweep", "--chain-L", "2-3", "--theta0", "0", "--thetaL", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-ergodic model" in captured.err


class TestDeterminism:
    def test_flux_byte_identical(self, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"f{k}.csv"
            run_cli(["flux", "--chain-L", "3", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
