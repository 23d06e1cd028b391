import hashlib
import json
import logging

import numpy as np

from fermiflux import chain, cli, deviations, thermal
from fermiflux.errors import InternalConsistencyError


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
        monkeypatch.setattr(deviations, "e_two_bath", _failing_past(deviations.e_two_bath, 1.0))
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

    def test_e_alpha_keeps_rows_and_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(deviations, "e_alpha", _failing_past(deviations.e_alpha, 1.0))
        out = tmp_path / "e.csv"
        code = run_cli(["e-alpha", "--chain-L", "2", "--alpha", "0.3,0", "--alpha", "2,0", "--out", str(out)])
        assert code == 4
        _, rows = read_rows(out)
        assert len(rows) == 1
        assert abs(float(rows[0][2]) - 0.036025584191812676) < 1e-10


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


class TestDeterminism:
    def test_flux_byte_identical(self, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"f{k}.csv"
            run_cli(["flux", "--chain-L", "3", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
