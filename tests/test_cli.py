"""CLI: exit codes, CSV schema and precision, audit replay command."""

import base64
import copy
import csv
import json
import subprocess
import sys

import pytest

from conftest import cli_env
from uwbpol import cli, sim
from uwbpol.cli import CSV_COLUMNS, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION_FAILED, main


def run_main(args):
    return main(args)


class TestRunCommand:
    def test_runs_without_numpy(self):
        # numpy is a test dependency only: the package imports and runs a
        # preset with every import of numpy refused.
        code = ("import sys; sys.modules['numpy'] = None; import uwbpol; "
                "from uwbpol import cli; sys.exit(cli.main(['run', '--preset', 'fig4']))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=cli_env())
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "fig4: 2 attempts" in proc.stdout

    def test_preset_run_writes_expected_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_main(["run", "--preset", "fig4", "--seed", "7",
                         "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert all(r["verdict"] == "accepted" for r in rows)
        assert all(r["terminal_state"] == "AUTHORIZED" for r in rows)

    def test_identical_runs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(["run", "--preset", "fig4", "--seed", "7", "--out", str(a)]) == EXIT_OK
        assert run_main(["run", "--preset", "fig4", "--seed", "7", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_csv_roundtrips_floats_exactly(self, tmp_path):
        out = tmp_path / "r.csv"
        run_main(["run", "--preset", "fig4", "--seed", "3", "--out", str(out)])
        from uwbpol import sim

        report = sim.run(sim.get_preset("fig4"), seed_override=3)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, rec in zip(rows, report.records):
            assert float(row["est_x"]) == rec.estimate.position.x
            assert float(row["est_y"]) == rec.estimate.position.y
            assert float(row["error_radius_m"]) == rec.estimate.error_radius
            assert float(row["likelihood"]) == rec.verdict.likelihood

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = run_main(["run", str(tmp_path / "missing.json")])
        assert code == EXIT_USAGE

    def test_no_scenario_at_all(self, capsys):
        assert run_main(["run"]) == EXIT_USAGE

    def test_scenario_and_preset_conflict(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text("{}")
        assert run_main(["run", str(path), "--preset", "fig4"]) == EXIT_USAGE

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "nodir" / "r.csv"
        code = run_main(["run", "--preset", "fig4", "--seed", "7", "--out", str(target)])
        assert code == EXIT_IO


    def test_huge_coordinate_usage_error(self, tmp_path, capsys):
        doc = copy.deepcopy(sim._PRESETS["fig4"])
        doc["anchors"][0]["x"] = 10**400
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run_main(["run", str(path)]) == EXIT_USAGE
        assert "anchors[0].x" in capsys.readouterr().err

    def test_negative_seed_usage_error(self, capsys):
        assert run_main(["run", "--preset", "fig4", "--seed", "-1"]) == EXIT_USAGE
        assert "seed" in capsys.readouterr().err

    def test_channel_above_ceiling_usage_error(self, tmp_path, capsys):
        doc = copy.deepcopy(sim._PRESETS["fig4"])
        doc["channel"]["bias"] = 1e17
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run_main(["run", str(path)]) == EXIT_USAGE
        assert "channel.bias" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_main(["sweep", "--preset", "fig4", "--param", "buffer",
                         "--values", "0.01,1.0", "--reps", "5", "--out", str(out)])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["acceptance_rate"]) <= float(rows[1]["acceptance_rate"])

    def test_empty_values_usage_error(self, capsys):
        code = run_main(["sweep", "--preset", "fig4", "--param", "buffer",
                         "--values", "", "--reps", "2"])
        assert code == EXIT_USAGE

    def test_bad_values_usage_error(self, capsys):
        code = run_main(["sweep", "--preset", "fig4", "--param", "buffer",
                         "--values", "a,b", "--reps", "2"])
        assert code == EXIT_USAGE

    def test_nan_value_usage_error(self, capsys):
        code = run_main(["sweep", "--preset", "fig4", "--param", "buffer",
                         "--values", "nan", "--reps", "2"])
        assert code == EXIT_USAGE
        assert "buffer" in capsys.readouterr().err

    def test_noise_above_ceiling_usage_error(self, capsys):
        code = run_main(["sweep", "--preset", "fig4", "--param", "noise_sigma",
                         "--values", "1e160", "--reps", "1"])
        assert code == EXIT_USAGE
        assert "channel.noise_sigma" in capsys.readouterr().err

    def test_zero_reps_usage_error(self, capsys):
        code = run_main(["sweep", "--preset", "fig4", "--param", "buffer",
                         "--values", "1.0", "--reps", "0"])
        assert code == EXIT_USAGE

    def test_stdout_and_out_file_same_bytes(self, tmp_path, capsys):
        args = ["sweep", "--preset", "fig4", "--param", "buffer", "--values", "0.5,1", "--reps", "2"]
        assert run_main(args) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "s.csv"
        assert run_main(args + ["--out", str(out)]) == EXIT_OK
        assert printed.encode("utf-8") == out.read_bytes()
        assert printed.startswith("parameter,value,") and printed.endswith("\r\n")

    def test_unknown_param_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            run_main(["sweep", "--preset", "fig4", "--param", "nope", "--values", "1"])
        assert exc.value.code == EXIT_USAGE


class TestReplayCommand:
    def _make_log(self, tmp_path):
        audit = tmp_path / "audit.log"
        run_main(["run", "--preset", "fig4", "--seed", "5", "--audit", str(audit)])
        return audit

    def test_untouched_log_ok(self, tmp_path, capsys):
        audit = self._make_log(tmp_path)
        assert run_main(["replay", "--audit", str(audit)]) == EXIT_OK

    def test_flipped_payload_byte_reports_height(self, tmp_path, capsys):
        audit = self._make_log(tmp_path)
        lines = audit.read_text().splitlines()
        target_idx, target_height = None, None
        for i, line in enumerate(lines):
            parts = line.split("\t")
            if parts[2] == "pol" and parts[0] == "3":
                target_idx, target_height = i, 3
                raw = bytearray(base64.b64decode(parts[6]))
                raw[0] ^= 0x40
                parts[6] = base64.b64encode(bytes(raw)).decode()
                lines[i] = "\t".join(parts)
                break
        assert target_idx is not None
        audit.write_text("\n".join(lines) + "\n")
        code = run_main(["replay", "--audit", str(audit)])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFICATION_FAILED
        assert f"height {target_height}" in captured.err

    def test_truncated_log(self, tmp_path, capsys):
        audit = self._make_log(tmp_path)
        raw = audit.read_text()
        audit.write_text(raw[:-20])
        code = run_main(["replay", "--audit", str(audit)])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFICATION_FAILED
        assert "unexpected end" in captured.err

    def test_not_utf8_log(self, tmp_path, capsys):
        audit = tmp_path / "audit.log"
        audit.write_bytes(b"\xff\xfe\x00")
        code = run_main(["replay", "--audit", str(audit)])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFICATION_FAILED
        assert "cannot read audit log" in captured.err

    def test_missing_audit_file(self, tmp_path, capsys):
        assert run_main(["replay", "--audit", str(tmp_path / "none.log")]) == EXIT_IO


class TestProcessLevelDeterminism:
    def test_two_invocations_byte_identical(self, tmp_path):
        # Fresh processes get different hash randomization, so this also
        # guards against accidental set-iteration in the output path.
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{tag}.csv"
            audit = tmp_path / f"{tag}.log"
            proc = subprocess.run(
                [sys.executable, "-m", "uwbpol", "run", "--preset", "fig4",
                 "--seed", "11", "--out", str(out), "--audit", str(audit)],
                capture_output=True, text=True, timeout=300, env=cli_env(),
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            outs.append((out.read_bytes(), audit.read_bytes()))
        assert outs[0] == outs[1]
