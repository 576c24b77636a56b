"""Command-line front end: flag parsing, runs, exit codes, regression mode."""

import json
from pathlib import Path

import pytest

from revlab.cli import main, parse_config
from revlab.explorer import Bounds


REFERENCE = Path(__file__).resolve().parent.parent / "reference"


def parse(argv):
    return parse_config(argv)


class TestParseConfig:
    def test_goal_selection(self):
        cfg = parse(["--protocol", "rtoken", "--goals", "g2", "--change"])
        assert cfg.protocol == "rtoken"
        assert cfg.goals == ("g2",)
        assert cfg.change_enabled

    def test_change_goal_without_change_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse(["--protocol", "plain", "--goals", "g5"])
        assert exc.value.code == 2

    def test_defaults(self):
        cfg = parse([])
        assert cfg.protocol == "plain"
        assert cfg.goals == ()  # all applicable
        assert not cfg.change_enabled
        assert cfg.bounds == Bounds()
        assert cfg.n_vehicles == 1

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            parse(["--frobnicate"])

    def test_invalid_goal_names_are_listed(self, capsys):
        with pytest.raises(SystemExit):
            parse(["--goals", "g2,g8,bogus"])
        err = capsys.readouterr().err
        assert "g8" in err and "bogus" in err

    def test_bounds_flags(self):
        cfg = parse(["--max-steps", "9", "--fresh-budget", "2"])
        assert cfg.bounds.max_steps == 9
        assert cfg.bounds.adversary_fresh_budget == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfile = tmp_path / "scenario.json"
        cfile.write_text(
            json.dumps(
                {
                    "protocol": "otoken",
                    "change_enabled": True,
                    "bounds": {"max_steps": 10},
                    "output": "json",
                }
            )
        )
        cfg = parse(["--config", str(cfile)])
        assert cfg.protocol == "otoken" and cfg.change_enabled
        assert cfg.bounds.max_steps == 10 and cfg.output == "json"
        cfg2 = parse(["--config", str(cfile), "--protocol", "plain", "--max-steps", "7"])
        assert cfg2.protocol == "plain" and cfg2.bounds.max_steps == 7

    @pytest.mark.parametrize(
        "content",
        [
            {"bounds": {"max_steps": "5"}},
            {"n_vehicles": "2"},
            {"n_vehicles": True},
            {"bounds": {"max_steps": 2.5}},
            {"bounds": {"max_stepz": 5}},
            {"bounds": [5]},
            {"change_enabled": "yes"},
            {"output": "xml"},
            {"trace_render": "svg"},
            {"goals": 7},
            {"maxsteps": 5},
            [1, 2],
        ],
    )
    def test_mistyped_config_is_a_usage_error(self, tmp_path, capsys, content):
        cfile = tmp_path / "scenario.json"
        cfile.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            parse(["--config", str(cfile)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestMain:
    def test_json_run_reports_attack(self, capsys):
        code = main(
            ["--protocol", "rtoken", "--goals", "g2", "--change", "--output", "json",
             "--deterministic"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        (entry,) = doc["results"]
        assert entry["goal"] == "g2"
        assert entry["outcome"] == "counterexample-found"
        assert entry["evidence"]["steps"]

    def test_expect_match_exits_zero(self, capsys):
        code = main(
            ["--protocol", "otoken", "--goals", "all", "--change",
             "--expect", "reference/otoken.json", "--output", "json", "--deterministic"]
        )
        capsys.readouterr()
        assert code == 0

    @pytest.mark.parametrize("protocol", ["plain", "rtoken", "otoken"])
    def test_three_vehicle_reference_matrix(self, protocol, capsys):
        code = main(
            ["--protocol", protocol, "--goals", "all", "--change", "--vehicles", "3",
             "--expect", str(REFERENCE / f"{protocol}_3v.json"),
             "--output", "json", "--deterministic"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "expect_mismatches" not in doc
        assert doc["stats"]["truncated_traces"] == 0

    def test_expect_plain_records_no_witness(self, capsys):
        code = main(
            ["--protocol", "plain", "--goals", "g5", "--change",
             "--expect", "reference/plain.json", "--output", "json", "--deterministic"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        (entry,) = doc["results"]
        assert entry["outcome"] == "no-witness-within-bounds"

    def test_expect_mismatch_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"verdicts": {"g2": "no-counterexample-within-bounds"}}))
        code = main(
            ["--protocol", "rtoken", "--goals", "g2", "--change",
             "--expect", str(bad), "--output", "json", "--deterministic"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["expect_mismatches"]

    def test_missing_expect_file_is_a_usage_error(self, capsys):
        code = main(["--protocol", "plain", "--expect", "/no/such/matrix.json"])
        capsys.readouterr()
        assert code == 2

    def test_expect_without_verdicts_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "doc.json"
        bad.write_text(json.dumps({"results": []}))
        code = main(["--protocol", "plain", "--expect", str(bad)])
        assert code == 2
        assert "verdicts" in capsys.readouterr().err

    def test_failed_evidence_replay_exits_two(self, capsys, monkeypatch):
        import revlab.report
        from revlab.explorer import ReplayMismatchError

        def diverging(*args, **kwargs):
            raise ReplayMismatchError("step 0 (SETUP_VEHICLE) is not enabled on replay")

        monkeypatch.setattr(revlab.report, "replay", diverging)
        code = main(["--protocol", "rtoken", "--goals", "g2", "--change"])
        captured = capsys.readouterr()
        assert code == 2
        assert "internal invariant violation" in captured.err
        assert captured.out == ""

    def test_version_flag(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "revlab" in capsys.readouterr().out

    def test_deterministic_runs_are_byte_identical(self, capsys):
        argv = ["--protocol", "plain", "--output", "json", "--deterministic"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_byte_identical_across_processes_and_hash_seeds(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import revlab

        src = str(Path(revlab.__file__).resolve().parent.parent)
        for args in (
            ["--goals", "g2", "--max-steps", "8"],
            # two vehicles: the key permutes them, and every goal is judged
            ["--goals", "all", "--vehicles", "2", "--max-steps", "7"],
        ):
            argv = [sys.executable, "-m", "revlab", "--protocol", "rtoken", "--change",
                    *args, "--output", "json", "--deterministic"]
            outs = []
            for seed in ("1", "99991"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                got = subprocess.run(argv, capture_output=True, env=env, check=True)
                outs.append(got.stdout)
            assert outs[0] == outs[1], args


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up stays cheap: dataclasses imports inspect, which imports ast,
    dis and tokenize, and a dataclass compiles its methods at import."""
    import os
    import subprocess
    import sys

    import revlab

    src = str(Path(revlab.__file__).resolve().parent.parent)
    probe = "import sys, revlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # -S: .pth files of the installation may import modules of their own
    got = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert got.stdout.strip() == "[]"
