"""Command-line front end: flag parsing, runs, exit codes, regression mode."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import reference_parse_config
from revlab import cli
from revlab.cli import ScenarioConfig, main, parse_config
from revlab.explorer import Bounds


REFERENCE = Path(__file__).resolve().parent.parent / "reference"
# Two files json.load cannot read: not UTF-8, and nested past the recursion limit.
BAD_UTF8 = pytest.param(b"\xff\xfe{}", id="bad-utf8")
TOO_DEEP = pytest.param(b"[" * 100_000 + b"]" * 100_000, id="too-deep")


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
            BAD_UTF8,
            TOO_DEEP,
        ],
    )
    def test_mistyped_config_is_a_usage_error(self, tmp_path, capsys, content):
        cfile = tmp_path / "scenario.json"
        if isinstance(content, bytes):
            cfile.write_bytes(content)
        else:
            cfile.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            parse(["--config", str(cfile)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "content, argv, message",
        [
            ({"bounds": {"max_steps": "x"}}, [],
             "config file {path}: max_steps must be an integer >= 0, got 'x'"),
            ({"goals": ["g9"]}, [], "config file {path}: invalid goal name(s): g9;"),
            ({"goals": "g5"}, [], "config file {path}: goal(s) g5 require --change"),
            ({"n_vehicles": 0}, [],
             "config file {path}: n_vehicles must be an integer >= 1, got 0"),
            ({}, ["--max-steps", "-1"],
             "argument --max-steps: max_steps must be an integer >= 0, got -1"),
            ({}, ["--goals", "g9"], "argument --goals: invalid goal name(s): g9;"),
            ({}, ["--vehicles", "0"],
             "argument --vehicles: n_vehicles must be an integer >= 1, got 0"),
            ({"bounds": {"max_steps": 3}}, ["--max-changes", "-2"],
             "argument --max-changes: max_changes must be an integer >= 0, got -2"),
            ({"goals": "g1"}, ["--goals", "g8"], "argument --goals: invalid goal"),
        ],
        ids=["file-bound", "file-goal", "file-change-goal", "file-vehicles", "flag-bound",
             "flag-goal", "flag-vehicles", "flag-bound-with-file", "flag-goal-over-file"],
    )
    def test_a_bad_value_names_its_file_or_flag(self, tmp_path, capsys, content, argv,
                                                 message):
        cfile = tmp_path / "scenario.json"
        cfile.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            parse(["--config", str(cfile), *argv])
        assert exc.value.code == 2
        assert f"error: {message.format(path=cfile)}" in capsys.readouterr().err


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

    # Two vehicles ride along under ids ending in -2v, so the three-vehicle
    # cases keep the protocol names as their ids.
    @pytest.mark.parametrize("protocol,vehicles", [
        *(pytest.param(p, 3, id=p) for p in ("plain", "rtoken", "otoken")),
        *(pytest.param(p, 2, id=f"{p}-2v") for p in ("plain", "rtoken", "otoken")),
    ])
    def test_three_vehicle_reference_matrix(self, protocol, vehicles, capsys):
        code = main(
            ["--protocol", protocol, "--goals", "all", "--change",
             "--vehicles", str(vehicles),
             "--expect", str(REFERENCE / f"{protocol}_{vehicles}v.json"),
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

    @pytest.mark.parametrize("args,field", [
        (["--protocol", "otoken", "--expect", "reference/plain_nochange.json"], "protocol"),
        (["--protocol", "plain", "--expect", "reference/plain.json"], "change_enabled"),
    ])
    def test_expect_of_another_protocol_or_change_flag_exits_one(self, args, field, capsys):
        code = main(args + ["--output", "json", "--deterministic"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert any(m.startswith(f"{field}: ") for m in doc["expect_mismatches"])

    def test_missing_expect_file_is_a_usage_error(self, capsys):
        code = main(["--protocol", "plain", "--expect", "/no/such/matrix.json"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("content", [None, BAD_UTF8, TOO_DEEP])
    def test_bad_expect_file_fails_before_the_search(
        self, tmp_path, capsys, monkeypatch, content
    ):
        import revlab.goals

        def explore(*args, **kwargs):
            raise AssertionError("searched before reading the --expect file")

        monkeypatch.setattr(revlab.goals, "explore", explore)
        path = tmp_path / "matrix.json"
        if content is not None:
            path.write_bytes(content)
        code = main(["--protocol", "rtoken", "--change", "--vehicles", "3", "--reveals",
                     "--max-steps", "20", "--expect", str(path)])
        assert code == 2
        assert "error: cannot read reference matrix" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_flag(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: revlab [-h] [--version]")
        options = out.split("\noptions:\n")[1].splitlines()
        listed = {
            word.rstrip(",")
            for line in options if line[2:3] == "-"
            for word in line.split() if word.startswith("-")
        }
        assert listed == {"-h", "--help", "--version", *(row[0] for row in cli._FLAGS)}

    def test_deterministic_runs_are_byte_identical(self, capsys):
        argv = ["--protocol", "plain", "--output", "json", "--deterministic"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_byte_identical_across_processes_and_hash_seeds(self):
        import hashlib
        import os
        import subprocess
        import sys
        from pathlib import Path

        import revlab

        src = str(Path(revlab.__file__).resolve().parent.parent)
        rows = [
            (["--protocol", "rtoken", "--change", "--goals", "g2", "--max-steps", "8"], None),
            # two vehicles: the key permutes them, and every goal is judged
            (["--protocol", "rtoken", "--change", "--goals", "all", "--vehicles", "2",
              "--max-steps", "7"], None),
            *((args.split() + _PINNED_FLAGS, digest) for args, digest in _PINNED_REPORTS),
        ]
        for args, expected in rows:
            argv = [sys.executable, "-m", "revlab", *args, "--output", "json",
                    "--deterministic"]
            outs = []
            for seed in ("1", "99991"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                got = subprocess.run(argv, capture_output=True, env=env, check=True)
                outs.append(got.stdout)
            assert outs[0] == outs[1], args
            if expected is not None:
                assert hashlib.sha256(outs[0]).hexdigest() == expected, args


# The sha256 of whole JSON reports, charts included, so that a change to the
# search, the evidence or the report that alters one byte shows here.
_PINNED_FLAGS = ["--trace", "msc", "--goals", "all"]
_PINNED_REPORTS = (
    ("--protocol plain",
     "c15293838a5b3bb30317ee864c62aafdafc7e9ab4409cdd4e5686a6ad53278cd"),
    ("--protocol plain --change",
     "c063096fdd1ec5fe006ef419dc5889cad3ad5dd1088af38b23094b46582bb5c7"),
    ("--protocol rtoken --change",
     "6698a8f4fea86405e04997937a8ae916debabcb6e9e3e3ab7fae4bef578b87fd"),
    ("--protocol otoken --change",
     "db37d3fd5a414161d6dcb934edf1a88808e9a9d5cb60707033e4ff415db4056a"),
    ("--protocol otoken --change --reveals --max-steps 5",
     "8ee3802af4967a6de9a813e5dba30da14c189949f5a62b6cad1c01fc3689ec5d"),
    ("--protocol rtoken --change --vehicles 2 --max-steps 7",
     "4902c93d60ac192803f621472a272cfdbc26edb6748151d2b9f6d1f90bc48f3c"),
)


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Start-up stays cheap: dataclasses imports inspect, which imports ast,
    dis and tokenize, and a dataclass compiles its methods at import;
    typing costs its own import, and a typing.NamedTuple compiles each of its
    postponed annotations; argparse imports gettext, and its first parser
    imports locale."""
    import os
    import subprocess
    import sys

    import revlab

    src = str(Path(revlab.__file__).resolve().parent.parent)
    probe = (
        "import sys, revlab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'argparse', 'gettext', 'locale'}"
        " & set(sys.modules)))"
    )
    # -S: .pth files of the installation may import modules of their own
    got = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert got.stdout.strip() == "[]"


def test_import_compiles_no_namedtuple():
    """No record is a collections.namedtuple, which compiles a generated
    __new__ with eval for every record at import.  The standard library's
    own namedtuples (json imports re, which imports functools) still work."""
    import os
    import subprocess
    import sys

    import revlab

    src = str(Path(revlab.__file__).resolve().parent.parent)
    probe = (
        "import collections, sys\n"
        "namedtuple = collections.namedtuple\n"
        "def refuse(*args, **kwargs):\n"
        "    caller = sys._getframe(1).f_globals.get('__name__', '')\n"
        "    if caller.partition('.')[0] == 'revlab':\n"
        "        raise AssertionError(f'{caller} calls collections.namedtuple')\n"
        "    return namedtuple(*args, **kwargs)\n"
        "collections.namedtuple = refuse\n"
        "import revlab.cli\n"
        "print(revlab.cli.ScenarioConfig())\n"
    )
    got = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.startswith("ScenarioConfig(protocol='plain'")


# --- the flag table against the argparse reference ---------------------------

_LONG = ["--help", "--version", *(row[0] for row in cli._FLAGS)]
_VALUES = [
    # ints, valid and not, negative ones included
    "0", "1", "3", "14", "-1", "-7", " 2", "1_0", "1.5", "-1.5", "-.5", "-5.", "x",
    # choice words and goal lists
    "plain", "rtoken", "otoken", "text", "json", "none", "msc", "all", "g1", "g2,g3",
    "g5", "G4", "g9",
    # junk
    "", "-", "-x", "---", "--frob", "a b", "-a b",
]
# Not in the vocabulary, where the parsers differ on purpose: "--", after
# which argparse takes every token as a value (and argparse 3.11 reads
# "--goals=--" as no goals); "-h" with text attached ("-hx"), which argparse
# splits into single-letter flags; "--=x", a prefix of every long flag to
# argparse. The table reads each as an unknown option.
_FLAG_WORDS = ["-h", *_LONG, *(n[:k] for n in _LONG for k in range(3, len(n)))]
_ARGV_WORDS = (
    _FLAG_WORDS + _VALUES + [f"{flag}={v}" for flag in _FLAG_WORDS for v in _VALUES[::3]]
)


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(argv)
    except SystemExit as exc:
        if exc.code != 0:
            assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()
        return exc.code


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenario.json"
    path.write_text(json.dumps(
        {"protocol": "otoken", "goals": ["g5"], "change_enabled": True,
         "bounds": {"max_steps": 9}, "n_vehicles": 2, "output": "json"}
    ))
    return str(path)


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(st.sampled_from(_ARGV_WORDS + ["CONFIG"]), max_size=6))
def test_parse_config_matches_the_argparse_reference(config_file, argv):
    """Every argv drawn from the vocabulary gives the same ScenarioConfig,
    or the same exit code, from the flag table and from argparse."""
    argv = [config_file if word == "CONFIG" else word for word in argv]
    assert _outcome(parse_config, argv) == _outcome(reference_parse_config, argv)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["plain", "rtoken", "text", "json", "msc", "all", "g1,g2", "g5"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from([*Bounds._fields, "max_stepz"]), inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_CONFIG_KEYS = st.sampled_from([*cli._CONFIG_FIELDS, "config", "maxsteps", ""])


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.dictionaries(_CONFIG_KEYS, _JSON, max_size=4))
def test_any_config_file_gives_a_config_or_a_usage_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_text(json.dumps(content))
    got = _outcome(parse_config, ["--config", str(path)])
    assert isinstance(got, ScenarioConfig) or got == 2
