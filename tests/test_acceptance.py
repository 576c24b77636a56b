"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success so the suite doubles as a checklist;
run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random

from helpers import (
    _fresh_allocations,
    oracle_agreement_cases,
    outcomes,
    random_small_state,
    random_term,
    renamed_copy,
    scenario,
    secrecy_violations,
    states_isomorphic,
    normalize_outermost,
)
from revlab.cli import main
from revlab.canonical import digest
from revlab.goals import (
    COUNTEREXAMPLE_FOUND,
    NO_COUNTEREXAMPLE,
    NO_WITNESS,
    WITNESS_FOUND,
)
from revlab.terms import App, normalize

DEFAULT_SCENARIOS = (
    ("plain", False),
    ("plain", True),
    ("rtoken", True),
    ("otoken", True),
)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_plain_baseline_is_clean():
    result, elapsed = scenario("plain")
    got = outcomes(result)
    assert got["g1"] == WITNESS_FOUND
    for g in ("g2", "g3", "g4"):
        assert got[g] == NO_COUNTEREXAMPLE
    assert elapsed <= 60, f"plain baseline took {elapsed:.1f}s"
    report(1, f"plain g1 witness, g2-g4 clean in {elapsed:.1f}s")


def test_criterion_2_plain_change_escapes_revocation():
    result, elapsed = scenario("plain", change=True)
    v = result.verdicts["g5"]
    assert v.outcome == NO_WITNESS
    assert "OSR_REQ_RECV" in v.explanation
    assert "CHANGE_PSEUDONYM" in v.explanation and "CanChange" in v.explanation
    report(2, "plain g5 no-witness; explanation names the consumed CanChange fact")


def test_criterion_3_rtoken_authentication_attack():
    result, elapsed = scenario("rtoken", change=True)
    got = outcomes(result)
    for g in ("g2", "g3", "g4", "g7"):
        assert got[g] == COUNTEREXAMPLE_FOUND
    assert got["g5"] == WITNESS_FOUND
    for g in ("g2", "g7"):
        ev = result.verdicts[g].evidence
        minted = [f for s in ev.steps for f in s.generated]
        assert minted, f"{g} counterexample lacks an adversary-generated key"
        accept_steps = [
            s for s in ev.steps if s.rule_id == "REV_AUTH_OSR_CONF_RECV"
        ]
        assert accept_steps and any(accept_steps[-1].input_synthesized)
        sig = accept_steps[-1].inputs[0].args[3]
        assert isinstance(sig, App) and sig.sym == "sign" and sig.args[1] in minted
        assert all(e.label != "OsrReqMsgRecvBy" for s in ev.steps for e in s.events)
    assert elapsed <= 120, f"rtoken run took {elapsed:.1f}s"
    report(3, f"rtoken g2/g3/g4/g7 attacks found, g5 witness, in {elapsed:.1f}s")


def test_criterion_4_otoken_is_clean():
    result, elapsed = scenario("otoken", change=True)
    got = outcomes(result)
    assert got["g1"] == WITNESS_FOUND and got["g5"] == WITNESS_FOUND
    for g in ("g2", "g3", "g4", "g6", "g7"):
        assert got[g] == NO_COUNTEREXAMPLE
    assert elapsed <= 120, f"otoken run took {elapsed:.1f}s"
    report(4, f"otoken g1/g5 witnesses, g2-g4/g6/g7 clean in {elapsed:.1f}s")


def test_criterion_5_synchronisation_implies_agreement():
    for protocol, change in DEFAULT_SCENARIOS:
        result, _ = scenario(protocol, change=change)
        got = outcomes(result)
        if got["g4"] == NO_COUNTEREXAMPLE:
            assert got["g3"] == NO_COUNTEREXAMPLE, f"{protocol}: g4 passed, g3 failed"
    report(5, "no run passes g4 while failing g3")


def test_criterion_6_oracle_equivalence():
    pairs = oracle_agreement_cases(seed=1009, rounds=30, deep_rounds=3)
    assert pairs >= 500

    rng = random.Random(1013)
    for _ in range(10_000):
        t = random_term(rng, rng.randint(0, 6))
        n = normalize(t)
        assert normalize(n) is n
        assert normalize_outermost(t) is n

    rng = random.Random(1019)
    checked = 0
    for _ in range(1000):
        s1 = random_small_state(rng)
        s2 = renamed_copy(s1, rng) if rng.random() < 0.5 else random_small_state(rng)
        assert (digest(s1) == digest(s2)) == states_isomorphic(s1, s2)
        checked += 1
    assert checked == 1000
    report(
        6,
        f"derivability agreement on {pairs} cases; normalization stable on 10^4 "
        "terms; digests match isomorphism on 10^3 state pairs",
    )


def test_criterion_7_secrets_stay_secret():
    scenarios = [(p, c, 1) for p, c in DEFAULT_SCENARIOS]
    scenarios += [(p, True, 2) for p in ("plain", "rtoken", "otoken")]
    for protocol, change, n_vehicles in scenarios:
        result, _ = scenario(protocol, change=change, n_vehicles=n_vehicles)
        bad = secrecy_violations(result.spec, result.traces)
        assert bad == [], f"{protocol} ({n_vehicles} vehicles): secrets leaked {bad}"
        # the check has teeth: every secret class the protocol mints is watched
        from revlab.protocols import SECRET_FRESH_VARS

        watched = {
            ident
            for t in result.traces
            for s in t.steps
            for ident, _ in _fresh_allocations(result.spec, s)
            if ident in SECRET_FRESH_VARS
        }
        expected = {"SKRA", "LTK", "SKPSi"}
        if protocol == "rtoken":
            expected |= {"Rn"}
        if protocol == "otoken":
            expected |= {"SKO"}
        assert expected <= watched, f"{protocol}: unwatched secrets {expected - watched}"
    report(7, "no long-term, pseudonym or token secret derivable in any explored state")


def test_criterion_8_deterministic_output(capsys):
    argv = [
        "--protocol", "rtoken", "--goals", "all", "--change",
        "--output", "json", "--deterministic",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["stats"]["elapsed_s"] == 0.0
    report(8, "byte-identical JSON across reruns")
