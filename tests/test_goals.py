"""Goal predicates on constructed fixtures and on real protocol runs."""

import pytest

from helpers import outcomes, scenario
from revlab import Bounds, build_protocol, run_all
from revlab.explorer import Trace, TraceSet, Bounds as B
from revlab.goals import (
    COUNTEREXAMPLE_FOUND,
    NO_COUNTEREXAMPLE,
    NO_WITNESS,
    GOAL_IDS,
    WITNESS_FOUND,
    _evaluate,
    _explain_g5_failure,
    applicable_goals,
    g2_violation,
    g5_witness,
)
from revlab.explorer import Step
from revlab.rewriting import Event
from revlab.terms import fresh, name, pk, render
from revlab import recheck


RA = name("RA")
V1 = name("V1")
T = pk(fresh(400))
T2 = pk(fresh(401))


def ev(label, *args, time):
    return Event(label, tuple(args), time=time)


def mk_trace(*events) -> Trace:
    step = Step(
        rule_id="FIXTURE",
        binding=(),
        inputs=(),
        input_synthesized=(),
        input_derivations=(),
        generated=(),
        events=tuple(events),
    )
    from revlab.rewriting import make_state

    return Trace(steps=(step,), terminal_state=make_state(), truncated=False)


def mk_traceset(*traces) -> TraceSet:
    return TraceSet(traces=tuple(traces), bounds=B())


class TestFixtureTraces:
    def test_empty_trace_set_has_no_witness(self):
        v = _evaluate("g1", mk_traceset())
        assert v.outcome == NO_WITNESS

    def test_lone_confirmation_violates_g6(self):
        t = mk_trace(ev("OsrConfSentBy", V1, RA, T, time=0))
        v = _evaluate("g6", mk_traceset(t))
        assert v.outcome == COUNTEREXAMPLE_FOUND

    def test_request_before_confirmation_satisfies_g6(self):
        t = mk_trace(
            ev("OsrReqMsgSentTo", RA, V1, T, time=0),
            ev("OsrConfSentBy", V1, RA, T, time=1),
        )
        v = _evaluate("g6", mk_traceset(t))
        assert v.outcome == NO_COUNTEREXAMPLE

    def test_accept_preceded_by_receive_satisfies_g7(self):
        t = mk_trace(
            ev("OsrReqMsgRecvBy", V1, RA, T, time=0),
            ev("OsrConfAcceptedBy", RA, V1, T, time=1),
        )
        v = _evaluate("g7", mk_traceset(t))
        assert v.outcome == NO_COUNTEREXAMPLE

    def test_accept_without_receive_violates_g7_and_g2(self):
        t = mk_trace(ev("OsrConfAcceptedBy", RA, V1, T, time=0))
        assert _evaluate("g7", mk_traceset(t)).outcome == COUNTEREXAMPLE_FOUND
        assert _evaluate("g2", mk_traceset(t)).outcome == COUNTEREXAMPLE_FOUND

    def test_receive_after_accept_still_violates_g2(self):
        t = mk_trace(
            ev("OsrConfAcceptedBy", RA, V1, T, time=0),
            ev("OsrReqMsgRecvBy", V1, RA, T, time=1),
        )
        assert g2_violation(t)

    def test_reveal_guard_excludes_compromised_vehicle(self):
        t = mk_trace(
            ev("RevealLtk", V1, time=0),
            ev("OsrConfAcceptedBy", RA, V1, T, time=1),
        )
        assert not g2_violation(t)
        assert _evaluate("g2", mk_traceset(t)).outcome == NO_COUNTEREXAMPLE

    def test_reveal_after_the_accept_does_not_excuse(self):
        # prefixes are executions: the forgery happened while keys were safe
        t = mk_trace(
            ev("OsrConfAcceptedBy", RA, V1, T, time=0),
            ev("RevealLtk", V1, time=1),
        )
        assert g2_violation(t)
        assert _evaluate("g2", mk_traceset(t)).outcome == COUNTEREXAMPLE_FOUND

    def test_token_mismatch_is_a_violation(self):
        t = mk_trace(
            ev("OsrReqMsgRecvBy", V1, RA, T2, time=0),
            ev("OsrConfAcceptedBy", RA, V1, T, time=1),
        )
        assert g2_violation(t)

    def test_g5_needs_report_change_confirm_in_order(self):
        good = mk_trace(
            ev("Reported", V1, T, time=0),
            ev("ChangePseudonymForVehicle", V1, T, T2, time=1),
            ev("OsrConfSentBy", V1, RA, T, time=2),
        )
        assert g5_witness(good)
        wrong_order = mk_trace(
            ev("ChangePseudonymForVehicle", V1, T, T2, time=0),
            ev("Reported", V1, T, time=1),
            ev("OsrConfSentBy", V1, RA, T, time=2),
        )
        assert not g5_witness(wrong_order)
        confirm_before_change = mk_trace(
            ev("Reported", V1, T, time=0),
            ev("OsrConfSentBy", V1, RA, T, time=1),
            ev("ChangePseudonymForVehicle", V1, T, T2, time=2),
        )
        assert not g5_witness(confirm_before_change)

    def test_recheck_agrees_on_fixtures(self):
        cases = [
            mk_trace(ev("OsrConfAcceptedBy", RA, V1, T, time=0)),
            mk_trace(
                ev("OsrReqMsgRecvBy", V1, RA, T, time=0),
                ev("OsrConfAcceptedBy", RA, V1, T, time=1),
            ),
            mk_trace(ev("RevealLtk", V1, time=0), ev("OsrConfAcceptedBy", RA, V1, T, time=1)),
        ]
        for t in cases:
            for goal in ("g2", "g7"):
                from revlab.goals import _PREDICATES

                assert _PREDICATES[goal](t) == recheck.holds(goal, t.events)


V2 = name("V2")
M = name("M")

# Timing edge cases, one step each.  Expected: whether g1..g7 hold (1 = the
# pattern occurs), as the event predicates the monitors replaced judged them.
TIMING_FIXTURES = {
    "receive at the accept's timepoint is not earlier": (
        "0101001",
        [("OsrReqMsgRecvBy", (V1, RA, T), 0), ("OsrConfAcceptedBy", (RA, V1, T), 0)],
    ),
    "reveal at the accept's timepoint excuses": (
        "0000000",
        [("OsrConfAcceptedBy", (RA, V1, T), 0), ("RevealLtk", (V1,), 0)],
    ),
    "Running at the commit's timepoint is not earlier": (
        "0011000",
        [("Running", (RA, V1, M), 0), ("Commit", (RA, V1, M), 0)],
    ),
    "earlier Running": (
        "0000000",
        [("Running", (RA, V1, M), 0), ("Commit", (RA, V1, M), 1)],
    ),
    "revealed committer": (
        "0000000",
        [("Commit", (V1, RA, M), 1), ("RevealSKPSi", (V1,), 1)],
    ),
    "request at the confirmation's timepoint is not earlier": (
        "0000010",
        [("OsrReqMsgSentTo", (RA, V1, T), 0), ("OsrConfSentBy", (V1, RA, T), 0)],
    ),
    "compromise at the confirmation's timepoint excuses": (
        "0000000",
        [("OsrConfSentBy", (V1, RA, T), 0), ("VehicleCompromised", (V1,), 0)],
    ),
    "G1 chain within one timepoint, in position order": (
        "1101011",
        [
            ("Reported", (V1, T), 0),
            ("OsrReqMsgSentTo", (RA, V1, T), 0),
            ("OsrReqMsgRecvBy", (V1, RA, T), 0),
            ("OsrConfSentBy", (V1, RA, T), 0),
            ("OsrConfAcceptedBy", (RA, V1, T), 0),
        ],
    ),
    "G1 chain out of position order": (
        "0101011",
        [
            ("Reported", (V1, T), 0),
            ("OsrReqMsgSentTo", (RA, V1, T), 0),
            ("OsrReqMsgRecvBy", (V1, RA, T), 0),
            ("OsrConfAcceptedBy", (RA, V1, T), 0),
            ("OsrConfSentBy", (V1, RA, T), 0),
        ],
    ),
    "G1 chain across a repeated report": (
        "1000000",
        [
            ("Reported", (V1, T), 0),
            ("OsrReqMsgSentTo", (RA, V1, T), 1),
            ("Reported", (V1, T), 2),
            ("OsrReqMsgRecvBy", (V1, RA, T), 3),
            ("OsrConfSentBy", (V1, RA, T), 4),
            ("OsrConfAcceptedBy", (RA, V1, T), 5),
        ],
    ),
    "G1 request to another vehicle": (
        "0000010",
        [
            ("Reported", (V1, T), 0),
            ("OsrReqMsgSentTo", (RA, V2, T), 1),
            ("OsrReqMsgRecvBy", (V1, RA, T), 3),
            ("OsrConfSentBy", (V1, RA, T), 4),
            ("OsrConfAcceptedBy", (RA, V1, T), 5),
        ],
    ),
    "change at the report's timepoint": (
        "0000010",
        [
            ("Reported", (V1, T), 0),
            ("ChangePseudonymForVehicle", (V1, T, T2), 0),
            ("OsrConfSentBy", (V1, RA, T), 1),
        ],
    ),
    "confirmation at the change's timepoint": (
        "0000010",
        [
            ("Reported", (V1, T), 0),
            ("ChangePseudonymForVehicle", (V1, T, T2), 1),
            ("OsrConfSentBy", (V1, RA, T), 1),
        ],
    ),
    "report, change, confirmation": (
        "0000110",
        [
            ("Reported", (V1, T), 0),
            ("ChangePseudonymForVehicle", (V1, T, T2), 1),
            ("OsrConfSentBy", (V1, RA, T), 2),
        ],
    ),
    "compromised at the confirmation": (
        "0000000",
        [
            ("Reported", (V1, T), 0),
            ("ChangePseudonymForVehicle", (V1, T, T2), 1),
            ("OsrConfSentBy", (V1, RA, T), 2),
            ("VehicleCompromised", (V1,), 2),
        ],
    ),
    "compromised after the confirmation": (
        "0000110",
        [
            ("Reported", (V1, T), 0),
            ("ChangePseudonymForVehicle", (V1, T, T2), 1),
            ("OsrConfSentBy", (V1, RA, T), 2),
            ("VjSKPSiReveal", (V1,), 3),
        ],
    ),
}


class TestTiming:
    @pytest.mark.parametrize("case", sorted(TIMING_FIXTURES))
    def test_monitors_keep_the_predicates_timing(self, case):
        from revlab.goals import _PREDICATES

        expected, rows = TIMING_FIXTURES[case]
        t = mk_trace(*(ev(label, *args, time=time) for label, args, time in rows))
        got = "".join(str(int(_PREDICATES[g](t))) for g in GOAL_IDS)
        assert got == expected
        assert got == "".join(str(int(recheck.holds(g, t.events))) for g in GOAL_IDS)

    def test_g5_diagnosis_reads_the_monitor(self):
        changed = [
            ev("Reported", V1, T, time=0),
            ev("ChangePseudonymForVehicle", V1, T, T2, time=1),
        ]
        silent = _explain_g5_failure(mk_traceset(mk_trace(*changed)))
        assert f"CanChange(V1, _, {render(T)})" in silent
        answered = mk_trace(*changed, ev("OsrConfSentBy", V2, RA, T, time=2))
        assert _explain_g5_failure(mk_traceset(answered)) == "no witness within bounds"
        # a change at the report's own timepoint does not follow the report
        same_time = mk_trace(
            ev("Reported", V1, T, time=0), ev("ChangePseudonymForVehicle", V1, T, T2, time=0)
        )
        assert _explain_g5_failure(mk_traceset(same_time)) == "no witness within bounds"


class TestApplicability:
    def test_change_goals_require_change(self):
        spec = build_protocol("plain")
        assert applicable_goals(spec) == ("g1", "g2", "g3", "g4")
        with pytest.raises(ValueError):
            run_all(spec, Bounds(), goals=("g5",))

    def test_unknown_goal_rejected(self):
        with pytest.raises(ValueError):
            run_all(build_protocol("plain"), Bounds(), goals=("g9",))


class TestProtocolMatrices:
    def test_plain_without_change(self):
        result, _ = scenario("plain")
        assert outcomes(result) == {
            "g1": WITNESS_FOUND,
            "g2": NO_COUNTEREXAMPLE,
            "g3": NO_COUNTEREXAMPLE,
            "g4": NO_COUNTEREXAMPLE,
        }

    def test_plain_with_change_fails_revocation_after_change(self):
        result, _ = scenario("plain", change=True)
        got = outcomes(result)
        assert got["g5"] == NO_WITNESS
        assert got["g1"] == WITNESS_FOUND
        for g in ("g2", "g3", "g4", "g6", "g7"):
            assert got[g] == NO_COUNTEREXAMPLE

    def test_rtoken_authentication_fails(self):
        result, _ = scenario("rtoken", change=True)
        got = outcomes(result)
        for g in ("g2", "g3", "g4", "g7"):
            assert got[g] == COUNTEREXAMPLE_FOUND
        assert got["g5"] == WITNESS_FOUND
        assert got["g1"] == WITNESS_FOUND
        assert got["g6"] == NO_COUNTEREXAMPLE

    def test_otoken_achieves_all_guarantees(self):
        result, _ = scenario("otoken", change=True)
        got = outcomes(result)
        assert got["g1"] == WITNESS_FOUND and got["g5"] == WITNESS_FOUND
        for g in ("g2", "g3", "g4", "g6", "g7"):
            assert got[g] == NO_COUNTEREXAMPLE

    def test_rtoken_attack_shape(self):
        result, _ = scenario("rtoken", change=True)
        ev_trace = result.verdicts["g2"].evidence
        assert ev_trace is not None
        generated = [f for s in ev_trace.steps for f in s.generated]
        assert generated, "attack must mint an adversary key"
        forged = [
            (s, t)
            for s in ev_trace.steps
            for t, synth in zip(s.inputs, s.input_synthesized)
            if synth and s.rule_id == "REV_AUTH_OSR_CONF_RECV"
        ]
        assert forged, "the accepted confirmation must be synthesized"
        from revlab.terms import App

        msg = forged[0][1]
        sig = msg.args[3]
        assert isinstance(sig, App) and sig.sym == "sign"
        assert sig.args[1] in generated, "confirmation signed with the minted key"
        labels = [e.label for e in ev_trace.events]
        assert "OsrReqMsgRecvBy" not in labels

    def test_g5_explanation_names_the_blocking_fact(self):
        result, _ = scenario("plain", change=True)
        text = result.verdicts["g5"].explanation
        assert "OSR_REQ_RECV" in text and "CanChange" in text

    def test_g4_implies_g3_on_all_runs(self):
        for proto in ("plain", "rtoken", "otoken"):
            result, _ = scenario(proto, change=True)
            got = outcomes(result)
            if got["g4"] == NO_COUNTEREXAMPLE:
                assert got["g3"] == NO_COUNTEREXAMPLE

    def test_reveals_do_not_create_guarded_counterexamples(self):
        result, _ = scenario("plain", change=True, reveals=True)
        got = outcomes(result)
        for g in ("g2", "g3", "g4", "g6", "g7"):
            assert got[g] == NO_COUNTEREXAMPLE
        # the guard does real work: an accept with no prior receive exists,
        # excused because the vehicle's keys were revealed beforehand
        from revlab.goals import reveal_guard_weak

        def excused_forgery(trace):
            for acc in trace.events:
                if acc.label != "OsrConfAcceptedBy":
                    continue
                ra, vj, t = acc.args
                got_recv = any(
                    e.label == "OsrReqMsgRecvBy"
                    and e.args[0] is vj
                    and e.args[2] is t
                    and e.time < acc.time
                    for e in trace.events
                )
                if not got_recv and reveal_guard_weak(trace.events, vj, acc.time):
                    return True
            return False

        assert any(excused_forgery(t) for t in result.traces)

    def test_reveals_do_not_mask_the_rtoken_attack(self):
        # compromise events land in every maximal trace once reveal rules
        # exist; scoped guards must still expose the forged confirmation
        result, _ = scenario("rtoken", change=True, reveals=True, max_steps=8)
        got = outcomes(result)
        assert got["g2"] == COUNTEREXAMPLE_FOUND
        assert got["g7"] == COUNTEREXAMPLE_FOUND

    def test_evidence_traces_satisfy_predicates_on_recheck(self):
        for proto in ("plain", "rtoken", "otoken"):
            result, _ = scenario(proto, change=True)
            for goal, v in result.verdicts.items():
                if v.evidence is not None:
                    assert recheck.holds(goal, v.evidence.events)
