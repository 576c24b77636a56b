"""Exploration: monitor-keyed dedup vs the unpruned search and a dedup-free
enumerator, canonical digests, replay, truncation, determinism."""

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

from helpers import (
    enumerate_event_seqs,
    outcomes,
    random_small_state,
    renamed_copy,
    scenario,
    states_isomorphic,
)
from revlab import Bounds, build_protocol, explore, initial_state, monitors, recheck, replay, run_all
from revlab.explorer import (
    ReplayMismatchError,
    Step,
    Trace,
    _children,
    _dedup_key,
    canonical_events,
    canonicalize,
)
from revlab.goals import GOAL_IDS
from revlab.knowledge import Knowledge, observe
from revlab.protocols import agent_names
from revlab.report import render_msc
from revlab.rewriting import Event, Fact, make_state
from revlab.terms import fresh, name, pk, tup


class TestExplore:
    def test_zero_steps_yields_single_empty_trace(self):
        spec = build_protocol("plain")
        ts = explore(spec, initial_state(spec, 1), Bounds(max_steps=0))
        assert len(ts) == 1
        (trace,) = ts
        assert trace.steps == ()
        assert trace.truncated  # setup rules were ready to fire

    def test_honest_message_flow_appears(self):
        spec = build_protocol("plain")
        ts = explore(spec, initial_state(spec, 1), Bounds())
        wanted = [
            "Reported",
            "OsrReqMsgSentTo",
            "OsrReqMsgRecvBy",
            "OsrConfSentBy",
            "OsrConfAcceptedBy",
        ]
        def has_flow(trace):
            labels = [e.label for e in trace.events]
            pos = -1
            for w in wanted:
                if w not in labels[pos + 1 :]:
                    return False
                pos = labels.index(w, pos + 1)
            return True
        assert any(has_flow(t) for t in ts)

    def test_deterministic_reruns(self):
        spec = build_protocol("rtoken", change_enabled=True)
        bounds = Bounds(max_steps=8)
        a = explore(spec, initial_state(spec, 1), bounds)
        b = explore(spec, initial_state(spec, 1), bounds)
        assert [t.key() for t in a] == [t.key() for t in b]

    def test_truncation_is_flagged(self):
        spec = build_protocol("plain")
        ts = explore(spec, initial_state(spec, 1), Bounds(max_steps=2))
        assert all(t.truncated for t in ts)
        full = explore(spec, initial_state(spec, 1), Bounds())
        assert all(not t.truncated for t in full)

    def test_step_bound_leaves_are_never_fired(self, monkeypatch):
        import revlab.explorer as ex

        bounds = Bounds(max_steps=5)
        fire = ex.fire

        def checked_fire(state, rule, inst):
            assert state.step < bounds.max_steps
            return fire(state, rule, inst)

        monkeypatch.setattr(ex, "fire", checked_fire)
        spec = build_protocol("rtoken", change_enabled=True)
        ts = explore(spec, initial_state(spec, 1), bounds)
        assert ts.truncated_count > 0

    def test_reveals_complete_at_default_bounds(self):
        result, _ = scenario("otoken", change=True, reveals=True)
        assert len(result.traces) > 0
        assert result.traces.truncated_count == 0
        assert outcomes(result) == _reference("otoken")

    def test_rtoken_reveals_complete_at_default_bounds(self):
        result, _ = scenario("rtoken", change=True, reveals=True)
        assert len(result.traces) > 0
        assert result.traces.truncated_count == 0
        assert outcomes(result) == _reference("rtoken")

    def test_two_vehicles_complete_at_default_bounds(self):
        spec = build_protocol("rtoken", change_enabled=True)
        result = run_all(spec, Bounds(), n_vehicles=2)
        assert len(result.traces) > 0
        assert result.traces.truncated_count == 0
        assert outcomes(result) == _reference("rtoken")

    def test_prefix_closure_via_replay(self):
        spec = build_protocol("plain")
        bounds = Bounds()
        init = initial_state(spec, 1)
        ts = explore(spec, init, bounds)
        trace = max(ts, key=lambda t: len(t.steps))
        for k in range(len(trace.steps) + 1):
            partial = Trace(
                steps=trace.steps[:k],
                terminal_state=trace.terminal_state,
                truncated=False,
            )
            replay(spec, init, partial, bounds)  # raises if not a valid execution

    def test_replay_reproduces_terminal_state(self):
        spec = build_protocol("otoken", change_enabled=True)
        bounds = Bounds()
        init = initial_state(spec, 1)
        ts = explore(spec, init, bounds)
        for trace in list(ts)[:10]:
            final = replay(spec, init, trace, bounds)
            assert canonicalize(final) == canonicalize(trace.terminal_state)

    def test_replay_rejects_a_swapped_input(self):
        import pytest

        spec = build_protocol("plain")
        bounds = Bounds()
        init = initial_state(spec, 1)
        trace = max(explore(spec, init, bounds), key=lambda t: len(t.steps))
        i = next(i for i, s in enumerate(trace.steps) if s.inputs)
        step = trace.steps[i]
        forged = dataclasses.replace(step, inputs=(name("M"),) + step.inputs[1:])
        tampered = dataclasses.replace(
            trace, steps=trace.steps[:i] + (forged,) + trace.steps[i + 1 :]
        )
        with pytest.raises(ReplayMismatchError):
            replay(spec, init, tampered, bounds)


# (protocol, reveals, vehicles, max_steps).  At 7 steps every witness and
# counterexample of the default-bound matrices is found, with one vehicle or
# two.  Two vehicles with reveals stop at 6 steps (rtoken's forgeries are
# found there already): at 7 the unpruned search alone visits ~25,000 states.
GATE = [
    (protocol, reveals, vehicles, 6 if reveals and vehicles == 2 else 7)
    for protocol in ("plain", "rtoken", "otoken")
    for reveals in (False, True)
    for vehicles in (1, 2)
]


def _uncounted(explanation):
    if explanation is None:
        return None
    return re.sub(r"checked \d+ maximal traces( \(\d+ truncated at the step bound\))?",
                  "checked the maximal traces", explanation)


def _evidence_events(verdict):
    return None if verdict.evidence is None else canonical_events(verdict.evidence.events)


def _profile(trace):
    """Every goal's pattern, judged by the independent evaluator, plus truncation."""
    return tuple(recheck.holds(g, trace.events) for g in GOAL_IDS), trace.truncated


class TestMonitorDedup:
    """Dedup on monitor states prunes traces; it must not change any verdict."""

    @pytest.mark.parametrize("protocol,reveals,vehicles,steps", GATE)
    def test_equal_to_the_unpruned_search(self, protocol, reveals, vehicles, steps):
        spec = build_protocol(protocol, change_enabled=True, reveals_enabled=reveals)
        bounds = Bounds(max_steps=steps)
        init = initial_state(spec, vehicles)
        kept = explore(spec, init, bounds)
        full = explore(spec, init, bounds, dedup=False)
        full_events = {canonical_events(t.events) for t in full}
        assert full_events == enumerate_event_seqs(spec, init, bounds)
        assert {canonical_events(t.events) for t in kept} <= full_events
        assert len(kept) < len(full)
        a = run_all(spec, bounds, n_vehicles=vehicles, trace_set=kept).verdicts
        b = run_all(spec, bounds, n_vehicles=vehicles, trace_set=full).verdicts
        assert a.keys() == b.keys()
        for goal in b:
            assert a[goal].outcome == b[goal].outcome, goal
            assert _evidence_events(a[goal]) == _evidence_events(b[goal]), goal
            assert _uncounted(a[goal].explanation) == _uncounted(b[goal].explanation), goal
        assert {_profile(t) for t in full} <= {_profile(t) for t in kept}
        for t in full:  # the monitors judge every trace as the evaluator does
            monitored = tuple(monitors.holds(g, t.steps) for g in GOAL_IDS)
            assert monitored == _profile(t)[0], canonical_events(t.events)

    def test_independent_steps_merge_in_either_order(self):
        spec = build_protocol("plain")
        setup = [("SETUP_VEHICLE", "V1"), ("SETUP_VEHICLE", "V2")]
        one = _follow(spec, setup + [("SETUP_PSEUDONYM", "V1"), ("SETUP_PSEUDONYM", "V2")])
        two = _follow(spec, setup + [("SETUP_PSEUDONYM", "V2"), ("SETUP_PSEUDONYM", "V1")])
        assert _dedup_key(*one[:3]) == _dedup_key(*two[:3])
        # the event histories differ, so a history-keyed digest kept both
        assert canonicalize(one[0], one[3]) != canonicalize(two[0], two[3])

    def test_received_and_not_received_stay_apart(self):
        state = make_state()
        token = pk(fresh(700))
        ra, v1 = name("RA"), name("V1")
        received = _event_step(Event("OsrReqMsgRecvBy", (v1, ra, token), 0))
        other = _event_step(Event("InitVjPseudonym", (v1,), 0))
        a = monitors.advance_all(monitors.start(), received)
        b = monitors.advance_all(monitors.start(), other)
        assert _dedup_key(state, a, {}) != _dedup_key(state, b, {})
        # the futures differ: only the second history makes an acceptance a forgery
        accepted = _event_step(Event("OsrConfAcceptedBy", (ra, v1, token), 1))
        g2 = monitors.MONITORS["g2"]
        assert not g2.holds(g2.fold([received, accepted]))
        assert g2.holds(g2.fold([other, accepted]))


def _follow(spec, picks):
    """Fire the named rule for the named vehicle in turn, from the initial state.

    Returns the state, monitor states, budget usage and event history.
    """
    bounds = Bounds()
    rules = sorted(spec.rules, key=lambda r: r.id)
    state = initial_state(spec, 2)
    watch, usage, history = monitors.start(), {}, ()
    for rule_id, vehicle in picks:
        state, step, usage = next(
            c
            for c in _children(state, usage, rules, bounds)
            if c[1].rule_id == rule_id and dict(c[1].binding)["Vj"] is name(vehicle)
        )
        watch = monitors.advance_all(watch, step)
        history += step.events
    return state, watch, usage, history


def _event_step(event):
    return Step(
        rule_id="FIXTURE",
        binding=(),
        inputs=(),
        input_synthesized=(),
        input_derivations=(),
        generated=(),
        events=(event,),
    )


def _reference(protocol):
    path = Path(__file__).resolve().parent.parent / "reference" / f"{protocol}.json"
    return json.loads(path.read_text(encoding="utf-8"))["verdicts"]


class TestBounds:
    def test_rejects_negative_values(self):
        import pytest

        with pytest.raises(ValueError):
            Bounds(max_steps=-1)

    def test_change_budget_limits_firings(self):
        spec = build_protocol("plain", change_enabled=True)
        ts = explore(spec, initial_state(spec, 1), Bounds(max_changes=2))
        max_changes = max(
            sum(1 for s in t.steps if s.rule_id == "CHANGE_PSEUDONYM") for t in ts
        )
        assert max_changes == 2

    def test_spent_session_budget_skips_report_enumeration(self, monkeypatch):
        import revlab.explorer as ex

        enumerated = []
        enabled = ex.enabled_instances

        def recording(state, rule, depth):
            enumerated.append(rule.id)
            return enabled(state, rule, depth)

        monkeypatch.setattr(ex, "enabled_instances", recording)
        spec = build_protocol("plain")
        explore(spec, initial_state(spec, 1), Bounds(max_sessions=0))
        assert enumerated and "REPORT" not in enumerated

    def test_rule_budget_follows_the_rule_not_its_id(self, monkeypatch):
        import revlab.explorer as ex

        spec = build_protocol("plain")
        spec = dataclasses.replace(
            spec,
            rules=tuple(
                dataclasses.replace(r, id="REPORT_RENAMED") if r.id == "REPORT" else r
                for r in spec.rules
            ),
        )
        ts = explore(spec, initial_state(spec, 1), Bounds(max_steps=6, max_sessions=1))
        fired = [sum(s.rule_id == "REPORT_RENAMED" for s in t.steps) for t in ts]
        assert max(fired) == 1

        enumerated = []
        enabled = ex.enabled_instances

        def recording(state, rule, depth):
            enumerated.append(rule.id)
            return enabled(state, rule, depth)

        monkeypatch.setattr(ex, "enabled_instances", recording)
        explore(spec, initial_state(spec, 1), Bounds(max_steps=6, max_sessions=0))
        assert enumerated and "REPORT_RENAMED" not in enumerated

        trace = next(t for t, n in zip(ts, fired) if n)
        chart = render_msc(trace, agent_names(1), spec)
        (row,) = [line for line in chart.splitlines() if "[REPORT_RENAMED@" in line]
        assert row.index("[REPORT_RENAMED@") < 26  # inside the RA column

    def test_session_budget_limits_reports(self):
        spec = build_protocol("plain")
        ts = explore(spec, initial_state(spec, 1), Bounds(max_sessions=1))
        assert all(
            sum(1 for s in t.steps if s.rule_id == "REPORT") <= 1 for t in ts
        )


def _linked_state(a, b):
    return make_state(
        linear=[Fact("F", (a,))],
        persistent=[Fact("P", (pk(b),), persistent=True)],
        knowledge=observe(Knowledge(), tup(a, pk(b))),
    )


class TestCanonicalize:
    def test_fresh_renaming_invariance(self):
        s1 = _linked_state(fresh(500), fresh(501))
        s2 = _linked_state(fresh(601), fresh(600))
        assert canonicalize(s1) == canonicalize(s2)

    def test_digest_text_is_pinned(self):
        # The slot texts ~cN, ~? and ~# sort against each other and so
        # decide which tied name is fixed first: any change to the rendering
        # changes digests, and only these literal strings show it.
        s1 = _linked_state(fresh(500), fresh(501))
        assert canonicalize(s1) == (
            "budget:0|lin{F(~c1)}|per{!P((pk ~c0))}"
            "|kn{(pk ~c0);(tuple ~c1 (pk ~c0));~c1}|gen{}"
        )
        # Three names with equal signatures on a directed cycle: only the
        # permutation search orients it (raw id order would give
        # Edge(~c0,~c2);Edge(~c1,~c0);Edge(~c2,~c1)).  In Pair, u is fixed
        # first because its row Pair(~#,~?) sorts before Pair(~?,~#).
        x, y, z = fresh(901), fresh(903), fresh(902)
        u, v = fresh(912), fresh(911)
        ring = make_state(
            linear=[
                Fact("Edge", (x, y)),
                Fact("Edge", (y, z)),
                Fact("Edge", (z, x)),
                Fact("Pair", (u, v)),
            ]
        )
        assert canonicalize(ring) == (
            "budget:0|lin{Edge(~c0,~c1);Edge(~c1,~c2);Edge(~c2,~c0);Pair(~c3,~c4)}"
            "|per{}|kn{}|gen{}"
        )
        history = (
            Event("Sent", (name("A"), pk(fresh(502))), 0),
            Event("Got", (fresh(502), fresh(501)), 1),
            Event("Done", (), 2),
        )
        digest = canonicalize(s1, history)
        assert digest == (
            "budget:0|ev Sent(A, (pk ~c0))@0|ev Got(~c0, ~c1)@1|ev Done()@2"
            "|lin{F(~c2)}|per{!P((pk ~c1))}"
            "|kn{(pk ~c1);(tuple ~c2 (pk ~c1));~c2}|gen{}"
        )
        events = tuple(
            seg[len("ev "):] for seg in digest.split("|") if seg.startswith("ev ")
        )
        assert canonical_events(history) == events

    def test_multiplicity_differences_detected(self):
        a = fresh(502)
        one = make_state(linear=[Fact("F", (a,))])
        two = make_state(linear=[Fact("F", (a,)), Fact("F", (a,))])
        assert canonicalize(one) != canonicalize(two)

    def test_digest_equality_matches_isomorphism_oracle(self):
        rng = random.Random(42)
        agree = 0
        for _ in range(300):
            s1 = random_small_state(rng)
            if rng.random() < 0.5:
                s2 = renamed_copy(s1, rng)
            else:
                s2 = random_small_state(rng)
            same_digest = canonicalize(s1) == canonicalize(s2)
            iso = states_isomorphic(s1, s2)
            assert same_digest == iso
            agree += 1
        assert agree == 300
