"""Exploration: completeness vs a dedup-free enumerator, canonical digests,
replay, truncation, determinism."""

import dataclasses
import json
import random
from pathlib import Path

from helpers import (
    enumerate_event_seqs,
    outcomes,
    random_small_state,
    renamed_copy,
    scenario,
    states_isomorphic,
)
from revlab import Bounds, build_protocol, explore, initial_state, replay
from revlab.explorer import (
    ReplayMismatchError,
    Trace,
    canonical_events,
    canonicalize,
)
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

    def test_matches_dedup_free_enumerator(self):
        # small bounds keep the naive recursion tractable
        bounds = Bounds(max_steps=7)
        for protocol in ("plain", "rtoken"):
            spec = build_protocol(protocol, change_enabled=True)
            init = initial_state(spec, 1)
            ts = explore(spec, init, bounds)
            got = {canonical_events(t.events) for t in ts}
            expected = enumerate_event_seqs(spec, init, bounds)
            assert got == expected, f"{protocol}: trace sets diverge"

    def test_deterministic_reruns(self):
        spec = build_protocol("rtoken", change_enabled=True)
        bounds = Bounds(max_steps=8)
        a = explore(spec, initial_state(spec, 1), bounds)
        b = explore(spec, initial_state(spec, 1), bounds)
        assert [t.key() for t in a] == [t.key() for t in b]

    def test_dedup_only_removes_duplicates(self):
        from revlab.goals import run_all

        for protocol in ("plain", "rtoken"):
            spec = build_protocol(protocol, change_enabled=True)
            bounds = Bounds(max_steps=7)
            with_dedup = explore(spec, initial_state(spec, 1), bounds, dedup=True)
            without = explore(spec, initial_state(spec, 1), bounds, dedup=False)
            assert {canonical_events(t.events) for t in with_dedup} == {
                canonical_events(t.events) for t in without
            }
            assert len(with_dedup) <= len(without)
            # goal verdicts must not depend on deduplication
            a = run_all(spec, bounds, trace_set=with_dedup).verdicts
            b = run_all(spec, bounds, trace_set=without).verdicts
            assert {g: v.outcome for g, v in a.items()} == {
                g: v.outcome for g, v in b.items()
            }

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
        reference = Path(__file__).resolve().parent.parent / "reference" / "otoken.json"
        expected = json.loads(reference.read_text(encoding="utf-8"))["verdicts"]
        assert outcomes(result) == expected

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
