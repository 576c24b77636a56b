"""Exploration: monitor-keyed dedup vs the unpruned search and a dedup-free
enumerator, canonical digests, replay, truncation, determinism."""

import json
import random
import re
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (
    canonical_events,
    digest,
    enumerate_event_seqs,
    outcomes,
    random_small_state,
    reference_dedup_search,
    reference_least_certificate,
    renamed_copy,
    scenario,
    states_isomorphic,
    vehicle_swapped,
    vehicle_swapped_facts,
    watch_of,
)
from revlab import Bounds, build_protocol, explore, initial_state, monitors, recheck, replay, run_all
from revlab.explorer import (
    InstanceCache,
    Move,
    ReplayMismatchError,
    Step,
    Trace,
    _children,
    _dedup_key,
    _enabled,
    _fixing_vars,
    _flags,
    _independent,
    _interchangeable,
    _pruned,
    canonicalize,
)
from revlab.goals import GOAL_IDS
from revlab.knowledge import Knowledge, observe
from revlab.protocols import ProtocolSpec, agent_names, vehicle_name
from revlab.report import render_msc
from revlab.rewriting import Event, Fact, Rule, enabled_instances, make_state
from revlab.terms import fresh, name, pk, sign, tup, var


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
            assert digest(final) == digest(trace.terminal_state)

    def test_replay_rejects_a_swapped_input(self):
        import pytest

        spec = build_protocol("plain")
        bounds = Bounds()
        init = initial_state(spec, 1)
        trace = max(explore(spec, init, bounds), key=lambda t: len(t.steps))
        i = next(i for i, s in enumerate(trace.steps) if s.inputs)
        step = trace.steps[i]
        forged = step._replace(inputs=(name("M"),) + step.inputs[1:])
        tampered = trace._replace(
            steps=trace.steps[:i] + (forged,) + trace.steps[i + 1 :]
        )
        with pytest.raises(ReplayMismatchError):
            replay(spec, init, tampered, bounds)


# (protocol, reveals, vehicles, max_steps).  At 7 steps every witness and
# counterexample of the default-bound matrices is found, with one vehicle or
# two.  Two vehicles with reveals stop at 6 steps (rtoken's forgeries are
# found there already): at 7 the unpruned search alone visits ~25,000 states.
# Three vehicles, where the key may permute three names, stop at 7 steps
# too: the unpruned search visits ~18,000 states there and ~98,000 at 8.
GATE = [
    (protocol, reveals, vehicles, 6 if reveals and vehicles == 2 else 7)
    for protocol in ("plain", "rtoken", "otoken")
    for reveals in (False, True)
    for vehicles in (1, 2)
] + [(protocol, False, 3, 7) for protocol in ("plain", "rtoken", "otoken")]


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
        for t in kept.traces + full.traces:
            assert t.watch == watch_of(t.steps)
        for t in full:  # the monitors judge every trace as the evaluator does
            monitored = tuple(monitors.holds_in(g, t.watch) for g in GOAL_IDS)
            assert monitored == _profile(t)[0], canonical_events(t.events)

    def test_independent_steps_merge_in_either_order(self):
        spec = build_protocol("plain")
        setup = [("SETUP_VEHICLE", "V1"), ("SETUP_VEHICLE", "V2")]
        one = _follow(spec, setup + [("SETUP_PSEUDONYM", "V1"), ("SETUP_PSEUDONYM", "V2")])
        two = _follow(spec, setup + [("SETUP_PSEUDONYM", "V2"), ("SETUP_PSEUDONYM", "V1")])
        assert _dedup_key(*one[:3]) == _dedup_key(*two[:3])
        # the event histories differ, so a history-keyed digest kept both
        assert digest(one[0], one[3]) != digest(two[0], two[3])

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
        assert not monitors.holds_in("g2", watch_of([received, accepted]))
        assert monitors.holds_in("g2", watch_of([other, accepted]))

    @pytest.mark.parametrize("protocol,reveals,vehicles,steps", GATE)
    def test_key_partition_equals_the_digest(self, protocol, reveals, vehicles, steps,
                                             monkeypatch):
        import revlab.explorer as ex

        keyed = []
        canonical = ex.canonicalize

        def recording(state, monitor=(), memo=None, vehicles=frozenset()):
            key = canonical(state, monitor=monitor, memo=memo, vehicles=vehicles)
            keyed.append((key, state, tuple(monitor)))
            return key

        monkeypatch.setattr(ex, "canonicalize", recording)
        spec = build_protocol(protocol, change_enabled=True, reveals_enabled=reveals)
        explore(spec, initial_state(spec, vehicles), Bounds(max_steps=steps))
        names = [vehicle_name(i + 1) for i in range(vehicles)]
        swaps = [dict(zip(names, order)) for order in permutations(names)]
        by_key, by_text = {}, {}
        for key, state, monitor in keyed:
            # the least digest over the vehicle permutations: equal exactly
            # when the states are equal up to fresh names and vehicles
            text = (state.step, min(
                digest(vehicle_swapped(state, swap), monitor=vehicle_swapped_facts(monitor, swap))
                for swap in swaps
            ))
            assert by_key.setdefault(key, text) == text
            assert by_text.setdefault(text, key) == key
        assert len(by_key) < len(keyed)  # some popped states were merged


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
            for c in _children(state, usage, _enabled(state, usage, rules, bounds))
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


# The gate rows, plus two vehicles with reveals at 8 steps.
SAME_SEARCH = GATE + [(protocol, True, 2, 8) for protocol in ("plain", "rtoken", "otoken")]


class TestSleepSets:
    """Sleep sets and twin collapse fire and push fewer children; the search
    still visits every key first by the same path."""

    @pytest.mark.parametrize("protocol,reveals,vehicles,steps", SAME_SEARCH)
    def test_same_search_as_without_them(self, protocol, reveals, vehicles, steps):
        spec = build_protocol(protocol, change_enabled=True, reveals_enabled=reveals)
        bounds = Bounds(max_steps=steps)
        init = initial_state(spec, vehicles)
        got = explore(spec, init, bounds)
        traces, explored, hits = reference_dedup_search(spec, init, bounds)
        assert got.traces == traces
        assert got.states_explored == explored
        assert got.dedup_hits <= hits

    def test_fewer_children_reach_the_dedup_key(self):
        spec = build_protocol("rtoken", change_enabled=True)
        bounds = Bounds(max_steps=7)
        init = initial_state(spec, 2)
        _, _, hits = reference_dedup_search(spec, init, bounds)
        assert explore(spec, init, bounds).dedup_hits < hits / 2


class TestReuse:
    """The search reuses its own work: enabled lists per what a call reads,
    one fire per twin group, and key sections per persistent set and
    knowledge.  None of it changes what a call returns."""

    @pytest.mark.parametrize("protocol,reveals,vehicles,steps", GATE)
    def test_cached_enabled_lists_equal_the_uncached(self, protocol, reveals, vehicles,
                                                     steps, monkeypatch):
        import revlab.explorer as ex

        checked = []

        def checking(fn):
            def call(state, usage, rules, bounds, cache=None):
                got = fn(state, usage, rules, bounds, cache)
                assert cache is not None
                assert got == fn(state, usage, rules, bounds)
                checked.append(state)
                return got

            return call

        monkeypatch.setattr(ex, "_enabled", checking(ex._enabled))
        monkeypatch.setattr(ex, "_any_enabled", checking(ex._any_enabled))
        spec = build_protocol(protocol, change_enabled=True, reveals_enabled=reveals)
        got = explore(spec, initial_state(spec, vehicles), Bounds(max_steps=steps))
        assert len(checked) == got.states_explored  # one check per popped state

    def test_each_twin_group_fires_once(self, monkeypatch):
        import revlab.explorer as ex

        fired = []
        fire = ex.fire

        def counting(state, rule, inst):
            fired.append(rule.id)
            return fire(state, rule, inst)

        monkeypatch.setattr(ex, "fire", counting)
        spec = build_protocol("rtoken", change_enabled=True)
        got = explore(spec, initial_state(spec, 2), Bounds(max_steps=7))
        # Firing every instance outside the sleep sets took 141 fires, 68 of
        # them twins.  One more instance shares its group's child but not
        # its monitor states: it is pushed without a fire of its own.
        assert len(fired) == 72
        assert (got.states_explored, len(got), got.dedup_hits) == (61, 25, 13)

    @pytest.mark.parametrize("protocol,reveals,vehicles,steps", GATE)
    def test_shared_memo_keys_partition_as_fresh_ones(self, protocol, reveals, vehicles,
                                                       steps, monkeypatch):
        import revlab.explorer as ex

        keyed = []
        canonical = ex.canonicalize

        def recording(state, monitor=(), memo=None, vehicles=frozenset()):
            key = canonical(state, monitor=monitor, memo=memo, vehicles=vehicles)
            keyed.append((key, state, tuple(monitor), vehicles))
            return key

        monkeypatch.setattr(ex, "canonicalize", recording)
        spec = build_protocol(protocol, change_enabled=True, reveals_enabled=reveals)
        explore(spec, initial_state(spec, vehicles), Bounds(max_steps=steps))
        pairs = {
            (key, canonical(state, monitor=monitor, vehicles=names))
            for key, state, monitor, names in keyed
        }
        # the pairs are a bijection between the two sets of keys
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
        assert len(pairs) < len(keyed)  # some states were merged

    def test_cache_keys_on_what_a_rule_reads(self):
        rule = Rule(id="PAIR", premises=(A, A), conclusions=(B,))
        cache = InstanceCache([rule], 2)
        assert cache.instances(make_state(linear=[A]), rule) == []
        two = make_state(linear=[A, A])
        got = cache.instances(two, rule)
        assert got and got == enabled_instances(two, rule, 2)
        # an unread fact and next_fresh, for a rule without fresh variables
        # or input, leave the key as it is
        assert cache.instances(make_state(linear=[A, A, B], next_fresh=5), rule) is got

    @pytest.mark.parametrize("premise,budget_per,facts", [
        (Fact("A", (var("x"),)), "", [Fact("A", (name("a"),)), Fact("A", (name("b"),))]),
        (Fact("P", (var("x"),), True), "x",
         [Fact("P", (name("a"),), True), Fact("P", (name("b"),), True)]),
    ])
    def test_twin_groups_keep_children_apart(self, premise, budget_per, facts):
        # two instances whose x appears in no conclusion: one consumes a
        # different fact, the other spends a different budget key
        rule = Rule(id="R", premises=(premise,), conclusions=(B,),
                    budget="max_sessions" if budget_per else "", budget_per=budget_per)
        state = make_state(linear=[f for f in facts if not f.persistent],
                           persistent=[f for f in facts if f.persistent])
        enabled = _enabled(state, {}, [rule], Bounds())
        children = _pruned(state, monitors.start(), {}, enabled, (),
                           {rule.id: _flags(rule)}, {rule.id: _fixing_vars(rule)})
        assert len(enabled) == len(children) == 2
        assert children[0][0] != children[1][0] or children[0][3] != children[1][3]

    def test_shared_memo_tells_generated_names_apart(self):
        n = fresh(950)
        known = observe(Knowledge(), n)
        minted = Knowledge(known.basis, (n,), known.budget)
        memo: dict = {}
        for k in (known, minted):
            state = make_state(knowledge=k)
            assert canonicalize(state, memo=memo) == canonicalize(state)


def _moves(*rules, linear=(), budget=0):
    """The Move of every instance of the rules in a state with the facts."""
    state = make_state(
        linear=linear, knowledge=observe(Knowledge(), name("K")).with_budget(budget)
    )
    return [
        Move(rule, inst, _flags(rule))
        for rule in rules
        for inst in enabled_instances(state, rule, 2)
    ]


def _consumer(rule_id, fact="A", **fields):
    return Rule(id=rule_id, premises=(Fact(fact, ()),), **fields)


A, B = Fact("A", ()), Fact("B", ())


class TestIndependence:
    """Each clause of _independent, on hand-built rule pairs.  Each pair
    differs from an independent pair in that clause alone."""

    def test_disjoint_invisible_steps_are_independent(self):
        a, b = _moves(_consumer("R1", "A"), _consumer("R2", "B"), linear=(A, B))
        assert _independent(a, b) and _independent(b, a)

    def test_shared_consumed_fact(self):
        a, b = _moves(_consumer("R1", "A"), _consumer("R2", "A"), linear=(A,))
        assert not _independent(a, b) and not _independent(b, a)

    def test_minting_adversary_names(self):
        x = var("x")
        recv = _consumer("R2", "B", network_in=(x,), conclusions=(Fact("Got", (x,)),))
        other, *received = _moves(_consumer("R1", "A"), recv, linear=(A, B), budget=1)
        minted = [m for m in received if m.mints]
        replayed = [m for m in received if not m.mints]
        assert minted and replayed
        assert all(_independent(other, m) for m in replayed)
        assert not any(_independent(other, m) or _independent(m, other) for m in minted)

    def test_output_against_input(self):
        x = var("x")
        send = _consumer("R1", "A", network_out=(name("M"),))
        recv = _consumer("R2", "B", network_in=(x,), conclusions=(Fact("Got", (x,)),))
        also_send = _consumer("R2", "B", network_out=(name("N"),))
        also_recv = _consumer("R1", "A", network_in=(x,), conclusions=(Fact("Got", (x,)),))
        s, r = _moves(send, recv, linear=(A, B))
        assert not _independent(s, r) and not _independent(r, s)
        s1, s2 = _moves(send, also_send, linear=(A, B))
        assert _independent(s1, s2)
        r1, r2 = _moves(also_recv, recv, linear=(A, B))
        assert _independent(r1, r2)

    def test_shared_budget_key(self):
        v = var("v")
        token = (Fact("T", (name("a"),)), Fact("T", (name("b"),)))

        def budgeted(**fields):
            return Rule(id="R", premises=(Fact("T", (v,)),), budget="max_sessions", **fields)

        a, b = _moves(budgeted(), linear=token)
        assert a.consumed.isdisjoint(b.consumed)
        assert not _independent(a, b)
        a, b = _moves(budgeted(budget_per="v"), linear=token)
        assert _independent(a, b)
        a, b = _moves(budgeted(), _consumer("R2", "A"), linear=(*token[:1], A))
        assert _independent(a, b)

    def test_two_visible_steps(self):
        seen = sorted(monitors.LABELS)[:2]
        unseen = "NoMonitorReadsThis"
        assert unseen not in monitors.LABELS

        def pair(first, second):
            return _moves(
                _consumer("R1", "A", events=((first, ()),)),
                _consumer("R2", "B", events=((second, ()),)),
                linear=(A, B),
            )

        a, b = pair(*seen)
        assert not _independent(a, b) and not _independent(b, a)
        a, b = pair(seen[0], unseen)
        assert _independent(a, b) and _independent(b, a)

    def test_identity_ignores_fresh_variables(self):
        rule = _consumer("R1", "A", fresh_vars=("n",), conclusions=(Fact("N", (var("n"),)),))
        one, two = (
            Move(rule, enabled_instances(make_state(linear=(A,), next_fresh=k), rule, 2)[0],
                 _flags(rule))
            for k in (0, 5)
        )
        assert one.ident == two.ident


class TestReplay:
    """replay rebuilds each step's instance from its binding and rejects
    what is not a valid execution."""

    X, N = var("x"), var("n")
    RECV = Rule(
        id="RECV",
        premises=(Fact("Wait", ()),),
        fresh_vars=("n",),
        network_in=(X,),
        events=(("Got", (X,)),),
        conclusions=(Fact("Got", (X, N)),),
    )
    SPEC = ProtocolSpec(name="toy", rules=(RECV,))
    INIT = make_state(linear=(Fact("Wait", ()),), knowledge=observe(Knowledge(), name("K")))

    def _trace(self, budget=0):
        bounds = Bounds(max_steps=1, adversary_fresh_budget=budget)
        traces = explore(self.SPEC, self.INIT, bounds)
        return bounds, traces

    def _tampered(self, trace, **fields):
        step = trace.steps[0]._replace(**fields)
        return trace._replace(steps=(step,))

    def test_recorded_traces_replay(self):
        bounds, traces = self._trace(budget=1)
        assert len(traces) == 2  # x is K, or a name the adversary mints
        for trace in traces:
            assert replay(self.SPEC, self.INIT, trace, bounds) == trace.terminal_state

    def test_input_other_than_the_binding_gives(self):
        bounds, (trace,) = self._trace()
        forged = self._tampered(trace, inputs=(name("M"),))
        with pytest.raises(ReplayMismatchError, match="does not match"):
            replay(self.SPEC, self.INIT, forged, bounds)

    def test_input_the_adversary_cannot_derive(self):
        bounds, (trace,) = self._trace()
        secret = fresh(777)
        binding = tuple((i, secret if i == "x" else t) for i, t in trace.steps[0].binding)
        forged = self._tampered(trace, binding=binding, inputs=(secret,))
        with pytest.raises(ReplayMismatchError, match="not derivable"):
            replay(self.SPEC, self.INIT, forged, bounds)

    def test_missing_consumed_fact(self):
        bounds, (trace,) = self._trace()
        with pytest.raises(ReplayMismatchError, match="consumed fact"):
            replay(self.SPEC, make_state(knowledge=self.INIT.knowledge), trace, bounds)

    def test_drifted_fresh_id(self):
        bounds, (trace,) = self._trace()
        binding = tuple((i, fresh(5) if i == "n" else t) for i, t in trace.steps[0].binding)
        with pytest.raises(ReplayMismatchError, match="fresh names drifted"):
            replay(self.SPEC, self.INIT, self._tampered(trace, binding=binding), bounds)

    def test_drifted_adversary_name(self):
        bounds, traces = self._trace(budget=1)
        (trace,) = [t for t in traces if t.steps[0].generated]
        (minted,) = trace.steps[0].generated
        other = fresh(minted.fid + 1)
        binding = tuple((i, other if t is minted else t) for i, t in trace.steps[0].binding)
        forged = self._tampered(trace, binding=binding, inputs=(other,), generated=(other,))
        with pytest.raises(ReplayMismatchError, match="adversary names drifted"):
            replay(self.SPEC, self.INIT, forged, bounds)


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
        spec = spec._replace(
            rules=tuple(
                r._replace(id="REPORT_RENAMED") if r.id == "REPORT" else r
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
        assert digest(s1) == digest(s2)

    def test_digest_text_is_pinned(self):
        # The slot texts ~cN, ~? and ~# sort against each other and so
        # decide which tied name is fixed first: any change to the rendering
        # changes digests, and only these literal strings show it.
        s1 = _linked_state(fresh(500), fresh(501))
        assert digest(s1) == (
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
        assert digest(ring) == (
            "budget:0|lin{Edge(~c0,~c1);Edge(~c1,~c2);Edge(~c2,~c0);Pair(~c3,~c4)}"
            "|per{}|kn{}|gen{}"
        )
        history = (
            Event("Sent", (name("A"), pk(fresh(502))), 0),
            Event("Got", (fresh(502), fresh(501)), 1),
            Event("Done", (), 2),
        )
        text = digest(s1, history)
        assert text == (
            "budget:0|ev Sent(A, (pk ~c0))@0|ev Got(~c0, ~c1)@1|ev Done()@2"
            "|lin{F(~c2)}|per{!P((pk ~c1))}"
            "|kn{(pk ~c1);(tuple ~c2 (pk ~c1));~c2}|gen{}"
        )
        events = tuple(
            seg[len("ev "):] for seg in text.split("|") if seg.startswith("ev ")
        )
        assert canonical_events(history) == events

    def test_multiplicity_differences_detected(self):
        a = fresh(502)
        one = make_state(linear=[Fact("F", (a,))])
        two = make_state(linear=[Fact("F", (a,)), Fact("F", (a,))])
        assert digest(one) != digest(two)

    def test_digest_equality_matches_isomorphism_oracle(self):
        rng = random.Random(42)
        agree = 0
        for _ in range(300):
            s1 = random_small_state(rng)
            if rng.random() < 0.5:
                s2 = renamed_copy(s1, rng)
            else:
                s2 = random_small_state(rng)
            same_digest = digest(s1) == digest(s2)
            iso = states_isomorphic(s1, s2)
            assert same_digest == iso
            agree += 1
        assert agree == 300


def _cycles(*lengths, base=7000):
    """Edge facts forming disjoint directed cycles over fresh names."""
    edges = []
    for n in lengths:
        ring = [fresh(base + i) for i in range(n)]
        edges += [Fact("Edge", (a, b)) for a, b in zip(ring, ring[1:] + ring[:1])]
        base += n
    return make_state(linear=edges)


# The ring pinned in test_digest_text_is_pinned: three names that colour
# refinement leaves tied, and a Pair whose two names it splits.
_X, _Y, _Z, _U, _V = (fresh(i) for i in (901, 903, 902, 912, 911))
RING = make_state(
    linear=[
        Fact("Edge", (_X, _Y)),
        Fact("Edge", (_Y, _Z)),
        Fact("Edge", (_Z, _X)),
        Fact("Pair", (_U, _V)),
    ]
)


# The names the key may permute in TestCanonicalKey.
VEHICLES = frozenset(vehicle_name(i) for i in (1, 2, 3))


@st.composite
def tied_states(draw):
    """Small states over up to six fresh names, linked by a successor
    permutation, and up to three of the vehicles V1..V3.

    Its cycles leave names tied after colour refinement, often in cells
    whose members no renaming maps onto each other (a 2-cycle beside a
    3-cycle), so only individualization tells them apart.  Each vehicle is
    known to the adversary and owns one fresh name, so the vehicles are tied
    after the first colouring and stay tied while the names they own are.
    """
    n = draw(st.integers(1, 6))
    names = [fresh(7000 + i) for i in range(n)]
    succ = draw(st.permutations(range(n)))
    index = st.integers(0, n - 1)
    vehicles = [vehicle_name(i) for i in sorted(draw(st.sets(st.integers(1, 3))))]
    linear = [Fact("Edge", (names[i], names[j])) for i, j in enumerate(succ)]
    linear += [
        Fact("Pair", (names[i], names[j]))
        for i, j in draw(st.lists(st.tuples(index, index), max_size=1))
    ]
    linear += [Fact("Car", (v, names[draw(index)])) for v in vehicles]
    persistent = [
        Fact("Key", (names[i],), persistent=True)
        for i in draw(st.sets(index, max_size=1))
    ]
    k = Knowledge(basis=frozenset(vehicles), budget=draw(st.integers(0, 1)))
    if draw(st.booleans()):
        g = names[draw(index)]
        k = Knowledge(basis=k.basis | {g}, generated=(g,), budget=k.budget)
    shapes = st.integers(0, 2 + len(vehicles))
    for i, j, shape in draw(st.lists(st.tuples(index, index, shapes), max_size=1)):
        a, b = names[i], names[j]
        terms = (pk(a), tup(a, pk(b)), sign(name("A"), a), *(tup(v, pk(a)) for v in vehicles))
        k = observe(k, terms[shape])
    return make_state(linear=linear, persistent=persistent, knowledge=k)


def _owned(cycle: int, owners, vehicles=(1, 2)):
    """A directed cycle of fresh names; vehicle i owns the owners[i]-th name."""
    state = _cycles(cycle)
    cars = [Fact("Car", (vehicle_name(v), fresh(7000 + o))) for v, o in zip(vehicles, owners)]
    return make_state(
        linear=[*state.linear, *cars],
        knowledge=Knowledge(basis=frozenset(vehicle_name(v) for v in vehicles)),
    )


# Refinement leaves both the vehicles and the fresh names tied: V1 and V2
# own the two names of a 2-cycle.
TWINS = _owned(2, (0, 1))
# Three vehicles own one name each of a 3-cycle: only the rotations are
# automorphisms, so the three vehicles are tied without being one orbit
# under every permutation.
TRIPLETS = _owned(3, (0, 1, 2), vehicles=(1, 2, 3))

class TestCanonicalKey:
    def test_renaming_invariance_and_multiplicity(self):
        s1 = _linked_state(fresh(500), fresh(501))
        s2 = _linked_state(fresh(601), fresh(600))
        assert canonicalize(s1) == canonicalize(s2)
        assert all(type(v) is int for v in canonicalize(s1))
        a = fresh(502)
        one = make_state(linear=[Fact("F", (a,))])
        two = make_state(linear=[Fact("F", (a,)), Fact("F", (a,))])
        assert canonicalize(one) != canonicalize(two)
        later = one._replace(step=one.step + 1)
        assert canonicalize(one) != canonicalize(later)
        assert canonicalize(one) != canonicalize(one, monitor=[Fact("g2.Seen", (a,))])

    def test_refinement_ties_are_individualized(self):
        rng = random.Random(7)
        for state in (RING, _cycles(2, 3), _cycles(5), _cycles(3, 3)):
            key = canonicalize(state)
            for _ in range(10):
                assert canonicalize(renamed_copy(state, rng)) == key
        # every name has one in-edge and one out-edge in both: same colours
        assert canonicalize(_cycles(2, 3)) != canonicalize(_cycles(5))
        assert canonicalize(_cycles(3, 3)) != canonicalize(_cycles(6))

    def test_vehicles_are_renamed_among_themselves_only(self):
        a, b = fresh(7000), fresh(7001)
        v1, v2 = vehicle_name(1), vehicle_name(2)
        both = frozenset({v1, v2})

        def cars(x, y):
            return make_state(linear=[Fact("Car", (x, a)), Fact("Car", (y, b)), Fact("Key", (a,))])

        assert canonicalize(cars(v1, v2), vehicles=both) == canonicalize(cars(v2, v1), vehicles=both)
        assert canonicalize(cars(v1, v2)) != canonicalize(cars(v2, v1))
        # a vehicle never stands in for a fresh name, nor a fresh name for it
        owned = make_state(linear=[Fact("Car", (v1, a))])
        paired = make_state(linear=[Fact("Car", (b, a))])
        assert canonicalize(owned, vehicles=both) != canonicalize(paired, vehicles=both)
        assert canonicalize(TWINS, vehicles=both) == canonicalize(_owned(2, (1, 0)), vehicles=both)
        assert canonicalize(TWINS, vehicles=both) != canonicalize(_owned(2, (0, 0)), vehicles=both)

    def test_tied_vehicles_and_names_keep_the_key_canonical(self):
        # In 2+2+3 cycles refinement leaves all seven names in one cell, and
        # once one 2-cycle is fixed, the other 2-cycle's names and the
        # 3-cycle's stay tied, so the search individualizes at three levels.
        rng = random.Random(7)
        for state in (TWINS, TRIPLETS, _cycles(2, 2, 3)):
            key = canonicalize(state, vehicles=VEHICLES)
            for _ in range(20):
                assert canonicalize(renamed_copy(state, rng, VEHICLES), vehicles=VEHICLES) == key

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tied_states())
    @example(RING)
    @example(TWINS)
    @example(TRIPLETS)
    @example(_cycles(2, 3))
    @example(_cycles(5))
    @example(_cycles(3, 3))
    @example(_cycles(2, 2, 3))
    def test_search_equals_the_reference_search(self, state):
        import revlab.explorer as ex

        key = canonicalize(state, vehicles=VEHICLES)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ex, "_least_certificate", reference_least_certificate)
            assert canonicalize(state, vehicles=VEHICLES) == key

    def test_only_two_or_more_vehicles_are_interchangeable(self):
        spec = build_protocol("rtoken", change_enabled=True)
        assert _interchangeable(initial_state(spec, 1), spec.rules) == frozenset()
        assert _interchangeable(initial_state(spec, 3), spec.rules) == VEHICLES

    def test_a_rule_naming_a_vehicle_keeps_the_vehicles_apart(self):
        spec = build_protocol("rtoken", change_enabled=True)
        named = Rule("RevokeV1", conclusions=(Fact("Revoked", (vehicle_name(1),)),))
        assert _interchangeable(initial_state(spec, 3), (*spec.rules, named)) == frozenset()

    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tied_states(), tied_states(), st.randoms(use_true_random=True))
    @example(RING, RING, random.Random(0))
    @example(_cycles(2, 3), _cycles(5), random.Random(0))
    @example(TWINS, _owned(2, (0, 0)), random.Random(0))
    @example(TRIPLETS, _owned(3, (0, 2, 1), vehicles=(1, 2, 3)), random.Random(0))
    def test_key_equality_is_isomorphism(self, s1, s2, rng):
        """Keys are equal exactly when a renaming of fresh names and
        vehicles maps one state onto the other."""

        def key(state):
            return canonicalize(state, vehicles=VEHICLES)

        copy = renamed_copy(s1, rng, VEHICLES)
        assert key(copy) == key(s1)
        assert (key(s1) == key(s2)) == states_isomorphic(s1, s2, VEHICLES)
        assert (key(copy) == key(s2)) == states_isomorphic(copy, s2, VEHICLES)
