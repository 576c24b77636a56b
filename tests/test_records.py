"""Record semantics: pinned fields, defaults and repr, tuple hashing,
frozen fields, checked construction, the records.Record contract (C field
getters, fields read off __new__, unknown _replace fields rejected), and a
knowledge memo that equality ignores and no copy shares."""

import collections
import inspect

import pytest

from revlab.cli import ScenarioConfig
from revlab.explorer import Bounds, Step, Trace, TraceSet
from revlab.goals import GoalVerdict, RunResult
from revlab.knowledge import (
    Derivation,
    Knowledge,
    SynthResult,
    can_derive,
    gen_fresh,
    observe,
)
from revlab.protocols import ProtocolSpec
from revlab.rewriting import (
    Event,
    Fact,
    Instance,
    Rule,
    RuleDefinitionError,
    SystemState,
)
from revlab.terms import name, tup, var

A, B = name("A"), name("B")
SPEC = ProtocolSpec("toy", ())

RECORDS = {
    "Fact": Fact("F", (A,)),
    "Event": Event("E", (A,), 0),
    "Rule": Rule(id="R"),
    "SystemState": SystemState(),
    "Instance": Instance("R", (), (), (), (), ()),
    "Knowledge": Knowledge(),
    "Derivation": Derivation(A, "public"),
    "SynthResult": SynthResult((), A, (), Derivation(A, "public")),
    "Bounds": Bounds(),
    "Step": Step("R", (), (), (), (), ()),
    "Trace": Trace((), None),
    "TraceSet": TraceSet(()),
    "GoalVerdict": GoalVerdict("g1", "exists-trace", "witness-found"),
    "RunResult": RunResult(SPEC, Bounds(), 1, TraceSet(()), {}),
    "ProtocolSpec": SPEC,
    "ScenarioConfig": ScenarioConfig(),
}


_BOUNDS = (
    "Bounds(max_steps=14, max_changes=1, adversary_fresh_budget=1, "
    "synthesis_depth=4, max_sessions=1)"
)
_EMPTY_KNOWLEDGE = "Knowledge(basis=frozenset(), generated=(), budget=0)"

# kind -> (_fields, _field_defaults, repr of the RECORDS sample)
PINNED = {
    "Fact": (
        ("name", "args", "persistent"),
        {"persistent": False},
        "Fact(name='F', args=(A,), persistent=False)",
    ),
    "Event": (
        ("label", "args", "time"),
        {"time": -1},
        "Event(label='E', args=(A,), time=0)",
    ),
    "Rule": (
        ("id", "premises", "fresh_vars", "guards", "events", "conclusions",
         "network_in", "network_out", "actor", "budget", "budget_per"),
        {"premises": (), "fresh_vars": (), "guards": (), "events": (),
         "conclusions": (), "network_in": (), "network_out": (), "actor": "",
         "budget": "", "budget_per": ""},
        "Rule(id='R', premises=(), fresh_vars=(), guards=(), events=(), "
        "conclusions=(), network_in=(), network_out=(), actor='', budget='', "
        "budget_per='')",
    ),
    "SystemState": (
        ("linear", "persistent", "knowledge", "next_fresh", "step", "used"),
        {"linear": (), "persistent": frozenset(), "knowledge": Knowledge(),
         "next_fresh": 0, "step": 0, "used": frozenset()},
        "SystemState(linear=(), persistent=frozenset(), "
        f"knowledge={_EMPTY_KNOWLEDGE}, next_fresh=0, step=0, used=frozenset())",
    ),
    "Instance": (
        ("rule_id", "binding", "consumed", "inputs", "input_derivations",
         "new_names"),
        {},
        "Instance(rule_id='R', binding=(), consumed=(), inputs=(), "
        "input_derivations=(), new_names=())",
    ),
    "Derivation": (
        ("term", "via", "children", "cost"),
        {"children": (), "cost": 0},
        "Derivation(term=A, via='public', children=(), cost=0)",
    ),
    "SynthResult": (
        ("subst", "term", "new_names", "derivation"),
        {},
        "SynthResult(subst=(), term=A, new_names=(), "
        "derivation=Derivation(term=A, via='public', children=(), cost=0))",
    ),
    "Bounds": (
        ("max_steps", "max_changes", "adversary_fresh_budget", "synthesis_depth",
         "max_sessions"),
        {"max_steps": 14, "max_changes": 1, "adversary_fresh_budget": 1,
         "synthesis_depth": 4, "max_sessions": 1},
        _BOUNDS,
    ),
    "Step": (
        ("rule_id", "binding", "inputs", "input_derivations", "generated",
         "events", "outputs"),
        {"outputs": ()},
        "Step(rule_id='R', binding=(), inputs=(), input_derivations=(), "
        "generated=(), events=(), outputs=())",
    ),
    "Trace": (
        ("steps", "terminal_state", "truncated", "watch"),
        {"truncated": False, "watch": None},
        "Trace(steps=(), terminal_state=None, truncated=False, watch=None)",
    ),
    "GoalVerdict": (
        ("goal", "mode", "outcome", "evidence", "explanation"),
        {"evidence": None, "explanation": None},
        "GoalVerdict(goal='g1', mode='exists-trace', outcome='witness-found', "
        "evidence=None, explanation=None)",
    ),
    "RunResult": (
        ("spec", "bounds", "n_vehicles", "traces", "verdicts"),
        {},
        "RunResult(spec=ProtocolSpec(name='toy', rules=(), change_enabled=False, "
        f"reveals_enabled=False), bounds={_BOUNDS}, n_vehicles=1, "
        "traces=TraceSet(traces=(), states_explored=0, "
        "dedup_hits=0), verdicts={})",
    ),
    "ProtocolSpec": (
        ("name", "rules", "change_enabled", "reveals_enabled"),
        {"change_enabled": False, "reveals_enabled": False},
        "ProtocolSpec(name='toy', rules=(), change_enabled=False, reveals_enabled=False)",
    ),
    "ScenarioConfig": (
        ("protocol", "goals", "change_enabled", "reveals_enabled", "bounds",
         "n_vehicles", "output", "trace_render", "deterministic", "expect"),
        {"protocol": "plain", "goals": (), "change_enabled": False,
         "reveals_enabled": False, "bounds": Bounds(), "n_vehicles": 1,
         "output": "text", "trace_render": "none", "deterministic": False,
         "expect": None},
        f"ScenarioConfig(protocol='plain', goals=(), change_enabled=False, "
        f"reveals_enabled=False, bounds={_BOUNDS}, n_vehicles=1, output='text', "
        "trace_render='none', deterministic=False, expect=None)",
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_tuple_records_keep_fields_defaults_and_repr(kind):
    record = RECORDS[kind]
    fields, defaults, text = PINNED[kind]
    assert record._fields == fields
    assert record._field_defaults == defaults
    assert repr(record) == text
    assert type(record._replace()) is type(record)
    assert record._replace() == record
    if kind == "RunResult":  # verdicts is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(record))


# The type of collections.namedtuple's field getters: a C descriptor that
# reads a tuple slot.
FIELD_GETTER = type(collections.namedtuple("P", "a").a)


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_tuple_records_keep_the_record_contract(kind):
    record = RECORDS[kind]
    cls = type(record)
    for index, field in enumerate(record._fields):
        getter = getattr(cls, field)
        assert type(getter) is FIELD_GETTER
        assert getter.__get__(record) is record[index]
    with pytest.raises(ValueError):
        record._replace(bogus=1)
    params = list(inspect.signature(cls.__new__).parameters)
    assert tuple(params[1:]) == record._fields == cls.__match_args__


def test_fact_and_event_keep_tuple_equality():
    # documented on Fact: equal as tuples, never held together
    fact, event = Fact("E", (A,), False), Event("E", (A,), 0)
    assert fact == event and hash(fact) == hash(event)


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_fields_cannot_be_assigned(kind):
    record = RECORDS[kind]
    field = next(iter(getattr(record, "_fields", None) or record.__slots__))
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Bounds(max_steps=-1), ValueError),
        (lambda: Bounds()._replace(synthesis_depth=True), ValueError),
        (lambda: Rule(id="BAD", conclusions=(Fact("F", (var("x"),)),)), RuleDefinitionError),
        (lambda: Rule(id="OK")._replace(network_out=(var("x"),)), RuleDefinitionError),
        (lambda: Bounds._make((1, 1, 1, 1, -1)), ValueError),
        (lambda: Rule._make(("BAD", (), (), (), (), (), (), (var("x"),))), RuleDefinitionError),
    ],
    ids=["bounds", "bounds-replace", "rule", "rule-replace", "bounds-make", "rule-make"],
)
def test_construction_is_checked(build, error):
    with pytest.raises(error):
        build()


def _used(k: Knowledge) -> Knowledge:
    """k after a synthesis query has filled its memo."""
    assert can_derive(k, tup(A, B), 1) is not None
    assert k._memo
    return k


class TestKnowledge:
    def test_equality_and_hash_ignore_the_memo(self):
        used = _used(observe(Knowledge(budget=1), A))
        copy = Knowledge(used.basis, used.generated, used.budget)
        assert not copy._memo
        assert used == copy and hash(used) == hash(copy)
        assert hash(copy) == hash((copy.basis, copy.generated, copy.budget))
        assert repr(used) == repr(copy) == (
            f"Knowledge(basis={copy.basis!r}, generated=(), budget=1)"
        )
        assert used != copy.with_budget(0)

    def test_no_memo_can_be_passed_in(self):
        with pytest.raises(TypeError):
            Knowledge(_memo={})

    @pytest.mark.parametrize(
        "derive",
        [
            lambda k: observe(k, B),
            lambda k: gen_fresh(k, 990)[0],
            lambda k: k.with_budget(0),
        ],
        ids=["observe", "gen_fresh", "with_budget"],
    )
    def test_every_derived_value_starts_an_empty_memo(self, derive):
        got = derive(_used(observe(Knowledge(budget=1), A)))
        assert isinstance(got, Knowledge) and got._memo == {}
