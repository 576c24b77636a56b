"""Record semantics: frozen fields, checked construction, and a knowledge
memo that equality ignores and no copy shares."""

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
    "Instance": Instance("R", (), (), (), (), (), (), ()),
    "Knowledge": Knowledge(),
    "Derivation": Derivation(A, "public"),
    "SynthResult": SynthResult((), A, 0, (), "A[public]"),
    "Bounds": Bounds(),
    "Step": Step("R", (), (), (), (), (), ()),
    "Trace": Trace((), None),
    "TraceSet": TraceSet((), Bounds()),
    "GoalVerdict": GoalVerdict("g1", "exists-trace", "witness-found"),
    "RunResult": RunResult(SPEC, Bounds(), 1, TraceSet((), Bounds()), {}),
    "ProtocolSpec": SPEC,
    "ScenarioConfig": ScenarioConfig(),
}


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
    ],
    ids=["bounds", "bounds-replace", "rule", "rule-replace"],
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
