"""Guard-solved, rigid-first synthesis against filter-after-enumeration.

The production synthesizer binds signer keys from guards and replays rigid
arguments (those only a stored term can supply) before their siblings.  Both
are pruning steps, so the instance sets must equal those of the plain
enumerator in tests/helpers.py on every state the explorer reaches.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import explored_states, reference_enabled_instances, reference_synthesize
from revlab import Bounds, build_protocol
from revlab.knowledge import Knowledge, gen_fresh, observe, synthesize
from revlab.rewriting import Fact, Rule, enabled_instances, make_state
from revlab.terms import (
    TRUE,
    fresh,
    name,
    normalize,
    odec,
    oenc,
    pk,
    rdec,
    renc,
    sign,
    substitute,
    tup,
    var,
    verify,
)

# (protocol, change, reveals, vehicles, max_steps).  One vehicle needs five
# steps before a revocation request is on the network, six before a
# confirmation is.  otoken with reveals stops at one vehicle: there the
# reference enumerator alone needs about 17 s for two.
WALKS = [
    (protocol, change, reveals, vehicles, steps)
    for protocol in ("plain", "rtoken", "otoken")
    for change, reveals in ((False, False), (True, False), (True, True))
    for vehicles, steps in ((1, 5 if protocol == "otoken" and reveals else 6), (2, 5))
    if not (protocol == "otoken" and reveals and vehicles == 2)
]


@pytest.mark.parametrize("protocol,change,reveals,vehicles,steps", WALKS)
def test_enabled_instances_match_reference(protocol, change, reveals, vehicles, steps):
    spec = build_protocol(protocol, change_enabled=change, reveals_enabled=reveals)
    bounds = Bounds(max_steps=steps)
    visited = 0
    for state in explored_states(spec, bounds, vehicles):
        visited += 1
        for rule in spec.rules:
            got = enabled_instances(state, rule, bounds.synthesis_depth)
            want = reference_enabled_instances(state, rule, bounds.synthesis_depth)
            assert [i.key() for i in got] == [i.key() for i in want], rule.id
            assert got == want, rule.id  # costs, derivations, new names too
    assert visited > 10


# --- random knowledge and patterns ----------------------------------------------

ATOMS = [name("A"), name("B"), fresh(810), fresh(811)]
SECRET = fresh(812)  # never observed on its own: underivable
VARS = [var("x"), var("y"), var("z")]
FID_BASE = 830  # above every fresh id the cases use
KEYS = [SECRET, name("A"), SECRET, fresh(810), pk(SECRET)]
BUDGETS = st.sampled_from([2, 1, 3, 0])


def _terms(leaves, reducible: bool):
    def extend(children):
        shapes = [
            st.builds(pk, children),
            st.builds(sign, children, children),
            st.builds(renc, children, children),
            st.builds(oenc, children, children),
            st.builds(tup, children, children),
            st.builds(tup, children, children, children),
        ]
        if reducible:
            keys = st.sampled_from(KEYS)
            shapes += [
                st.builds(verify, children, children, children),
                st.builds(rdec, children, children),
                st.builds(odec, children, children),
                # redexes once their variables are bound
                st.builds(lambda m, kk: verify(sign(m, kk), m, pk(kk)), children, keys),
                st.builds(lambda m, kk: rdec(renc(m, kk), kk), children, keys),
            ]
        return st.one_of(shapes)

    return st.recursive(leaves, extend, max_leaves=5)


GROUND = _terms(st.sampled_from(ATOMS), reducible=False)
PATTERNS = _terms(st.sampled_from(VARS + ATOMS + VARS), reducible=True)


@st.composite
def _material(draw, body, key):
    """Knowledge holding random terms and often wrapped instances of body and
    of x, plus values for every variable."""
    values = {v.ident: draw(GROUND) for v in VARS}
    stored = draw(st.lists(GROUND, max_size=3))
    wrap = draw(st.sampled_from([renc, sign, oenc]))
    if not draw(st.booleans()):
        stored += [wrap(substitute(values, body), key), wrap(values["x"], key)]
    k = Knowledge(budget=draw(st.integers(0, 1)))
    if draw(st.booleans()):
        k, _ = gen_fresh(k.with_budget(k.budget + 1), 820)
    for t in stored:
        k = observe(k, t)
    return k, values, wrap


@st.composite
def synthesis_cases(draw):
    """Knowledge, a pattern, a partial binding and a budget.

    Most patterns pair a body with a signature or ciphertext over it or
    over x, and the knowledge often holds such terms for some instance, so
    that rigid replay, shared variables and withheld bindings all occur.
    """
    body = draw(PATTERNS)
    key = draw(st.sampled_from(KEYS))
    k, values, wrap = draw(_material(body, key))
    pattern = draw(
        st.sampled_from(
            [
                tup(body, wrap(body, key)),
                tup(body, wrap(VARS[0], key)),
                tup(wrap(body, key), body),
                # reduces to true once the rigid sibling binds body
                tup(verify(sign(body, ATOMS[0]), body, pk(ATOMS[0])), wrap(body, key)),
                body,
            ]
        )
    )
    bound = draw(st.sets(st.sampled_from(sorted(values))))
    subst = {ident: normalize(values[ident]) for ident in bound}
    return k, pattern, subst, draw(BUDGETS)


SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(synthesis_cases())
def test_synthesize_matches_reference(case):
    k, pattern, subst, budget = case
    got = synthesize(k, pattern, subst, budget, FID_BASE)
    want = reference_synthesize(k, pattern, subst, budget, FID_BASE)
    assert got == want


@st.composite
def signer_cases(draw):
    """A receive rule whose signer guard names a key held in a premise."""
    body = draw(PATTERNS)
    pub = draw(st.sampled_from([pk(SECRET), pk(name("A")), pk(fresh(810)), name("A")]))
    key = pub.args[0] if getattr(pub, "sym", None) == "pk" else SECRET
    k, _, _ = draw(_material(body, key))
    signer, held = var("s"), var("p")
    rule = Rule(
        id="SIGNED_RECV",
        premises=(Fact("Holds", (held,)),),
        network_in=(tup(body, sign(body, signer)),),
        guards=((verify(sign(body, signer), body, held), TRUE),),
    )
    state = make_state(linear=[Fact("Holds", (pub,))], knowledge=k)
    return state, rule, draw(BUDGETS)


@SETTINGS
@given(signer_cases())
def test_signer_guard_solving_matches_reference(case):
    state, rule, budget = case
    assert enabled_instances(state, rule, budget) == reference_enabled_instances(
        state, rule, budget
    )
