"""Single-step semantics: premise matching, guards, firing, conservation."""

import pytest

from helpers import honest_prefix
from revlab.knowledge import Knowledge
from revlab.rewriting import (
    Fact,
    Rule,
    RuleDefinitionError,
    StaleInstanceError,
    effect,
    enabled_instances,
    fire,
    make_state,
)
from revlab.terms import fresh, match, name, pk, sign, substitute, var
from revlab.protocols import build_protocol, initial_state

A = name("A")


class TestRuleValidation:
    def test_unbound_conclusion_variable_rejected(self):
        with pytest.raises(RuleDefinitionError):
            Rule(id="BAD", conclusions=(Fact("F", (var("x"),)),))

    def test_fresh_and_premise_variables_bind(self):
        Rule(
            id="OK",
            premises=(Fact("P", (var("x"),)),),
            fresh_vars=("n",),
            conclusions=(Fact("Q", (var("x"), var("n"))),),
        )


class TestEnabledInstances:
    def test_missing_linear_premise_yields_nothing(self):
        spec = build_protocol("plain")
        rule = spec.rule("REV_AUTH_OSR_CONF_RECV")
        state = initial_state(spec, 1)  # no AwaitRevokeConfirmation anywhere
        assert enabled_instances(state, rule, 4) == []

    def test_failing_guard_filters_instance(self):
        # signature under the wrong key never satisfies the verify guard
        k1, k2 = fresh(700), fresh(701)
        payload = name("payload")
        state = make_state(
            linear=[Fact("Holds", (pk(k1),))],
            knowledge=Knowledge(basis=frozenset([sign(payload, k2), payload])),
        )
        rule = Rule(
            id="CHECKED_RECV",
            premises=(Fact("Holds", (var("pub"),)),),
            network_in=(sign(payload, var("sk")),),
            guards=((app_verify(payload, var("sk"), var("pub")), name("true")),),
            events=(("Accepted", ()),),
        )
        assert enabled_instances(state, rule, 4) == []

    def test_honest_receive_has_exactly_one_instance(self):
        spec, state = honest_prefix("plain", upto="REV_AUTH_OSR_REQ_SEND")
        rule = spec.rule("OSR_REQ_RECV")
        insts = enabled_instances(state, rule, 4)
        assert len(insts) == 1
        assert _independent_instance_count(state, rule) == 1

    def test_deterministic_enumeration(self):
        spec, state = honest_prefix("rtoken", upto="REV_AUTH_OSR_REQ_SEND")
        rule = spec.rule("REV_AUTH_OSR_CONF_RECV")
        a = [i.key() for i in enabled_instances(state, rule, 4)]
        b = [i.key() for i in enabled_instances(state, rule, 4)]
        assert a == b


def app_verify(m, k, pub):
    from revlab.terms import verify, sign as mk_sign

    return verify(mk_sign(m, k), m, pub)


def _independent_instance_count(state, rule) -> int:
    """Brute-force re-derivation of the instance count for a rule: direct
    fact matching, a subterm candidate pool for message variables, and guard
    evaluation by normalization."""
    from revlab.terms import subterms

    substs = [{}]
    for prem in rule.premises:
        nxt = []
        pool = state.linear if not prem.persistent else tuple(state.persistent)
        for s in substs:
            for f in pool:
                if f.name != prem.name or len(f.args) != len(prem.args):
                    continue
                binding = dict(s)
                ok = True
                for p, g in zip(prem.args, f.args):
                    got = match(p, g, binding)
                    if got is None:
                        ok = False
                        break
                    binding = got
                if ok:
                    nxt.append(binding)
        substs = nxt
    # candidate values for free message variables: every subterm the network
    # ever carried, plus one adversary-minted fresh name
    pool = set()
    for t in state.knowledge.basis:
        pool.update(subterms(t))
    minted = fresh(state.next_fresh + len(rule.fresh_vars))
    if state.knowledge.budget > 0:
        pool.add(minted)
    count = 0
    seen = set()
    for s in substs:
        for pat in rule.network_in:
            free = _free_vars(pat, s)
            for combo in _assignments(sorted(free), sorted(pool, key=str)):
                full = dict(s) | combo
                msg = substitute(full, pat)
                if not _forward_derivable(state.knowledge, msg, extra={minted}):
                    continue
                if all(
                    substitute(full, l) is substitute(full, r) for l, r in rule.guards
                ):
                    key = (tuple(sorted((v, str(t)) for v, t in full.items())), str(msg))
                    if key not in seen:
                        seen.add(key)
                        count += 1
    return count


def _free_vars(pat, subst):
    from revlab.terms import variables

    return [v for v in variables(pat) if v not in subst]


def _assignments(free, pool):
    if not free:
        yield {}
        return
    head, tail = free[0], free[1:]
    for cand in pool:
        for rest in _assignments(tail, pool):
            yield {head: cand, **rest}


def _forward_derivable(k, goal, extra=frozenset()) -> bool:
    from revlab.terms import App, Name

    if goal in k.basis or isinstance(goal, Name) or goal in extra:
        return True
    if isinstance(goal, App) and goal.sym in ("pk", "sign", "renc", "oenc", "verify", "tuple"):
        return all(_forward_derivable(k, a, extra) for a in goal.args)
    return False


class TestFire:
    def test_pseudonym_issuance_publishes_pseudonym(self):
        spec = build_protocol("plain")
        state = initial_state(spec, 1)
        # run the two setup rules feeding pseudonym issuance
        for rid in ("SETUP_REV_AUTH", "SETUP_VEHICLE"):
            rule = spec.rule(rid)
            state, _ = fire(state, rule, enabled_instances(state, rule, 4)[0])
        rule = spec.rule("SETUP_PSEUDONYM")
        inst = enabled_instances(state, rule, 4)[0]
        state, events = fire(state, rule, inst)
        assert any(f.name == "VehiclePSi" for f in state.persistent)
        stored = [f for f in state.persistent if f.name == "VehiclePseudonym"]
        assert len(stored) == 1
        ps = stored[0].args[1]
        assert ps in state.knowledge.basis  # adversary learns the public part
        assert [e.label for e in events] == ["InitVjPseudonym"]

    def test_rule_without_linear_premises_preserves_linear_part(self):
        # REPORT consumes nothing linear (both premises persistent)
        spec, state = honest_prefix("plain", upto="SETUP_PSEUDONYM")
        rule = spec.rule("REPORT")
        before = state.linear
        inst = enabled_instances(state, rule, 4)[0]
        after, _ = fire(state, rule, inst)
        removed = [f for f in before if f not in after.linear]
        assert removed == []  # only additions happened
        assert before == tuple(sorted(before, key=Fact.key))

    def test_plain_receive_consumes_canchange_produces_isrevoked(self):
        spec, state = honest_prefix("plain", upto="REV_AUTH_OSR_REQ_SEND")
        rule = spec.rule("OSR_REQ_RECV")
        inst = enabled_instances(state, rule, 4)[0]
        nxt, events = fire(state, rule, inst)
        assert any(f.name == "CanChange" for f in state.linear)
        assert not any(f.name == "CanChange" for f in nxt.linear)
        assert any(f.name == "IsRevoked" for f in nxt.linear)
        # outgoing confirmation reaches the adversary
        conf = [t for t in nxt.knowledge.basis if t not in state.knowledge.basis]
        assert conf
        labels = [e.label for e in events]
        assert "OsrConfSentBy" in labels and "DeleteAllPseudonyms" in labels

    def test_linear_conservation(self):
        spec, state = honest_prefix("plain", upto="REV_AUTH_OSR_REQ_SEND")
        rule = spec.rule("OSR_REQ_RECV")
        inst = enabled_instances(state, rule, 4)[0]
        nxt, _ = fire(state, rule, inst)
        lost = list(state.linear)
        for f in nxt.linear:
            if f in lost:
                lost.remove(f)
        # exactly the consumed facts disappeared
        gained = list(nxt.linear)
        for f in state.linear:
            if f in gained:
                gained.remove(f)
        assert tuple(sorted(lost, key=Fact.key)) == tuple(
            sorted(inst.consumed, key=Fact.key)
        )
        assert all(f.name in ("IsRevoked",) for f in gained)

    def test_persistent_set_is_shared_when_nothing_is_added(self):
        spec, state = honest_prefix("plain", upto="REV_AUTH_OSR_REQ_SEND")
        rule = spec.rule("OSR_REQ_RECV")
        assert not any(f.persistent for f in rule.conclusions)
        nxt, _ = fire(state, rule, enabled_instances(state, rule, 4)[0])
        assert nxt.persistent is state.persistent
        spec, state = honest_prefix("plain", upto="SETUP_VEHICLE")
        rule = spec.rule("SETUP_PSEUDONYM")  # adds persistent facts
        nxt, _ = fire(state, rule, enabled_instances(state, rule, 4)[0])
        assert nxt.persistent > state.persistent

    def test_knowledge_grows_monotonically(self):
        spec, state = honest_prefix("plain", upto="REV_AUTH_OSR_REQ_SEND")
        rule = spec.rule("OSR_REQ_RECV")
        inst = enabled_instances(state, rule, 4)[0]
        nxt, _ = fire(state, rule, inst)
        assert state.knowledge.basis <= nxt.knowledge.basis

    def test_fire_returns_its_effects_events_and_advances_the_step(self):
        spec, state = honest_prefix("plain", upto="REPORT")
        rule = spec.rule("REV_AUTH_OSR_REQ_SEND")
        inst = enabled_instances(state, rule, 4)[0]
        made = effect(rule, inst)
        nxt, events = fire(state, rule, inst, made)
        assert events is made.events
        assert nxt.step == state.step + 1

    def test_stale_instance_is_rejected(self):
        spec, state = honest_prefix("plain", upto="REV_AUTH_OSR_REQ_SEND")
        rule = spec.rule("OSR_REQ_RECV")
        inst = enabled_instances(state, rule, 4)[0]
        nxt, _ = fire(state, rule, inst)
        with pytest.raises(StaleInstanceError):
            fire(nxt, rule, inst)

    def test_instance_from_another_next_fresh_is_rejected(self):
        rule = Rule(id="MINT", premises=(Fact("P", ()),), fresh_vars=("n",),
                    conclusions=(Fact("Q", (var("n"),)),))
        state = make_state(linear=[Fact("P", ())], next_fresh=3)
        inst = enabled_instances(state, rule, 2)[0]
        assert fire(state, rule, inst)[0].next_fresh == 4
        with pytest.raises(StaleInstanceError, match="does not match state"):
            fire(state._replace(next_fresh=4), rule, inst)

    def test_effect_from_another_next_fresh_is_rejected(self):
        rule = Rule(id="MINT", premises=(Fact("P", ()),), fresh_vars=("n",),
                    conclusions=(Fact("Q", (var("n"),)),))
        state = make_state(linear=[Fact("P", ())], next_fresh=3)
        old = effect(rule, enabled_instances(state, rule, 2)[0])
        state = state._replace(next_fresh=4)
        inst = enabled_instances(state, rule, 2)[0]
        assert fire(state, rule, inst, effect(rule, inst)) == fire(state, rule, inst)
        with pytest.raises(StaleInstanceError, match="does not match state"):
            fire(state, rule, inst, old)

    def test_a_given_effect_fires_as_a_built_one(self):
        spec, state = honest_prefix("plain", upto="REV_AUTH_OSR_REQ_SEND")
        rule = spec.rule("OSR_REQ_RECV")
        inst = enabled_instances(state, rule, 4)[0]
        made = effect(rule, inst)
        assert made.outputs and made.events and made.linear
        assert fire(state, rule, inst, made) == fire(state, rule, inst)

    def test_original_state_is_unmodified(self):
        spec, state = honest_prefix("plain", upto="REPORT")
        rule = spec.rule("REV_AUTH_OSR_REQ_SEND")
        linear_before = state.linear
        basis_before = state.knowledge.basis
        inst = enabled_instances(state, rule, 4)[0]
        fire(state, rule, inst)
        assert state.linear == linear_before
        assert state.knowledge.basis == basis_before
