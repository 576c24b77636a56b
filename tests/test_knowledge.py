"""Adversary knowledge: analysis closure, derivability, oracle agreement."""

import random

from helpers import oracle_agreement_cases, random_term, saturate_oracle
from revlab.knowledge import (
    Knowledge,
    can_derive,
    gen_fresh,
    observe,
    synthesize,
)
from revlab.terms import fresh, name, normalize, oenc, pk, renc, sign, tup, var

A, B = name("A"), name("B")
M = name("M")
SK = fresh(900)
K_OTHER = fresh(901)


def K(*terms, generated=(), budget=0):
    k = Knowledge(generated=tuple(generated), budget=budget)
    k = Knowledge(
        basis=frozenset(list(generated)), generated=tuple(generated), budget=budget
    )
    for t in terms:
        k = observe(k, t)
    return k


class TestObserve:
    def test_tuple_projection(self):
        k = K(tup(A, B))
        assert A in k.basis and B in k.basis

    def test_decryption_needs_the_key(self):
        with_key = K(SK, renc(M, SK))
        assert M in with_key.basis
        without = K(renc(M, SK))
        assert M not in without.basis

    def test_signature_reveals_payload_not_key(self):
        k = K(sign(M, SK))
        assert M in k.basis
        assert can_derive(k, SK, 10) is None
        # forward saturation agrees that the key stays out of reach
        assert SK not in saturate_oracle(k, 3, extra_atoms=(A, M))

    def test_late_key_unlocks_stored_ciphertext(self):
        k = K(oenc(M, SK))
        assert M not in k.basis
        k = observe(k, SK)
        assert M in k.basis

    def test_repeated_observation_shares_no_memo(self):
        k = K(A)
        first = observe(k, B)
        assert can_derive(first, tup(A, B), 1) is not None and first._memo
        again = observe(k, B)  # served from the closure table
        assert again == first and again is not first and not again._memo

    def test_input_is_not_mutated(self):
        k0 = K(SK)
        k1 = observe(k0, renc(M, SK))
        assert M not in k0.basis and M in k1.basis

    def test_observing_derivable_term_changes_no_verdicts(self):
        k = K(A, SK)
        goals = [tup(A, SK), pk(SK), sign(A, SK), B, K_OTHER]
        before = [can_derive(k, g, 4) is not None for g in goals]
        k2 = observe(k, tup(A, SK))
        after = [can_derive(k2, g, 4) is not None for g in goals]
        assert before == after


class TestCanDerive:
    def test_sign_with_known_parts(self):
        k = K(M, SK)
        d = can_derive(k, sign(M, SK), 1)
        assert d is not None and d.cost == 1

    def test_cannot_resign_without_key(self):
        k = K(sign(M, SK))
        assert can_derive(k, sign(tup(M, M), SK), 10) is None

    def test_public_names_cost_nothing(self):
        assert can_derive(Knowledge(), name("confirm"), 0) is not None

    def test_depth_budget_is_respected(self):
        k = K(M, SK)
        goal = sign(tup(M, M), SK)  # two applications
        assert can_derive(k, goal, 1) is None
        assert can_derive(k, goal, 2) is not None

    def test_forged_confirmation_derivable_after_broadcast(self):
        # after the revocation broadcast, the token is extractable and a
        # confirmation over it signed with a self-minted key costs 2 steps
        from helpers import honest_prefix

        spec, state = honest_prefix("rtoken", upto="REV_AUTH_OSR_REQ_SEND")
        (await_fact,) = [f for f in state.linear if f.name == "AwaitRevokeConfirmation"]
        sigma = await_fact.args[2].args[1]
        k, adv_key = gen_fresh(state.knowledge, state.next_fresh)
        goal = sign(tup(name("confirm"), sigma), adv_key)
        d = can_derive(k, goal, 3)
        assert d is not None and d.cost == 2
        # yet the genuine long-term key stays out of reach
        ltk = sigma.args[1]
        assert can_derive(k, ltk, 10) is None

    def test_monotone_in_knowledge(self):
        rng = random.Random(20)
        for _ in range(100):
            t1 = normalize(random_term(rng, 2))
            t2 = normalize(random_term(rng, 2))
            goal = normalize(random_term(rng, 2))
            k_small = K(t1)
            k_big = observe(k_small, t2)
            if can_derive(k_small, goal, 4) is not None:
                assert can_derive(k_big, goal, 4) is not None


class TestGenFresh:
    def test_two_names_are_distinct(self):
        k = Knowledge(budget=2)
        k, f1 = gen_fresh(k, 950)
        k, f2 = gen_fresh(k, 951)
        assert f1 is not f2

    def test_generated_names_cost_nothing(self):
        k = Knowledge(budget=1)
        k, f = gen_fresh(k, 952)
        assert can_derive(k, f, 0) is not None

    def test_budget_exhaustion_signals(self):
        assert gen_fresh(Knowledge(budget=0), 953) is None


class TestSaturateOracle:
    def test_empty_knowledge_yields_nothing_beyond_generated(self):
        assert saturate_oracle(Knowledge(), 3) == frozenset()
        k, f = gen_fresh(Knowledge(budget=1), 954)
        S = saturate_oracle(k, 2)
        assert f in S
        # everything else is built from the generated name alone
        from revlab.terms import Fresh, subterms

        for t in S:
            assert all(a is f for a in subterms(t) if isinstance(a, Fresh))

    def test_contains_small_constructions(self):
        S = saturate_oracle(K(A), 2)
        assert pk(A) in S and tup(A, A) in S

    def test_agreement_with_can_derive(self):
        assert oracle_agreement_cases(seed=31, rounds=12) >= 100


class TestSynthesize:
    def test_ground_pattern_checks_derivability(self):
        k = K(M, SK)
        got = synthesize(k, sign(M, SK), {}, 4, 0)
        assert len(got) == 1 and got[0].term is sign(M, SK)

    def test_variable_position_offers_fresh_name_first(self):
        k = Knowledge(basis=frozenset([A]), budget=1)
        got = synthesize(k, var("x"), {}, 4, 77)
        assert got[0].term is fresh(77)
        assert got[0].new_names == (fresh(77),)

    def test_structured_pattern_replays_basis_match(self):
        stored = sign(M, SK)
        k = K(stored)
        got = synthesize(k, sign(var("b"), var("kk")), {}, 4, 0)
        replays = [
            r for r in got if r.term is stored and r.derivation.cost == 0 and not r.new_names
        ]
        assert replays and dict(replays[0].subst)["kk"] is SK

    def test_budget_zero_blocks_construction(self):
        k = K(M, SK)
        assert synthesize(k, tup(M, SK), {}, 0, 0) == []
        assert synthesize(k, tup(M, SK), {}, 1, 0) != []
