"""Term algebra: normalization, matching, substitution, rendering."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import normalize_outermost, random_term
from revlab.terms import (
    App,
    SignatureError,
    TRUE,
    UnboundVariableError,
    Var,
    app,
    fresh,
    instantiate_partial,
    is_ground,
    match,
    name,
    normalize,
    odec,
    oenc,
    pk,
    rdec,
    renc,
    render,
    sign,
    sort_key,
    substitute,
    subterms,
    term_size,
    tup,
    var,
    verify,
)

M = name("M")
R = name("R")
K = fresh(800)
K2 = fresh(801)


class TestNormalize:
    def test_verify_of_matching_signature_is_true(self):
        assert normalize(app("verify", (sign(M, K), M, pk(K)))) is TRUE

    def test_rdec_inverts_renc(self):
        assert normalize(rdec(renc(R, K), K)) is R

    def test_odec_inverts_oenc(self):
        assert normalize(odec(oenc(R, K), K)) is R

    def test_wrong_key_verification_is_stuck(self):
        t = app("verify", (sign(M, K), M, pk(K2)))
        assert normalize(t) is t

    def test_wrong_key_decryption_is_stuck(self):
        t = rdec(renc(R, K), K2)
        assert normalize(t) is t
        cross = rdec(oenc(R, K), K)
        assert normalize(cross) is cross

    def test_nested_redexes_reduce_innermost_first(self):
        inner = rdec(renc(M, K), K)  # -> M
        t = app("verify", (sign(inner, K2), M, pk(K2)))
        assert normalize(t) is TRUE

    def test_idempotent_and_order_independent(self):
        rng = random.Random(7)
        for _ in range(2000):
            t = random_term(rng, rng.randint(0, 6))
            n = normalize(t)
            assert normalize(n) is n
            assert normalize_outermost(t) is n

    def test_subterm_closure_of_normal_forms(self):
        rng = random.Random(8)
        for _ in range(500):
            n = normalize(random_term(rng, rng.randint(0, 5)))
            for s in subterms(n):
                assert normalize(s) is s


class TestMatch:
    def test_binds_variable_positionally(self):
        got = match(tup(var("x"), name("confirm")), tup(name("N"), name("confirm")))
        assert got == {"x": name("N")}

    def test_binds_under_function_symbol(self):
        assert match(pk(var("x")), pk(K)) == {"x": K}

    def test_distinct_constants_do_not_match(self):
        assert match(name("revoke"), name("confirm")) is None

    def test_inconsistent_repeated_variable(self):
        assert match(tup(var("x"), var("x")), tup(M, R)) is None

    def test_roundtrip_with_substitute(self):
        rng = random.Random(9)
        for _ in range(500):
            g = normalize(random_term(rng, rng.randint(1, 4)))
            p = _generalize(rng, g)
            sigma = match(p, g)
            if sigma is not None:
                assert substitute(sigma, p) is g


def _generalize(rng, t):
    # replace random subterms by variables to obtain a matching pattern
    if rng.random() < 0.3:
        return var(f"v{rng.randint(0, 3)}")
    from revlab.terms import App

    if isinstance(t, App):
        return app(t.sym, tuple(_generalize(rng, a) for a in t.args))
    return t


class TestSubstitute:
    def test_homomorphic_replacement(self):
        A = name("A")
        assert substitute({"x": A}, tup(var("x"), var("x"))) is tup(A, A)

    def test_identity_on_ground(self):
        assert substitute({}, name("revoke")) is name("revoke")

    def test_composes_with_normalization(self):
        # hand evaluation: sign then verify under matching keys collapses
        pattern = app("verify", (sign(var("m"), var("k")), var("m"), pk(var("k"))))
        assert substitute({"k": K, "m": M}, pattern) is TRUE

    def test_unbound_variable_raises(self):
        with pytest.raises(UnboundVariableError):
            substitute({}, var("zzz"))


def _unmemoized(subst: dict, t, partial: bool):
    """Replace t's variables by recursion, with no memo; an unbound variable
    stays when partial, else raises naming the first one in t."""
    if isinstance(t, Var):
        if t.ident in subst:
            return subst[t.ident]
        if partial:
            return t
        raise UnboundVariableError(t.ident)
    if isinstance(t, App):
        return app(t.sym, tuple(_unmemoized(subst, a, partial) for a in t.args))
    return t


def _patterns():
    leaves = st.sampled_from([var("x"), var("y"), var("z"), M, K, var("x")])

    def extend(children):
        return st.one_of(
            st.builds(pk, children),
            st.builds(sign, children, children),
            st.builds(tup, children, children),
            st.builds(verify, children, children, children),
            st.builds(rdec, children, children),
            # redexes once their variables are bound
            st.builds(lambda m, k: verify(sign(m, k), m, pk(k)), children, children),
            st.builds(lambda m, k: rdec(renc(m, k), k), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=6)


# values drawn from a small pool, so that bindings often repeat
BINDINGS = st.dictionaries(
    st.sampled_from(["x", "y", "z", "w"]),
    st.sampled_from([M, R, K, K2, pk(K), sign(M, K), renc(R, K2)]),
)


class TestMemoizedSubstitution:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_patterns(), st.lists(BINDINGS, min_size=1, max_size=4))
    def test_equals_a_memo_free_recursion(self, pattern, bindings):
        # each binding twice, so the later calls read what earlier ones memoized
        for subst in bindings + bindings:
            partial = _unmemoized(subst, pattern, partial=True)
            assert instantiate_partial(subst, pattern) is partial
            try:
                want = normalize_outermost(_unmemoized(subst, pattern, partial=False))
            except UnboundVariableError as missing:
                with pytest.raises(UnboundVariableError) as got:
                    substitute(subst, pattern)
                assert got.value.args == missing.args
            else:
                assert substitute(subst, pattern) is want


class TestSignature:
    def test_arity_is_enforced(self):
        with pytest.raises(SignatureError):
            app("pk", (M, M))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(SignatureError):
            app("hash", (M,))

    def test_non_term_arguments_rejected(self):
        with pytest.raises(SignatureError):
            app("pk", ("M",))
        with pytest.raises(SignatureError):
            app("pk", ([M],))  # unhashable, so not in the intern table either

    def test_tuple_needs_two_fields(self):
        with pytest.raises(SignatureError):
            app("tuple", (M,))
        assert app("tuple", (M, R, K, K2)).sym == "tuple"

    def test_interning_gives_identity_equality(self):
        assert sign(M, K) is sign(M, K)
        assert fresh(800) is K

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_the_interned_term(self, round_trip):
        from revlab.rewriting import Fact

        for t in (M, K, var("x"), sign(tup(M, var("x")), K)):
            assert round_trip(t) is t
            fact = Fact("F", (t, tup(t, t)))
            got = round_trip(fact)
            assert got == fact and all(a is b for a, b in zip(got.args, fact.args))


class TestRendering:
    def test_stable_sexpr_forms(self):
        assert render(sign(M, K)) == "(sign M ~800)"
        assert render(var("x")) == "?x"
        assert render(tup(M, R)) == "(tuple M R)"

    def test_sort_key_orders_fresh_before_names_before_apps(self):
        ks = sorted([pk(K), M, K], key=sort_key)
        assert ks == [K, M, pk(K)]

    def test_term_size_counts_applications(self):
        assert term_size(M) == 0
        assert term_size(pk(K)) == 1
        assert term_size(sign(tup(M, R), K)) == 2

    def test_ground_detection(self):
        assert is_ground(sign(M, K))
        assert not is_ground(sign(var("x"), K))
