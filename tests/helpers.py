"""Shared test utilities: independent oracles and cached scenario runs.

Every oracle here is written apart from the production code path it checks:
an outermost-first rewriter against the innermost normalizer, a forward
saturation set against goal-directed derivation, a permutation search
against canonical digests, and a dedup-free recursive enumerator against
the exploring DFS.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from typing import Iterable

from revlab import Bounds, build_protocol, run_all
from revlab.explorer import canonical_events
from revlab.knowledge import Knowledge
from revlab.protocols import initial_state
from revlab.rewriting import Fact, enabled_instances
from revlab.terms import (
    App,
    Fresh,
    Name,
    Term,
    app,
    fresh,
    name,
    normalize,
    oenc,
    pk,
    renc,
    sign,
    term_size,
    tup,
)

# --- scenario cache ----------------------------------------------------------


@lru_cache(maxsize=None)
def scenario(protocol: str, change: bool = False, reveals: bool = False, **bound_kw):
    """One exploration + goal evaluation per configuration, with timing."""
    spec = build_protocol(protocol, change_enabled=change, reveals_enabled=reveals)
    bounds = Bounds(**bound_kw)
    started = time.monotonic()
    result = run_all(spec, bounds)
    elapsed = time.monotonic() - started
    return result, elapsed


def outcomes(result) -> dict:
    return {g: v.outcome for g, v in result.verdicts.items()}


# --- rewriting oracle: leftmost-outermost strategy ---------------------------


def normalize_outermost(t: Term) -> Term:
    while True:
        t2 = _rewrite_once(t)
        if t2 is t:
            return t
        t = t2


def _rewrite_once(t: Term) -> Term:
    if not isinstance(t, App):
        return t
    red = _root_redex(t)
    if red is not None:
        return red
    for i, a in enumerate(t.args):
        a2 = _rewrite_once(a)
        if a2 is not a:
            return app(t.sym, t.args[:i] + (a2,) + t.args[i + 1 :])
    return t


def _root_redex(t: App):
    if t.sym == "verify":
        sig, m, pub = t.args
        if (
            isinstance(sig, App)
            and sig.sym == "sign"
            and sig.args[0] is m
            and isinstance(pub, App)
            and pub.sym == "pk"
            and pub.args[0] is sig.args[1]
        ):
            return name("true")
    if t.sym in ("rdec", "odec"):
        want = "renc" if t.sym == "rdec" else "oenc"
        c, k = t.args
        if isinstance(c, App) and c.sym == want and c.args[1] is k:
            return c.args[0]
    return None


# --- random term generation --------------------------------------------------

ATOM_POOL = [name(x) for x in ("A", "B", "revoke", "confirm")] + [
    fresh(9000 + i) for i in range(4)
]


def random_term(rng, depth: int, atoms=None) -> Term:
    """Random term of bounded depth with a healthy share of redexes."""
    atoms = atoms or ATOM_POOL
    if depth <= 0:
        return rng.choice(atoms)
    roll = rng.random()
    sub = lambda: random_term(rng, depth - 1, atoms)
    if roll < 0.15:
        m, k = sub(), rng.choice(atoms)
        return app("verify", (app("sign", (m, k)), m, app("pk", (k,))))
    if roll < 0.3:
        sym = rng.choice(["rdec", "odec"])
        enc = "renc" if sym == "rdec" else "oenc"
        m, k = sub(), rng.choice(atoms)
        k2 = k if rng.random() < 0.7 else rng.choice(atoms)
        return app(sym, (app(enc, (m, k)), k2))
    if roll < 0.45:
        return rng.choice(atoms)
    sym = rng.choice(["pk", "sign", "renc", "oenc", "tuple", "tuple", "verify"])
    arity = {"pk": 1, "sign": 2, "renc": 2, "oenc": 2, "verify": 3, "tuple": rng.choice([2, 3])}[sym]
    return app(sym, tuple(sub() for _ in range(arity)))


# --- knowledge: independent bottom-up derivability over a saturated set -------


def saturate_oracle(
    k: Knowledge,
    size_cap: int,
    extra_atoms: Iterable[Term] = (),
    max_tuple_arity: int = 3,
) -> frozenset:
    """All derivable terms with at most size_cap constructor applications.

    Naive forward saturation, used only as an independent test oracle for
    can_derive.  Alternates analysis (projection, payload extraction,
    decryption with an in-set key) and synthesis (every constructor over
    in-set arguments whose result stays within size_cap) until fixpoint.
    extra_atoms supplies the public-name alphabet the oracle may utter.
    """
    universe = set(k.basis) | set(k.generated) | {normalize(a) for a in extra_atoms}
    changed = True
    while changed:
        changed = False
        # analysis pass
        for t in list(universe):
            if not isinstance(t, App):
                continue
            parts: tuple = ()
            if t.sym == "tuple":
                parts = t.args
            elif t.sym == "sign":
                parts = (t.args[0],)
            elif t.sym in ("renc", "oenc") and t.args[1] in universe:
                parts = (t.args[0],)
            for p in parts:
                if p not in universe:
                    universe.add(p)
                    changed = True
        # synthesis pass, stratified by result size
        by_size: dict[int, list] = {}
        for t in universe:
            by_size.setdefault(term_size(t), []).append(t)
        for t in _all_constructions(by_size, size_cap, max_tuple_arity):
            if t not in universe:
                universe.add(t)
                changed = True
    return frozenset(t for t in universe if term_size(t) <= size_cap)


def _all_constructions(by_size: dict, cap: int, max_arity: int):
    sizes = sorted(by_size)
    shapes = [("pk", 1), ("sign", 2), ("renc", 2), ("oenc", 2), ("verify", 3)]
    shapes += [("tuple", n) for n in range(2, max_arity + 1)]
    for sym, arity in shapes:
        for combo in _size_combos(sizes, arity, cap - 1):
            pools = [by_size[s] for s in combo]
            for args in _product(pools):
                yield normalize(app(sym, args))


def _size_combos(sizes, arity, budget):
    if arity == 0:
        yield ()
        return
    for s in sizes:
        if s > budget:
            continue
        for rest in _size_combos(sizes, arity - 1, budget - s):
            yield (s,) + rest


def _product(pools):
    if not pools:
        yield ()
        return
    head, *tail = pools
    for h in head:
        for rest in _product(tail):
            yield (h,) + rest


def derivable_forward(universe: frozenset, goal: Term) -> bool:
    """Membership-style derivability: in the saturated set, a public name, or
    a constructor application over forward-derivable arguments."""
    if goal in universe or isinstance(goal, Name):
        return True
    if isinstance(goal, App) and goal.sym in ("pk", "sign", "renc", "oenc", "verify", "tuple"):
        return all(derivable_forward(universe, a) for a in goal.args)
    return False


# --- state isomorphism oracle -------------------------------------------------


def _state_fresh_ids(state, history=()) -> list:
    ids = []

    def walk(t):
        if isinstance(t, Fresh):
            if t.fid not in ids:
                ids.append(t.fid)
        elif isinstance(t, App):
            for a in t.args:
                walk(a)

    for e in history:
        for a in e.args:
            walk(a)
    for f in list(state.linear) + sorted(state.persistent, key=Fact.key):
        for a in f.args:
            walk(a)
    for t in sorted(state.knowledge.basis, key=lambda x: str(x)):
        walk(t)
    for t in state.knowledge.generated:
        walk(t)
    return ids


def _rename_term(t: Term, mapping: dict) -> Term:
    if isinstance(t, Fresh):
        return fresh(mapping[t.fid])
    if isinstance(t, App):
        return app(t.sym, tuple(_rename_term(a, mapping) for a in t.args))
    return t


def _state_shape(state, mapping: dict):
    from revlab.terms import sort_key

    def fact_rows(facts):
        rows = [
            (f.name, tuple(_rename_term(a, mapping) for a in f.args)) for f in facts
        ]
        rows.sort(key=lambda row: (row[0], tuple(sort_key(t) for t in row[1])))
        return tuple(rows)

    basis = frozenset(_rename_term(t, mapping) for t in state.knowledge.basis)
    gen = frozenset(_rename_term(t, mapping) for t in state.knowledge.generated)
    return (
        fact_rows(state.linear),
        fact_rows(state.persistent),
        basis,
        gen,
        state.knowledge.budget,
    )


def states_isomorphic(s1, s2) -> bool:
    """Exhaustive search for a fresh-name bijection mapping s1 onto s2."""
    ids1 = _state_fresh_ids(s1)
    ids2 = _state_fresh_ids(s2)
    if len(ids1) != len(ids2):
        return False
    target = _state_shape(s2, {fid: fid for fid in ids2})
    for perm in itertools.permutations(ids2):
        mapping = dict(zip(ids1, perm))
        if _state_shape(s1, mapping) == target:
            return True
    return False


# --- dedup-free trace enumeration oracle --------------------------------------


def enumerate_event_seqs(spec, init, bounds: Bounds) -> set:
    """All maximal executions, recursively, no dedup; canonical event tuples."""
    init = type(init)(
        linear=init.linear,
        persistent=init.persistent,
        knowledge=init.knowledge.with_budget(bounds.adversary_fresh_budget),
        next_fresh=init.next_fresh,
        step=init.step,
    )
    rules = sorted(spec.rules, key=lambda r: r.id)
    out: set = set()

    def expand(state, events, n_reports, changes):
        from revlab.rewriting import fire

        children = []
        if state.step < bounds.max_steps:
            for rule in rules:
                for inst in enabled_instances(state, rule, bounds.synthesis_depth):
                    if rule.id == "REPORT" and n_reports >= bounds.max_sessions:
                        continue
                    if rule.id == "CHANGE_PSEUDONYM":
                        vj = dict(inst.binding).get("Vj")
                        if changes.get(vj, 0) >= bounds.max_changes:
                            continue
                    children.append((rule, inst))
        if not children:
            out.add(canonical_events(events))
            return
        for rule, inst in children:
            nxt, evs = fire(state, rule, inst)
            nr = n_reports + (1 if rule.id == "REPORT" else 0)
            ch = dict(changes)
            if rule.id == "CHANGE_PSEUDONYM":
                vj = dict(inst.binding).get("Vj")
                ch[vj] = ch.get(vj, 0) + 1
            expand(nxt, events + list(evs), nr, ch)

    expand(init, [], 0, {})
    return out


# --- random states for canonicalization checks --------------------------------


def random_small_state(rng):
    from revlab.knowledge import Knowledge, observe
    from revlab.rewriting import make_state

    n = rng.randint(1, 4)
    names = [fresh(7000 + i) for i in range(n)]
    pubs = [name("A"), name("B")]
    fact_shapes = [
        lambda f: Fact("Key", (f,)),
        lambda f: Fact("Cert", (rng.choice(pubs), pk(f))),
        lambda f: Fact("Session", (f, rng.choice(pubs)), persistent=True),
    ]
    linear, persistent = [], []
    for f in names:
        shape = rng.choice(fact_shapes)(f)
        (persistent if shape.persistent else linear).append(shape)
    k = Knowledge(budget=rng.randint(0, 1))
    if rng.random() < 0.6:
        f = rng.choice(names)
        k = observe(
            k, rng.choice([pk(f), sign(rng.choice(pubs), f), renc(name("M"), f)])
        )
    return make_state(linear=linear, persistent=persistent, knowledge=k)


def renamed_copy(state, rng):
    from revlab.knowledge import Knowledge
    from revlab.rewriting import make_state

    ids = sorted({f.fid for f in _all_fresh(state)})
    new_ids = rng.sample(range(8000, 8100), len(ids))
    mapping = dict(zip(ids, new_ids))
    linear = [
        Fact(f.name, tuple(_rename_term(a, mapping) for a in f.args), f.persistent)
        for f in state.linear
    ]
    persistent = [
        Fact(f.name, tuple(_rename_term(a, mapping) for a in f.args), f.persistent)
        for f in state.persistent
    ]
    k = Knowledge(
        basis=frozenset(_rename_term(t, mapping) for t in state.knowledge.basis),
        generated=tuple(_rename_term(t, mapping) for t in state.knowledge.generated),
        budget=state.knowledge.budget,
    )
    return make_state(linear=linear, persistent=persistent, knowledge=k)


def _all_fresh(state):
    for f in list(state.linear) + list(state.persistent):
        for a in f.args:
            yield from _walk_fresh(a)
    for t in state.knowledge.basis:
        yield from _walk_fresh(t)


def _walk_fresh(t):
    if isinstance(t, Fresh):
        yield t
    elif isinstance(t, App):
        for a in t.args:
            yield from _walk_fresh(a)


# --- randomized can_derive vs saturation agreement -----------------------------


def oracle_agreement_cases(seed: int, rounds: int, deep_rounds: int = 0) -> int:
    """Cross-check can_derive against forward saturation on random cases.

    Returns the number of (knowledge, goal) pairs compared; any disagreement
    fails immediately.  Keys of generated ciphertexts stay within the
    oracle's size window so both sides see the same decryption opportunities.
    deep_rounds adds slower cases at three constructor applications over a
    two-atom alphabet.
    """
    import random as _random

    rng = _random.Random(seed)
    checked = 0
    for _ in range(rounds):
        checked += _one_agreement_round(rng, n_atoms=2, cap=2, arity=3)
    for _ in range(deep_rounds):
        checked += _one_agreement_round(rng, n_atoms=1, cap=3, arity=2)
    return checked


def _one_agreement_round(rng, n_atoms: int, cap: int, arity: int) -> int:
    from revlab.knowledge import can_derive, gen_fresh, observe

    atoms = [name(x) for x in ("A", "B")[:n_atoms]] + [
        fresh(960 + i) for i in range(2)
    ]
    k = Knowledge(budget=0)
    if rng.random() < 0.5:
        k, _ = gen_fresh(Knowledge(budget=1), 970)
    for _ in range(rng.randint(1, 4)):
        k = observe(k, oracle_safe_term(rng, atoms))
    public = [a for a in atoms if isinstance(a, Name)]
    S = saturate_oracle(k, cap, extra_atoms=public, max_tuple_arity=arity)
    universe = frozenset(S)
    goals = list(sorted(S, key=str))[::3][:8]
    for _ in range(10):
        goals.append(normalize(oracle_safe_term(rng, atoms)))
    checked = 0
    for g in goals:
        if term_size(g) > cap or _max_arity(g) > arity:
            continue
        got = can_derive(k, g, cap + 2) is not None
        expect = g in S
        assert derivable_forward(universe, g) == expect
        assert got == expect, f"disagreement on {g!r}"
        checked += 1
    return checked


def _max_arity(t) -> int:
    if isinstance(t, App):
        own = len(t.args) if t.sym == "tuple" else 0
        return max([own] + [_max_arity(a) for a in t.args])
    return 0


def oracle_safe_term(rng, atoms):
    # sizes <= 3, encryption keys atomic or pk(atomic): inside the window
    roll = rng.random()
    a = lambda: rng.choice(atoms)
    if roll < 0.25:
        return tup(a(), a())
    if roll < 0.45:
        key = a() if rng.random() < 0.7 else pk(a())
        return rng.choice([renc, oenc])(a(), key)
    if roll < 0.65:
        return sign(a(), a())
    if roll < 0.8:
        return pk(a())
    return tup(a(), tup(a(), a()))


# --- protocol fixtures ---------------------------------------------------------


def honest_prefix(protocol: str, upto: str = "REV_AUTH_OSR_REQ_SEND"):
    """Drive the honest run up to (and including) the named rule; return state."""
    from revlab.rewriting import fire

    spec = build_protocol(protocol)
    state = initial_state(spec, 1)
    state = type(state)(
        linear=state.linear,
        persistent=state.persistent,
        knowledge=state.knowledge.with_budget(1),
        next_fresh=state.next_fresh,
        step=state.step,
    )
    order = [
        "SETUP_REV_AUTH",
        "SETUP_VEHICLE",
        "SETUP_PSEUDONYM",
        "REPORT",
        "REV_AUTH_OSR_REQ_SEND",
        "OSR_REQ_RECV",
        "REV_AUTH_OSR_CONF_RECV",
    ]
    for rule_id in order:
        rule = spec.rule(rule_id)
        insts = enabled_instances(state, rule, 4)
        assert insts, f"{rule_id} not enabled on the honest path"
        state, _ = fire(state, rule, insts[0])
        if rule_id == upto:
            break
    return spec, state


# --- filter-after-enumeration synthesis oracle ----------------------------------
#
# Network-input synthesis as it stood before guard solving and rigid-first
# ordering: every open variable draws from the whole basis plus one fresh
# name, arguments are synthesized left to right, and guards only filter
# complete instances.  Memo entries carry a "ref" tag so they never mix with
# the production synthesizer's entries in the same Knowledge.


def explored_states(spec, bounds: Bounds, n_vehicles: int = 1):
    """Every state a history-keyed DFS visits, in its order (leaves included).

    States merge only when their event histories match too, so this walks
    more states than explore does, which merges on monitor states instead.
    """
    from revlab.explorer import _children, canonicalize

    init = initial_state(spec, n_vehicles)
    init = type(init)(
        linear=init.linear,
        persistent=init.persistent,
        knowledge=init.knowledge.with_budget(bounds.adversary_fresh_budget),
        next_fresh=init.next_fresh,
        step=init.step,
    )
    rules = sorted(spec.rules, key=lambda r: r.id)
    seen: set = set()
    stack = [(init, (), {})]
    while stack:
        state, history, usage = stack.pop()
        digest = f"step:{state.step}|" + canonicalize(state, history)
        if digest in seen:
            continue
        seen.add(digest)
        yield state
        if state.step < bounds.max_steps:
            for child, step, used in reversed(_children(state, usage, rules, bounds)):
                stack.append((child, history + step.events, used))


def reference_enabled_instances(state, rule, synthesis_budget: int) -> list:
    """enabled_instances without guard solving: enumerate, then filter."""
    from revlab.rewriting import Instance, _guards_hold, _match_premises

    out = []
    fresh_alloc = tuple(
        (ident, fresh(state.next_fresh + i, origin=f"{rule.id}:{ident}"))
        for i, ident in enumerate(rule.fresh_vars)
    )
    fid_base = state.next_fresh + len(fresh_alloc)
    for subst, consumed in _match_premises(state, rule.premises):
        subst = dict(subst)
        subst.update(fresh_alloc)
        for full, inputs, costs, derivs, new_names in _reference_fill(
            state.knowledge, rule.network_in, subst, synthesis_budget, fid_base
        ):
            if not _guards_hold(rule.guards, full):
                continue
            out.append(
                Instance(
                    rule_id=rule.id,
                    binding=tuple(sorted(full.items())),
                    consumed=consumed,
                    inputs=inputs,
                    input_costs=costs,
                    input_derivations=derivs,
                    new_names=new_names,
                    fresh_alloc=fresh_alloc,
                )
            )
    out.sort(key=Instance.key)
    return out


def _reference_fill(k, patterns, subst, budget, fid_base):
    if not patterns:
        yield subst, (), (), (), ()
        return
    head, tail = patterns[0], patterns[1:]
    for r in reference_synthesize(k, head, subst, budget, fid_base):
        sub2 = dict(subst)
        sub2.update(dict(r.subst))
        for full, inputs, costs, derivs, names in _reference_fill(
            k, tail, sub2, budget, fid_base + len(r.new_names)
        ):
            yield (
                full,
                (r.term,) + inputs,
                (r.cost,) + costs,
                (r.derivation,) + derivs,
                r.new_names + names,
            )


def reference_synthesize(k, pattern, subst: dict, budget: int, fid_base: int) -> list:
    """synthesize() with full-basis candidates and positional argument order."""
    from revlab.knowledge import SynthResult
    from revlab.terms import sort_key, variables

    pvars = variables(pattern)
    relevant = tuple(sorted((v, t) for v, t in subst.items() if v in pvars))
    memo_key = ("ref-synth", pattern, relevant, budget, fid_base)
    hit = k._memo.get(memo_key)
    if hit is not None:
        return hit
    results: dict = {}
    for subst2, term, cost, new_names, deriv in _ref_synth(
        k, pattern, dict(relevant), budget, fid_base
    ):
        key = (tuple(sorted(subst2.items())), term, new_names)
        old = results.get(key)
        if old is None or cost < old[0]:
            results[key] = (cost, deriv)
    out = [
        SynthResult(subst=key[0], term=key[1], cost=cost, new_names=key[2], derivation=deriv)
        for key, (cost, deriv) in results.items()
    ]
    out.sort(
        key=lambda r: (
            sort_key(r.term),
            tuple((ident, sort_key(t)) for ident, t in r.subst),
        )
    )
    k._memo[memo_key] = out
    return out


def _ref_synth(k, pattern, subst, budget, next_fid):
    from revlab.terms import variables

    pvars = variables(pattern)
    rel = {v: t for v, t in subst.items() if v in pvars}
    key = ("ref-pat", pattern, tuple(sorted(rel.items())), budget, next_fid)
    hit = k._memo.get(key)
    if hit is None:
        hit = list(_ref_synth_raw(k, pattern, rel, budget, next_fid))
        k._memo[key] = hit
    for delta, term, cost, names, deriv in hit:
        merged = dict(subst)
        merged.update(delta)
        yield merged, term, cost, names, deriv


def _ref_synth_raw(k, pattern, subst, budget, next_fid):
    from revlab.knowledge import can_derive
    from revlab.terms import (
        CONSTRUCTORS,
        Var,
        instantiate_partial,
        is_ground,
        match,
        render,
        sort_key,
    )

    p = instantiate_partial(subst, pattern)
    if is_ground(p):
        g = normalize(p)
        d = can_derive(k, g, budget)
        if d is not None:
            yield subst, g, d.cost, (), d.render()
        return
    if isinstance(p, Var):
        for term, new_names, deriv in _ref_candidates(k, next_fid):
            sub2 = dict(subst)
            sub2[p.ident] = term
            yield sub2, term, 0, new_names, deriv
        return
    for stored in sorted(k.basis, key=sort_key):
        m = match(p, stored, subst)
        if m is not None:
            yield m, stored, 0, (), f"{render(stored)}[known]"
    if p.sym in CONSTRUCTORS and budget >= 1:
        for sub2, args, cost, new_names, derivs in _ref_synth_args(
            k, p.args, subst, budget - 1, next_fid
        ):
            g = normalize(app(p.sym, args))
            yield sub2, g, cost + 1, new_names, f"(build:{p.sym} {' '.join(derivs)})"


def _ref_synth_args(k, patterns, subst, budget, next_fid):
    if not patterns:
        yield subst, (), 0, (), ()
        return
    head, tail = patterns[0], patterns[1:]
    for sub1, t1, c1, names1, d1 in _ref_synth(k, head, subst, budget, next_fid):
        for sub2, rest, c2, names2, drest in _ref_synth_args(
            k, tail, sub1, budget - c1, next_fid + len(names1)
        ):
            if c1 + c2 <= budget:
                yield sub2, (t1,) + rest, c1 + c2, names1 + names2, (d1,) + drest


def _ref_candidates(k, next_fid) -> list:
    from revlab.terms import render, sort_key

    cands = []
    if k.budget > 0:
        f = fresh(next_fid, origin="adversary")
        cands.append((f, (f,), f"{render(f)}[gen-fresh]"))
    for g in k.generated:
        cands.append((g, (), f"{render(g)}[generated]"))
    for t in k.basis:
        if t not in k.generated:
            cands.append((t, (), f"{render(t)}[known]"))
    cands.sort(key=lambda c: sort_key(c[0]))
    return cands
