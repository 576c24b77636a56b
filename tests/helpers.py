"""Shared test utilities: independent oracles and cached scenario runs.

Every oracle here is written apart from the production code path it checks:
an outermost-first rewriter against the innermost normalizer, a forward
saturation set against goal-directed derivation, a permutation search
against canonical digests, a dedup-free recursive enumerator and a search
without sleep sets, layers or instance cache against the explorer's
search, and revlab's former argparse parser against the flag table in
`revlab.cli`.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from collections import Counter
from functools import lru_cache, reduce
from typing import Iterable

from revlab import Bounds, build_protocol, run_all
from revlab import __version__, canonical, cli, monitors
from revlab.canonical import (
    _assemble,
    _certificate,
    _compile,
    _compile_fact,
    _compile_seq,
    _least_text,
    _ranked,
)
from revlab.knowledge import Derivation, Knowledge, can_derive
from revlab.protocols import PROTOCOLS, SECRET_FRESH_VARS, initial_state
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


def watch_of(steps) -> tuple:
    """Every monitor's state after the steps, folded from the start."""
    return reduce(monitors.advance_all, steps, monitors.start())


def unmemoized_advance(m: monitors.Monitor, state: frozenset, step) -> frozenset:
    """Monitor.advance without its memo: m's at function applied to the
    step's events, if one has a label m reads and the pattern does not hold."""
    if state is not m.hit and any(e.label in m.labels for e in step.events):
        state = m._at(m, state, step.events)
    return state


def check_memoized_advance(steps) -> int:
    """Fold the steps through every monitor, memoized and not, asserting
    equal states after each step; returns the number of steps compared."""
    for m in monitors.MONITORS.values():
        state = monitors.START
        for step in steps:
            want = unmemoized_advance(m, state, step)
            got = m.advance(state, step)
            assert got == want, (m.goal, step.events)
            assert m.holds(got) == (want is m.hit)
            state = want
    return len(steps)


# --- goal-side checks that only the tests use ---------------------------------


def reveal_guard_weak(events, vehicle, upto: int) -> bool:
    """Whether the vehicle's keys were revealed (RevealLtk / RevealSKPSi).

    Scoped to timepoints up to `upto`: every prefix of an explored trace is
    itself a valid execution, so a compromise after the anchor event cannot
    excuse a pattern that already occurred.
    """
    return any(
        e.label in monitors.WEAK_REVEALS and e.args[0] is vehicle and e.time <= upto
        for e in events
    )


def secrecy_violations(spec, trace_set, depth: int = 4) -> list:
    """Secret fresh values that became adversary-derivable, across all traces.

    Knowledge grows monotonically along a trace, so checking each terminal
    state covers every explored prefix.
    """
    bad = []
    for trace in trace_set:
        k = trace.terminal_state.knowledge
        revealed = any(
            e.label in ("RevealLtk", "RevealSKPSi", "VjSKPSiReveal")
            for e in trace.events
        )
        if revealed:
            continue
        for step in trace.steps:
            for ident, f in _fresh_allocations(spec, step):
                if ident in SECRET_FRESH_VARS and can_derive(k, f, depth) is not None:
                    bad.append((trace, step.rule_id, ident, f))
    return bad


def _fresh_allocations(spec, step):
    fresh_vars = spec.rule(step.rule_id).fresh_vars
    for ident, t in step.binding:
        if ident in fresh_vars and isinstance(t, Fresh):
            yield ident, t


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


# --- digests with event histories and monitor facts -------------------------


def digest(state, history: tuple = (), monitor=()) -> str:
    """canonical.digest of a state, optionally with its event history and
    monitor facts.

    History events are position-fixed, so their names canonicalize by first
    occurrence.  Monitor facts are one more section of the state, renamed
    together with it.  With neither, this is canonical.digest itself.
    """
    if not history and not monitor:
        return canonical.digest(state)
    events, base = _compile_history(history)
    sections = [
        ("lin", [_compile_fact(f) for f in state.linear]),
        ("per", [_compile_fact(f) for f in state.persistent]),
        ("kn", [_compile(t) for t in state.knowledge.basis]),
        ("gen", [_compile(t) for t in state.knowledge.generated]),
    ]
    if monitor:
        sections.append(("mon", [_compile_fact(f) for f in monitor]))
    tagged_items = [(key, c) for key, items in sections for c in items]

    def full_render(slot) -> str:
        parts = [f"budget:{state.knowledge.budget}"]
        parts += ["ev " + _assemble(c, slot) for c in events]
        for key, items in sections:
            rendered = sorted(_assemble(c, slot) for c in items)
            parts.append(key + "{" + ";".join(rendered) + "}")
        return "|".join(parts)

    return _least_text(tagged_items, full_render, dict(base))


def canonical_events(events) -> tuple:
    """Event sequence rendered with per-trace canonical fresh renaming."""
    compiled, renaming = _compile_history(events)
    return tuple(_assemble(c, renaming.__getitem__) for c in compiled)


_compiled_events: dict = {}


def _compile_history(events):
    """Compiled events and their fresh names' slot texts, by first occurrence."""
    compiled = []
    for e in events:
        got = _compiled_events.get(e)
        if got is None:
            got = _compiled_events[e] = _compile_seq(f"{e.label}(", e.args, ", ", f")@{e.time}")
        compiled.append(got)
    renaming: dict[int, str] = {}
    for _, fids in compiled:
        for fid in fids:
            renaming.setdefault(fid, f"~c{len(renaming)}")
    return compiled, renaming


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


def _rename_term(t: Term, mapping: dict, swap=None) -> Term:
    """t with fresh ids renamed by mapping and names (Name terms) by swap."""
    if isinstance(t, Fresh):
        return fresh(mapping[t.fid])
    if isinstance(t, App):
        return app(t.sym, tuple(_rename_term(a, mapping, swap) for a in t.args))
    return swap.get(t, t) if swap else t


def _state_shape(state, mapping: dict, swap=None):
    from revlab.terms import sort_key

    def fact_rows(facts):
        rows = [
            (f.name, tuple(_rename_term(a, mapping, swap) for a in f.args)) for f in facts
        ]
        rows.sort(key=lambda row: (row[0], tuple(sort_key(t) for t in row[1])))
        return tuple(rows)

    basis = frozenset(_rename_term(t, mapping, swap) for t in state.knowledge.basis)
    gen = frozenset(_rename_term(t, mapping, swap) for t in state.knowledge.generated)
    return (
        fact_rows(state.linear),
        fact_rows(state.persistent),
        basis,
        gen,
        state.knowledge.budget,
    )


def reference_least_certificate(rows, links, colour: dict, classes: int) -> list:
    """canonical._least_certificate without shortcuts, as a reference.

    Every name, alone in its colour or not, is refined by its neighbours'
    colours each round, and every member of the least tied cell is
    individualized.
    """
    while True:
        colour, refined = _ranked({
            x: (colour[x], tuple(sorted(
                (slot, tuple(map(colour.__getitem__, names))) for slot, names in occ
            )))
            for x, occ in links.items()
        })
        if refined == classes:
            break
        classes = refined
    if classes == len(colour):
        return _certificate(rows, colour)
    sizes = Counter(colour.values())
    cell = min(c for c, n in sizes.items() if n > 1)
    return min(
        reference_least_certificate(
            rows, links, {f: 2 * k + (f != x) for f, k in colour.items()}, classes + 1
        )
        for x, c in colour.items()
        if c == cell
    )


def states_isomorphic(s1, s2, vehicles=()) -> bool:
    """Exhaustive search for a renaming mapping s1 onto s2.

    The renaming is a fresh-name bijection together with a permutation of
    the names in vehicles (none by default).
    """
    ids1 = _state_fresh_ids(s1)
    ids2 = _state_fresh_ids(s2)
    if len(ids1) != len(ids2):
        return False
    target = _state_shape(s2, {fid: fid for fid in ids2})
    vehicles = list(vehicles)
    for order in itertools.permutations(vehicles):
        swap = dict(zip(vehicles, order))
        for perm in itertools.permutations(ids2):
            mapping = dict(zip(ids1, perm))
            if _state_shape(s1, mapping, swap) == target:
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


# --- the search without sleep sets, layers or instance cache ------------------


def reference_enabled(state, rules, bounds: Bounds) -> list:
    """(rule, instance) for every instance within the rule bounds, in Step.key
    order, read from enabled_instances directly rather than through a cache."""
    from revlab.explorer import _within_rule_bounds

    return [
        (rule, inst)
        for rule in rules
        if _within_rule_bounds(rule, None, state, bounds)
        for inst in enabled_instances(state, rule, bounds.synthesis_depth)
        if _within_rule_bounds(rule, inst, state, bounds)
    ]


def reference_search(spec, init, bounds: Bounds, dedup: bool):
    """explore with every enabled child fired and pushed, as a TraceSet.

    A depth-first search of its own: no sleep set, no layers, and
    enabled_instances is called directly.  With dedup, a state whose dedup
    key was seen before is not expanded again, as in explore; without it,
    this is the plain, unpruned search.
    """
    from revlab.explorer import (
        Trace,
        TraceSet,
        _child,
        _dedup_key,
        _interchangeable,
        _start_state,
    )

    init = _start_state(init, bounds)
    rules = sorted(spec.rules, key=lambda r: r.id)
    vehicles = _interchangeable(init, rules)
    traces, seen, memo = [], set(), {}
    explored = hits = 0
    stack = [(init, (), monitors.start())]
    while stack:
        state, steps, watch = stack.pop()
        if dedup:
            key = _dedup_key(state, watch, memo, vehicles)
            if key in seen:
                hits += 1
                continue
            seen.add(key)
        explored += 1
        enabled = reference_enabled(state, rules, bounds)
        if len(steps) >= bounds.max_steps or not enabled:
            traces.append(Trace(steps, state, bool(enabled), watch))
            continue
        children = [_child(state, rule, inst) for rule, inst in enabled]
        for child, step in reversed(children):
            stack.append((child, steps + (step,), monitors.advance_all(watch, step)))
    traces.sort(key=Trace.key)
    return TraceSet(tuple(traces), states_explored=explored, dedup_hits=hits)


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


def renamed_copy(state, rng, vehicles=()):
    """state with its fresh names renamed at random, and its vehicles permuted."""
    ids = sorted({f.fid for f in _all_fresh(state)})
    new_ids = rng.sample(range(8000, 8100), len(ids))
    vehicles = list(vehicles)
    swap = dict(zip(vehicles, rng.sample(vehicles, len(vehicles))))
    return _renamed(state, dict(zip(ids, new_ids)), swap)


def _renamed(state, mapping: dict, swap: dict):
    from revlab.knowledge import Knowledge
    from revlab.rewriting import make_state

    k = Knowledge(
        basis=frozenset(_rename_term(t, mapping, swap) for t in state.knowledge.basis),
        generated=tuple(_rename_term(t, mapping, swap) for t in state.knowledge.generated),
        budget=state.knowledge.budget,
    )
    return make_state(
        linear=_renamed_facts(state.linear, mapping, swap),
        persistent=_renamed_facts(state.persistent, mapping, swap),
        knowledge=k,
        next_fresh=state.next_fresh,
        step=state.step,
    )


def _renamed_facts(facts, mapping: dict, swap: dict) -> list:
    return [
        Fact(f.name, tuple(_rename_term(a, mapping, swap) for a in f.args), f.persistent)
        for f in facts
    ]


def vehicle_swapped(state, swap: dict):
    """state with its names renamed by swap (Name -> Name), fresh names kept."""
    return _renamed(state, _Identity(), swap)


def vehicle_swapped_facts(facts, swap: dict) -> tuple:
    """facts with their names renamed by swap, fresh names kept."""
    return tuple(_renamed_facts(facts, _Identity(), swap))


class _Identity(dict):
    """A fresh-id mapping that keeps every id."""

    def __missing__(self, fid):
        return fid


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
    from revlab.explorer import _child

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
    stack = [(init, ())]
    while stack:
        state, history = stack.pop()
        key = f"step:{state.step}|" + digest(state, history)
        if key in seen:
            continue
        seen.add(key)
        yield state
        if state.step < bounds.max_steps:
            enabled = reference_enabled(state, rules, bounds)
            children = [_child(state, rule, inst) for rule, inst in enabled]
            for child, step in reversed(children):
                stack.append((child, history + step.events))


def reference_enabled_instances(state, rule, synthesis_budget: int) -> list:
    """enabled_instances without guard solving: enumerate, then filter."""
    from revlab.rewriting import Instance, _guards_hold, _match_premises

    out = []
    fresh_alloc = tuple(
        (ident, fresh(state.next_fresh + i)) for i, ident in enumerate(rule.fresh_vars)
    )
    fid_base = state.next_fresh + len(fresh_alloc)
    for subst, consumed in _match_premises(state, rule.premises):
        subst = dict(subst)
        subst.update(fresh_alloc)
        for full, inputs, derivs, new_names in _reference_fill(
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
                    input_derivations=derivs,
                    new_names=new_names,
                )
            )
    out.sort(key=Instance.key)
    return out


def _reference_fill(k, patterns, subst, budget, fid_base):
    if not patterns:
        yield subst, (), (), ()
        return
    head, tail = patterns[0], patterns[1:]
    for r in reference_synthesize(k, head, subst, budget, fid_base):
        sub2 = dict(subst)
        sub2.update(dict(r.subst))
        for full, inputs, derivs, names in _reference_fill(
            k, tail, sub2, budget, fid_base + len(r.new_names)
        ):
            yield (
                full,
                (r.term,) + inputs,
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
        SynthResult(subst=key[0], term=key[1], new_names=key[2], derivation=deriv)
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
        sort_key,
    )

    p = instantiate_partial(subst, pattern)
    if is_ground(p):
        g = normalize(p)
        d = can_derive(k, g, budget)
        if d is not None:
            yield subst, g, d.cost, (), d
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
            yield m, stored, 0, (), Derivation(stored, "known")
    if p.sym in CONSTRUCTORS and budget >= 1:
        for sub2, args, cost, new_names, derivs in _ref_synth_args(
            k, p.args, subst, budget - 1, next_fid
        ):
            g = normalize(app(p.sym, args))
            d = Derivation(g, f"build:{p.sym}", derivs, cost + 1)
            yield sub2, g, cost + 1, new_names, d


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
    from revlab.terms import sort_key

    cands = []
    if k.budget > 0:
        f = fresh(next_fid)
        cands.append((f, (f,), Derivation(f, "gen-fresh")))
    for g in k.generated:
        cands.append((g, (), Derivation(g, "generated")))
    for t in k.basis:
        if t not in k.generated:
            cands.append((t, (), Derivation(t, "known")))
    cands.sort(key=lambda c: sort_key(c[0]))
    return cands


# --- argparse reference for the command line ----------------------------------
#
# revlab's parser up to the flag table, kept as the reference that
# `tests/test_cli.py` checks `revlab.cli.parse_config` against.  The config
# file and the goal list are read by the same `cli` functions on both sides.

USAGE_EXIT = cli.USAGE_EXIT
_CHOICES = {"output": ("text", "json"), "trace_render": ("none", "msc")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    p = _Parser(prog="revlab", description=cli.__doc__)
    p.add_argument("--version", action="version", version=f"revlab {__version__}")
    p.add_argument("--protocol", choices=PROTOCOLS, default=None)
    p.add_argument(
        "--goals",
        default=None,
        help="comma-separated goal ids (g1..g7) or 'all'",
    )
    p.add_argument("--change", action="store_true", default=None,
                   help="enable the pseudonym-change rule")
    p.add_argument("--reveals", action="store_true", default=None,
                   help="enable key-reveal rules")
    p.add_argument("--vehicles", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--max-changes", type=int, default=None)
    p.add_argument("--fresh-budget", dest="adversary_fresh_budget", type=int,
                   default=None, metavar="FRESH_BUDGET",
                   help="adversary fresh-name budget")
    p.add_argument("--synthesis-depth", type=int, default=None)
    p.add_argument("--max-sessions", type=int, default=None)
    p.add_argument("--output", choices=_CHOICES["output"], default=None)
    p.add_argument("--trace", dest="trace_render", choices=_CHOICES["trace_render"],
                   default=None)
    p.add_argument("--deterministic", action="store_true", default=None,
                   help="zero out timing so output is byte-reproducible")
    p.add_argument("--expect", default=None, metavar="FILE",
                   help="reference verdict matrix; exit 1 on mismatch")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="JSON config file; explicit flags override it")
    return p


def reference_parse_config(argv) -> cli.ScenarioConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    file_cfg = cli._read_config(ns.config) if ns.config else {}

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_cfg.get(key, default)

    protocol = pick(ns.protocol, "protocol", "plain")
    if protocol not in PROTOCOLS:
        parser.error(f"invalid protocol {protocol!r}; choose from {', '.join(PROTOCOLS)}")
    change = pick(ns.change, "change_enabled", False)
    reveals = pick(ns.reveals, "reveals_enabled", False)
    goals_raw = pick(ns.goals, "goals", None)
    goals = cli._parse_goals(goals_raw, change)
    file_bounds = {**Bounds().as_dict(), **file_cfg.get("bounds", {})}
    try:
        # each bound's flag stores under the Bounds field name
        bounds = Bounds(
            **{f: pick(getattr(ns, f), None, v) for f, v in file_bounds.items()}
        )
    except ValueError as exc:
        parser.error(str(exc))
    n_vehicles = pick(ns.vehicles, "n_vehicles", 1)
    if n_vehicles < 1:
        parser.error("--vehicles must be >= 1")
    return cli.ScenarioConfig(
        protocol=protocol,
        goals=goals,
        change_enabled=change,
        reveals_enabled=reveals,
        bounds=bounds,
        n_vehicles=n_vehicles,
        output=pick(ns.output, "output", "text"),
        trace_render=pick(ns.trace_render, "trace_render", "none"),
        deterministic=pick(ns.deterministic, "deterministic", False),
        expect=ns.expect or file_cfg.get("expect"),
    )
