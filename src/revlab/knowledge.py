"""Dolev-Yao adversary knowledge: analysis closure and bounded synthesis.

Analysis (projection, signature payload extraction, decryption with an
available key) is closed eagerly whenever a term is observed, and each
closure is memoized process-wide on (basis, term) in _closed; synthesis is
answered lazily and goal-directed by can_derive, whose answers each
Knowledge value memoizes.  Public names are derivable at depth 0: the
adversary can always utter agent ids and protocol tags.  synthesize keeps
no memo: the explorer caches whole enabled lists instead
(explorer.InstanceCache).

Network inputs are synthesized rigid-first.  A pattern is rigid when only a
stored term can supply it: its symbol is not a constructor, or one of its
ground arguments is underivable (a signature under a key the adversary never
learns).  Rigid patterns are only replayed, never built, and when a
constructor's arguments are synthesized the rigid ones go first, so a stored
signature binds the variables its siblings share before they are
enumerated.  rewriting.enabled_instances adds the other half: it binds the
signing key of a verify(sign(m, X), m, pk(K)) = true guard to K before
synthesis.  Both only prune: the results equal those of enumerating every
basis term for every variable and filtering afterwards.
"""

from __future__ import annotations

from collections.abc import Iterable

from .records import Record, _new
from .terms import (
    CONSTRUCTORS,
    App,
    Fresh,
    Name,
    Term,
    Var,
    app,
    fresh,
    instantiate_partial,
    is_ground,
    match,
    normalize,
    render,
    sort_key,
    variables,
)


class Derivation(Record):
    """How the adversary obtains a term: leaf lookup or constructor step.

    via is "known", "public", "generated", "gen-fresh" (a name minted for
    this input) or "build:<sym>"; children are the Derivations of a
    constructor step's arguments, and cost counts the constructor steps.
    """

    __slots__ = ()

    def __new__(cls, term, via, children=(), cost=0):
        return _new(cls, (term, via, children, cost))

    def render(self) -> str:
        if not self.children:
            return f"{render(self.term)}[{self.via}]"
        inner = " ".join(c.render() for c in self.children)
        return f"({self.via} {inner})"


class Knowledge:
    """Immutable adversary state: observed closure plus self-generated names.

    basis is closed under analysis and normalization.  generated names are
    also members of basis; budget caps how many more gen_fresh may mint.
    _memo caches this value's _derive answers and its sorted basis, which
    read basis and generated but not the budget.  Equality, hashing and
    repr read only (basis, generated, budget); the hash is computed once,
    since every dict or set holding a state hashes its knowledge.  Every
    constructor call starts an empty memo that no argument can pass in.
    """

    __slots__ = ("basis", "generated", "budget", "_memo", "_hash")

    def __init__(self, basis: frozenset = frozenset(), generated: tuple = (), budget: int = 0):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "generated", generated)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_hash", hash((basis, generated, budget)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.basis, self.generated, self.budget) == (
            other.basis, other.generated, other.budget
        )

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Knowledge(basis={self.basis!r}, generated={self.generated!r}, "
            f"budget={self.budget!r})"
        )

    def with_budget(self, budget: int) -> "Knowledge":
        return Knowledge(self.basis, self.generated, budget)


_closed: dict[tuple, frozenset] = {}  # (basis, normalized term) -> closed basis


def observe(k: Knowledge, t: Term) -> Knowledge:
    """Extend knowledge with t and all analysis products, eagerly closed.

    The closure is memoized on (basis, t) for the process; the Knowledge
    around it is new on every call, so its memo starts empty.
    """
    t = normalize(t)
    if t in k.basis:
        return k
    key = (k.basis, t)
    basis = _closed.get(key)
    if basis is None:
        closed = set(k.basis)
        closed.add(t)
        _close(closed)
        basis = _closed[key] = frozenset(closed)
    return Knowledge(basis, k.generated, k.budget)


def _close(closed: set) -> None:
    # Iterate to fixpoint: newly learned keys may unlock stored ciphertexts.
    changed = True
    while changed:
        changed = False
        for t in list(closed):
            for part in _analysis_parts(t, closed):
                if part not in closed:
                    closed.add(part)
                    changed = True


def _analysis_parts(t: Term, closed: set) -> Iterable[Term]:
    if not isinstance(t, App):
        return ()
    if t.sym == "tuple":
        return t.args
    if t.sym == "sign":
        # Signatures are not message-hiding: the payload leaks, the key does not.
        return (t.args[0],)
    if t.sym in ("renc", "oenc"):
        if _constructible(t.args[1], closed):
            return (t.args[0],)
    return ()


def _constructible(t: Term, closed: set) -> bool:
    """Whether t is buildable from the closure without further analysis."""
    if t in closed or isinstance(t, Name):
        return True
    if isinstance(t, App) and t.sym in CONSTRUCTORS:
        return all(_constructible(a, closed) for a in t.args)
    return False


def can_derive(k: Knowledge, goal: Term, depth: int) -> Derivation | None:
    """Derivation of goal using at most `depth` constructor applications.

    Goal-directed: decomposes the (normalized) goal structurally; basis
    members, public names and generated names cost nothing.  Returns the
    minimum-cost derivation tree, or None.
    """
    d = _derive(k, normalize(goal))
    if d is not None and d.cost <= depth:
        return d
    return None


def _derive(k: Knowledge, goal: Term) -> Derivation | None:
    hit = k._memo.get(goal, False)
    if hit is not False:
        return hit
    out: Derivation | None = None
    if goal in k.basis:
        via = "generated" if isinstance(goal, Fresh) and goal in k.generated else "known"
        out = Derivation(goal, via)
    elif isinstance(goal, Name):
        out = Derivation(goal, "public")
    elif isinstance(goal, App) and goal.sym in CONSTRUCTORS:
        children = []
        cost = 1
        for a in goal.args:
            sub = _derive(k, a)
            if sub is None:
                children = None
                break
            children.append(sub)
            cost += sub.cost
        if children is not None:
            out = Derivation(goal, f"build:{goal.sym}", tuple(children), cost)
    k._memo[goal] = out
    return out


def gen_fresh(k: Knowledge, fid: int) -> tuple[Knowledge, Fresh] | None:
    """Mint an adversary-owned fresh name, or None when the budget is spent."""
    if k.budget <= 0:
        return None
    f = fresh(fid)
    k2 = Knowledge(k.basis | {f}, k.generated + (f,), k.budget - 1)
    return k2, f


class SynthResult(Record):
    """One way to feed a network-input pattern from adversary material.

    subst holds the sorted (ident, Term) pairs added or confirmed;
    new_names the gen_fresh allocations this instantiation requires;
    derivation the least-cost Derivation of term.
    """

    __slots__ = ()

    def __new__(cls, subst, term, new_names, derivation):
        return _new(cls, (subst, term, new_names, derivation))


def synthesize(
    k: Knowledge,
    pattern: Term,
    subst: dict,
    budget: int,
    fid_base: int,
) -> list[SynthResult]:
    """Pattern-directed instantiations of a network-input pattern.

    Enumerates every adversary-derivable ground term matching the pattern
    shape within `budget` constructor applications.  Unconstrained variable
    positions draw from observed and generated material plus at most one
    newly minted fresh name per position (fids from fid_base onward); freely
    constructed compounds are only built where the pattern demands them.
    Rigid subpatterns (see the module docstring) are replayed from stored
    terms and synthesized ahead of their siblings, which then see the
    variables they bind; the results, their costs and derivations equal
    those of plain left-to-right enumeration.  Callers may pre-bind
    variables, as enabled_instances does for solved signer guards.
    Deterministic order: results sorted by structural term order.
    """
    pvars = variables(pattern)
    relevant = {v: t for v, t in subst.items() if v in pvars}
    results: dict = {}
    for subst2, term, new_names, deriv in _synth_raw(k, pattern, relevant, budget, fid_base):
        key = (tuple(sorted(subst2.items())), term, new_names)
        old = results.get(key)
        if old is None or deriv.cost < old.cost:
            results[key] = deriv
    out = [
        SynthResult(subst=key[0], term=key[1], new_names=key[2], derivation=deriv)
        for key, deriv in results.items()
    ]
    out.sort(
        key=lambda r: (
            sort_key(r.term),
            tuple((ident, sort_key(t)) for ident, t in r.subst),
        )
    )
    return out


def _synth_raw(k: Knowledge, pattern: Term, subst: dict, budget: int, next_fid: int):
    # Yields (subst extended, term, new names, Derivation of term).
    p = instantiate_partial(subst, pattern)
    if is_ground(p):
        g = normalize(p)
        d = can_derive(k, g, budget)
        if d is not None:
            yield subst, g, (), d
        return
    if isinstance(p, Var):
        for cand in _var_candidates(k, next_fid):
            sub2 = dict(subst)
            sub2[p.ident] = cand.term
            yield sub2, cand.term, cand.new_names, cand.derivation
        return
    # Structured pattern with open variables: replay a stored term that
    # matches, or build it constructor-by-constructor.
    assert isinstance(p, App)
    for stored in _sorted_basis(k):
        m = match(p, stored, subst)
        if m is not None:
            yield m, stored, (), Derivation(stored, "known")
    if budget >= 1 and not _rigid(k, p):
        for combo in _synth_app_args(k, p.args, subst, budget - 1, next_fid):
            sub2, args, cost, new_names, derivs = combo
            g = normalize(app(p.sym, args))
            yield sub2, g, new_names, Derivation(g, f"build:{p.sym}", derivs, cost + 1)


def _sorted_basis(k: Knowledge) -> list:
    """The basis in structural term order, sorted once per knowledge."""
    got = k._memo.get("sorted basis")
    if got is None:
        got = k._memo["sorted basis"] = sorted(k.basis, key=sort_key)
    return got


def _rigid(k: Knowledge, p: App) -> bool:
    """Whether a non-ground pattern can only be replayed from a stored term.

    True when its symbol is not a constructor or one of its ground
    arguments is underivable at any cost: building it then never succeeds.
    """
    if p.sym not in CONSTRUCTORS:
        return True
    return any(is_ground(a) and _derive(k, normalize(a)) is None for a in p.args)


def presettable(k: Knowledge, t: Term) -> bool:
    """Whether binding a variable to ground t before synthesis is exact.

    A bare variable position draws only stored and freshly minted terms, so
    binding it early to a derivable term outside the basis would admit
    results that synthesizing it and filtering on t never yields.  Stored
    and underivable terms give the same results either way, in patterns
    without reducible symbols.
    """
    return t in k.basis or _derive(k, normalize(t)) is None


_REDUCIBLE = frozenset({"verify", "rdec", "odec"})
_pattern_reducible: dict = {}


def reducible(pattern: Term) -> bool:
    """Whether pattern has a symbol that may rewrite once variables are bound."""
    got = _pattern_reducible.get(pattern)
    if got is None:
        got = isinstance(pattern, App) and (
            pattern.sym in _REDUCIBLE or any(map(reducible, pattern.args))
        )
        _pattern_reducible[pattern] = got
    return got


def _synth_app_args(k: Knowledge, args: tuple, subst: dict, budget: int, next_fid: int):
    """Synthesize a constructor's arguments, rigid ones first.

    A rigid argument only replays stored terms, so it binds the variables it
    shares with its siblings before they are enumerated, and it mints no
    fresh names, so fid numbering stays positional.  A binding the rigid
    argument makes that is not presettable is withheld from an earlier
    sibling that first mentions the variable: in positional order that
    sibling would bind the variable itself, so its results are filtered on
    the binding instead.  Arguments with reducible symbols keep positional
    order, since binding early can change their normal form.
    """
    rigid = [
        i
        for i, a in enumerate(args)
        if isinstance(a, App) and not is_ground(a) and _rigid(k, a)
    ]
    rest = [i for i in range(len(args)) if i not in rigid]
    if not rigid or not rest or rigid[-1] < rest[0] or any(map(reducible, args)):
        yield from _synth_args(k, args, subst, budget, next_fid)
        return
    first_use: dict = {}
    for i, a in enumerate(args):
        for v in variables(a):
            first_use.setdefault(v, i)
    hoisted = tuple(args[i] for i in rigid)
    later = tuple(args[i] for i in rest)
    # slot j of the rigid-first order holds argument positions[j]
    positions = rigid + rest
    slots = sorted(range(len(args)), key=positions.__getitem__)
    for sub1, terms1, c1, _, derivs1 in _synth_args(k, hoisted, subst, budget, next_fid):
        hides: list = [[] for _ in rest]
        for v, t in sub1.items():
            if v not in subst and first_use[v] in rest and not presettable(k, t):
                hides[rest.index(first_use[v])].append(v)
        for sub2, terms2, c2, names, derivs2 in _synth_args(
            k, later, sub1, budget - c1, next_fid, hides
        ):
            terms, derivs = terms1 + terms2, derivs1 + derivs2
            yield (
                sub2,
                tuple(terms[j] for j in slots),
                c1 + c2,
                names,
                tuple(derivs[j] for j in slots),
            )


def _synth_args(k: Knowledge, patterns, subst, budget, next_fid, hides=()):
    # hides[i] lists variables patterns[i] must bind itself; its results
    # are then filtered on the bindings subst already holds for them.
    if not patterns:
        yield subst, (), 0, (), ()
        return
    head, tail = patterns[0], patterns[1:]
    hide = hides[0] if hides else ()
    seen = {v: t for v, t in subst.items() if v not in hide} if hide else subst
    for sub1, t1, names1, d1 in _synth_raw(k, head, seen, budget, next_fid):
        if hide and any(sub1[v] is not subst[v] for v in hide):
            continue
        for sub2, rest, c2, names2, drest in _synth_args(
            k, tail, sub1, budget - d1.cost, next_fid + len(names1), hides[1:]
        ):
            if d1.cost + c2 <= budget:
                yield sub2, (t1,) + rest, d1.cost + c2, names1 + names2, (d1,) + drest


def _var_candidates(k: Knowledge, next_fid: int):
    cands = []
    if k.budget > 0:
        f = fresh(next_fid)
        cands.append(SynthResult((), f, (f,), Derivation(f, "gen-fresh")))
    for g in k.generated:
        cands.append(SynthResult((), g, (), Derivation(g, "generated")))
    for t in k.basis:
        if t not in k.generated:
            cands.append(SynthResult((), t, (), Derivation(t, "known")))
    cands.sort(key=lambda c: sort_key(c.term))
    return cands
