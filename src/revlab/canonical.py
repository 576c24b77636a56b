"""Canonical forms of states: digests for the report, integer keys for dedup.

Seen states are keyed by canonicalize, an exact canonical form made of
integers (colour refinement, then individualization where names stay tied;
McKay & Piperno, Practical graph isomorphism II, 2014).  With no
automorphism pruning, k tied names cost up to k! individualization leaves:
rtoken with five vehicles at 20 steps computes 3,112 keys, 3,003 of them
with more than one leaf, 269 with 24 and 8 with 120.  The key's ints depend on
the order in which shapes were first seen, so it decides equality only.
shape_signature, the step, the budget and the sorted shapes of a state's
items, is a function of the key: the search keys a state only when another
state has its signature (explorer's docstring).  digest renders states as
canonical text, modulo fresh names only, for the report and the tests.
None of them reads SystemState.used: the explorer keys the spent rule
budgets as monitor facts.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, count, permutations

from .rewriting import SystemState
from .terms import App, Fresh, Name, Term, Var

# ---------------------------------------------------------------------------
# Digests: texts invariant under fresh-name bijections.


# Tied groups larger than this are assigned in raw id order, so isomorphic
# states with more than this many tied names can get different digests.
# Equal digests still imply isomorphism, and dedup keys on canonicalize, so
# such a split only changes report text.
_GROUP_LIMIT = 6


def digest(state: SystemState) -> str:
    """Canonical text digest of a state.

    Fresh names are renamed so that two states equal modulo a fresh-name
    bijection yield the same digest; equal digests reconstruct the same
    state up to renaming.  The names are ordered by iterative signature
    refinement: at each round the pending name with the least occurrence
    signature is fixed next, and names whose signatures tie are ordered by
    exhaustively minimizing the loosely rendered digest.  It renders facts
    and knowledge, not used, which a trace's steps fix.  The report prints
    it as a trace's terminal digest; dedup keys on canonicalize instead.
    """
    sections = [
        ("lin", [_compile_fact(f) for f in state.linear]),
        ("per", [_compile_fact(f) for f in state.persistent]),
        ("kn", [_compile(t) for t in state.knowledge.basis]),
        ("gen", [_compile(t) for t in state.knowledge.generated]),
    ]
    tagged_items = [(key, c) for key, items in sections for c in items]

    def full_render(slot) -> str:
        parts = [f"budget:{state.knowledge.budget}"]
        for key, items in sections:
            rendered = sorted(_assemble(c, slot) for c in items)
            parts.append(key + "{" + ";".join(rendered) + "}")
        return "|".join(parts)

    return _least_text(tagged_items, full_render, {})


def _least_text(tagged_items, full_render, renaming: dict) -> str:
    """full_render's text once digest's refinement has renamed every name
    in tagged_items.

    tagged_items are (section, compiled item) pairs, and full_render renders
    them under a slot function.  renaming maps the names fixed already to
    their slot texts; the others are numbered on from there.
    """
    pending = list(dict.fromkeys(
        fid for _, (_, fids) in tagged_items for fid in fids if fid not in renaming
    ))
    # a signature only changes when a name it sits next to gets renamed
    occurs = {fid: [] for fid in pending}
    for item in tagged_items:
        for fid in set(item[1][1]) & occurs.keys():
            occurs[fid].append(item)
    sigs: dict = {}
    stale = pending
    while pending:
        for fid in stale:
            sigs[fid] = _signature(fid, occurs[fid], renaming)
        least = min(sigs[fid] for fid in pending)
        group = [fid for fid in pending if sigs[fid] == least]
        if len(group) == 1 or len(group) > _GROUP_LIMIT:
            chosen = tuple(sorted(group))
        else:
            chosen = min(
                permutations(group),
                key=lambda perm: full_render(_loose(_extended(renaming, perm))),
            )
        renaming = _extended(renaming, chosen)
        pending = [f for f in pending if f not in renaming]
        fixed = set(chosen)
        stale = [f for f in pending if any(not fixed.isdisjoint(c[1]) for _, c in occurs[f])]
    return full_render(renaming.__getitem__)


def _extended(renaming: dict, perm) -> dict:
    trial = dict(renaming)
    for fid in perm:
        trial[fid] = f"~c{len(trial)}"
    return trial


def _loose(renaming: dict):
    """Slot renderer that writes ~? for names not renamed yet."""
    return lambda fid: renaming.get(fid, "~?")


def _signature(fid: int, occurrences, renaming: dict) -> tuple:
    """Occurrence signature of a pending name: the sorted contexts it sits in.

    occurrences are the (section, compiled item) pairs that contain fid.

    Pure function of bijection-invariant data (section tags, literal
    structure, already-assigned canonical ids), so isomorphic states yield
    identical signatures for corresponding names.
    """
    def slot(f: int) -> str:
        return "~#" if f == fid else renaming.get(f, "~?")

    return tuple(sorted(section + ":" + _assemble(c, slot) for section, c in occurrences))


# ---------------------------------------------------------------------------
# Dedup keys: exact canonical forms of integers, by colour refinement.


# A shape with k renameable names takes k + 1 ids: its own, then the slot
# ids of its k positions.
_ids = count()
_shapes: dict = {}  # (section, literal parts, name pattern) -> shape id


def canonicalize(
    state: SystemState, monitor=(), memo: dict | None = None, vehicles: frozenset = frozenset()
) -> tuple:
    """Exact canonical key of a state and its monitor facts, a flat int tuple.

    Two keys are equal exactly when the states are at the same step, have
    the same fresh budget and are equal modulo a renaming that also maps the
    monitor facts onto each other: a fresh-name bijection together with a
    permutation of the names in vehicles (a scalarset; Ip & Dill, Better
    verification through symmetry, 1996).  Each fact, knowledge term,
    generated name and monitor fact is an item, and its shape is a small int
    for its section, its literal text and the pattern in which its
    renameable names repeat: (7, 3, 7) has the pattern (0, 1, 0), and a
    vehicle's position is marked negative, so no slot is filled by both a
    vehicle and a fresh name.  A name's first colour is the multiset of the
    (shape, position) slots it fills; it carries the name's class, so
    vehicles and fresh names start in different cells and are never mapped
    onto each other.  Colours are refined by the colours of the names they
    share items with until the partition is stable (1-WL); while a cell is
    tied, its members are individualized in turn and the least result is
    kept (_least_certificate), so the result never depends on fresh ids or
    on which vehicle is which.  The key is the step, the budget, the sorted
    ground shapes and the sorted rows (shape, colours of its names); a shape
    fixes its row's length and classes, so a key reads back as one state up
    to renaming.  Shape ids follow first-seen order in the process: keys are
    compared, never printed.  With vehicles empty, vehicle names are
    literal text like any other name.

    memo caches each item's row per section, and the rows and sorted shapes
    of the per section per persistent set, of the kn and gen sections per
    knowledge and of the mon section per monitor tuple (_set_rows); a caller
    that keys many states, as a search does, passes the same dict to every
    call with the same vehicles.
    """
    if memo is None:
        memo = {}
    k = state.knowledge
    per, kn, mon = _set_rows(memo, state, tuple(monitor), vehicles)
    lin = _rows(memo, "lin", state.linear, vehicles)
    ground = lin[0] + per[0] + kn[0] + mon[0]
    rows = lin[1] + per[1] + kn[1] + mon[1]
    filled: dict = {}
    for shape, names in rows:
        for slot, x in enumerate(names, shape + 1):
            filled.setdefault(x, []).append(slot)
    colour, classes = _ranked({x: tuple(sorted(s)) for x, s in filled.items()})
    if classes == len(colour):
        cert = _certificate(rows, colour)
    else:
        links: dict = {x: [] for x in colour}
        for shape, names in rows:
            for slot, x in enumerate(names, shape + 1):
                links[x].append((slot, names))
        cert = _least_certificate(rows, links, colour, classes)
    ground.sort()
    return (state.step, k.budget, *ground, *chain.from_iterable(cert))


def shape_signature(
    state: SystemState, monitor=(), memo: dict | None = None, vehicles: frozenset = frozenset()
) -> tuple:
    """The step, the budget and the sorted shape ids of every item, by section.

    A renaming keeps every item's shape, so states with equal keys have
    equal signatures.  memo is canonicalize's.
    """
    if memo is None:
        memo = {}
    per, kn, mon = _set_rows(memo, state, tuple(monitor), vehicles)
    return (
        state.step,
        state.knowledge.budget,
        per[2],
        kn[2],
        _shape_ids(_rows(memo, "lin", state.linear, vehicles)),
        mon[2],
    )


def _set_rows(memo: dict, state: SystemState, monitor: tuple, vehicles: frozenset) -> tuple:
    """The (ground shapes, rows, sorted shape ids) of the per section, of the
    kn and gen sections together and of the mon section, memoized per
    persistent set, per knowledge and per monitor tuple."""
    pers = memo.setdefault("per sets", {})
    per = pers.get(state.persistent)
    if per is None:
        rows = _rows(memo, "per", state.persistent, vehicles)
        per = pers[state.persistent] = (*rows, _shape_ids(rows))
    k = state.knowledge
    kns = memo.setdefault("kn sets", {})
    kn = kns.get((k.basis, k.generated))
    if kn is None:
        basis = _rows(memo, "kn", k.basis, vehicles)
        generated = _rows(memo, "gen", k.generated, vehicles)
        rows = basis[0] + generated[0], basis[1] + generated[1]
        kn = kns[k.basis, k.generated] = (*rows, _shape_ids(rows))
    mons = memo.setdefault("mon sets", {})
    mon = mons.get(monitor)
    if mon is None:
        rows = _rows(memo, "mon", monitor, vehicles)
        mon = mons[monitor] = (*rows, _shape_ids(rows))
    return per, kn, mon


def _shape_ids(rows: tuple) -> tuple:
    """The sorted shape ids of _rows' ground shapes and rows."""
    ground, named = rows
    return tuple(sorted(chain(ground, (shape for shape, _ in named))))


def _rows(memo: dict, section: str, items, vehicles: frozenset) -> tuple:
    """The shapes of a section's ground items and the rows of the others."""
    known = memo.setdefault(section, {})
    ground, rows = [], []
    for item in items:
        row = known.get(item)
        if row is None:
            row = known[item] = _item(section, item, vehicles)
        if row[1]:
            rows.append(row)
        else:
            ground.append(row[0])
    return ground, rows


def _item(section: str, item, vehicles: frozenset) -> tuple:
    """(shape, distinct renameable names by first occurrence) of an item.

    A fresh name is its fid; a vehicle is its Name term.
    """
    compiled = _compile if isinstance(item, Term) else _compile_fact
    parts, names = compiled(item, vehicles)
    local = tuple(dict.fromkeys(names))
    pattern = tuple(local.index(x) if type(x) is int else ~local.index(x) for x in names)
    key = (section, parts, pattern)
    shape = _shapes.get(key)
    if shape is None:
        shape = _shapes[key] = next(_ids)
        for _ in local:
            next(_ids)
    return shape, names if len(local) == len(names) else local


def _ranked(signatures: dict) -> tuple:
    """Each name's rank among the distinct signatures, and their number."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
    return {x: rank[sig] for x, sig in signatures.items()}, len(rank)


def _refined(links, colour: dict, classes: int) -> tuple:
    """Colours refined by their neighbours' colours until the partition is stable.

    links maps each name to its (slot, names of the item) occurrences.
    Ranks keep the order of the colours they refine.  A name alone in its
    colour cannot be split, and its colour alone places it among the ranks,
    so its neighbours are not read.
    """
    while True:
        sizes = Counter(colour.values())
        colour, refined = _ranked({
            x: (c, tuple(sorted(
                (slot, tuple(map(colour.__getitem__, names))) for slot, names in links[x]
            ))) if sizes[c] > 1 else (c,)
            for x, c in colour.items()
        })
        if refined == classes:
            return colour, classes
        classes = refined


def _certificate(rows, colour) -> list:
    """The sorted rows (shape, colours of its names) under a discrete colouring."""
    return sorted((shape, *map(colour.__getitem__, names)) for shape, names in rows)


def _least_certificate(rows, links, colour: dict, classes: int) -> list:
    """The least certificate over every individualization below this colouring.

    At each node the colouring is refined, and each member of the least
    tied cell is individualized in turn.
    """
    colour, classes = _refined(links, colour, classes)
    if classes == len(colour):
        return _certificate(rows, colour)
    sizes = Counter(colour.values())
    cell = min(c for c, n in sizes.items() if n > 1)
    # individualizing x: it alone keeps the lower half of its cell's colour
    return min(
        _least_certificate(
            rows, links, {f: 2 * k + (f != x) for f, k in colour.items()}, classes + 1
        )
        for x, c in colour.items()
        if c == cell
    )


# ---------------------------------------------------------------------------
# Compiled renderings: a term or fact's text split around its renameable names.


_compiled: dict = {}  # interned term or Fact -> its compiled rendering
_slotted: dict = {}  # (term or Fact, names cut out as slots) -> its compiled rendering


def _compile(t: Term, slots: frozenset = frozenset()) -> tuple:
    """A term's rendering split around its fresh names: (parts, ids).

    parts has one more entry than ids; the name with id i is rendered
    between parts i and i + 1, so any renaming is a join away.  A fresh
    name's id is its fid; a name in slots is cut out too, with itself as id.
    """
    memo, key = (_slotted, (t, slots)) if slots else (_compiled, t)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(t, Fresh):
        out = ("", ""), (t.fid,)
    elif t in slots:
        out = ("", ""), (t,)
    elif isinstance(t, Name):
        out = (t.label,), ()
    elif isinstance(t, Var):
        out = (f"?{t.ident}",), ()
    else:
        assert isinstance(t, App)
        out = _compile_seq(f"({t.sym} ", t.args, " ", ")", slots)
    memo[key] = out
    return out


def _compile_fact(f, slots: frozenset = frozenset()) -> tuple:
    memo, key = (_slotted, (f, slots)) if slots else (_compiled, f)
    got = memo.get(key)
    if got is None:
        head = f"{'!' if f.persistent else ''}{f.name}("
        got = memo[key] = _compile_seq(head, f.args, ",", ")", slots)
    return got


def _compile_seq(head: str, terms, sep: str, tail: str, slots=frozenset()) -> tuple:
    """Compiled head + sep.join(terms) + tail."""
    parts = [head]
    fids: list = []
    for i, t in enumerate(terms):
        t_parts, t_fids = _compile(t, slots)
        parts[-1] += sep + t_parts[0] if i else t_parts[0]
        parts += t_parts[1:]
        fids += t_fids
    parts[-1] += tail
    return tuple(parts), tuple(fids)


def _assemble(compiled, slot) -> str:
    """Join a compiled rendering, writing slot(fid) in each fresh-name gap."""
    parts, fids = compiled
    if not fids:
        return parts[0]
    out = [parts[0]]
    for fid, part in zip(fids, parts[1:]):
        out += (slot(fid), part)
    return "".join(out)
