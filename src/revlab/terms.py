"""Symbolic message terms over a fixed cryptographic signature.

Terms are interned (hash-consed): building the same term twice returns the
same object, so equality is identity and states containing shared structure
stay cheap to compare and deduplicate.  All operations are pure.

Because a term is its own identity, a pure function of terms can be
memoized on its arguments (Filliatre & Conchon, Type-safe modular
hash-consing, ML 2006).  Process-global tables hold normal forms
(_normal), renderings (_renders), sort keys (_sort_keys), groundness
(_groundness), each pattern's variables in first-occurrence order and as
a set (_first_vars), and the results of substitute (_substituted) and
instantiate_partial (_instantiated), keyed on the pattern and the values of
its variables in that order: those values alone fix the result.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import itemgetter

# Fixed signature: symbol -> arity.  "tuple" is variadic (arity >= 2) and is
# handled separately.  The constant true is a public name, not an application.
SIGNATURE = {
    "pk": 1,
    "sign": 2,
    "verify": 3,
    "renc": 2,
    "rdec": 2,
    "oenc": 2,
    "odec": 2,
}

# Symbols the adversary may use to build messages.  rdec/odec are analysis
# steps, not constructors: a stuck decryption is never synthesized.
CONSTRUCTORS = frozenset({"pk", "sign", "verify", "renc", "oenc", "tuple"})


class SignatureError(ValueError):
    """Raised for applications outside the fixed signature."""


class UnboundVariableError(KeyError):
    """Raised when substitution meets a variable outside its domain."""


class Term:
    """Base class for interned terms; equality and hashing are by identity.

    A copy, deep copy or unpickled term is rebuilt by its interning
    constructor, so it is the very term it was made from.
    """

    __slots__ = ()

    def __reduce__(self):
        return _BUILDERS[self.__class__], tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        return render(self)


class Name(Term):
    """Public name: agent id, protocol tag, or the constant true."""

    __slots__ = ("label",)


class Fresh(Term):
    """Fresh value (nonce or secret key), unique per allocation."""

    __slots__ = ("fid",)


class App(Term):
    """Application of a signature symbol to argument terms."""

    __slots__ = ("sym", "args")


class Var(Term):
    """Pattern variable; never occurs in ground protocol state."""

    __slots__ = ("ident",)


_names: dict[str, Name] = {}
_fresh: dict[int, Fresh] = {}
_apps: dict[tuple, App] = {}
_vars: dict[str, Var] = {}


def name(label: str) -> Name:
    t = _names.get(label)
    if t is None:
        t = object.__new__(Name)
        object.__setattr__(t, "label", label)  # type: ignore[misc]
        _names[label] = t
    return t


def fresh(fid: int) -> Fresh:
    """Fresh name with the given allocation ordinal, interned by it."""
    t = _fresh.get(fid)
    if t is None:
        t = object.__new__(Fresh)
        object.__setattr__(t, "fid", fid)
        _fresh[fid] = t
    return t


def var(ident: str) -> Var:
    t = _vars.get(ident)
    if t is None:
        t = object.__new__(Var)
        object.__setattr__(t, "ident", ident)
        _vars[ident] = t
    return t


def app(sym: str, args) -> App:
    args = tuple(args)
    key = (sym, args)
    try:
        t = _apps.get(key)
    except TypeError:  # an unhashable argument: not a Term, rejected below
        t = None
    if t is not None:
        return t
    if sym == "tuple":
        if len(args) < 2:
            raise SignatureError("tuple takes at least 2 arguments")
    elif sym not in SIGNATURE:
        raise SignatureError(f"unknown function symbol {sym!r}")
    elif SIGNATURE[sym] != len(args):
        raise SignatureError(
            f"{sym} takes {SIGNATURE[sym]} arguments, got {len(args)}"
        )
    for a in args:
        if not isinstance(a, Term):
            raise SignatureError(f"argument {a!r} is not a Term")
    t = object.__new__(App)
    object.__setattr__(t, "sym", sym)
    object.__setattr__(t, "args", args)
    _apps[key] = t
    return t


_BUILDERS = {Name: name, Fresh: fresh, Var: var, App: app}


def tup(*args: Term) -> App:
    return app("tuple", args)


def pk(k: Term) -> App:
    return app("pk", (k,))


def sign(m: Term, k: Term) -> App:
    return app("sign", (m, k))


def verify(sig: Term, m: Term, pub: Term) -> App:
    return app("verify", (sig, m, pub))


def renc(m: Term, k: Term) -> App:
    return app("renc", (m, k))


def rdec(c: Term, k: Term) -> App:
    return app("rdec", (c, k))


def oenc(m: Term, k: Term) -> App:
    return app("oenc", (m, k))


def odec(c: Term, k: Term) -> App:
    return app("odec", (c, k))


TRUE = name("true")


_normal: dict[Term, Term] = {}


def normalize(t: Term) -> Term:
    """Unique normal form under the equational theory.

    Rewrites innermost-first to fixpoint:
      verify(sign(m,k), m, pk(k)) -> true
      rdec(renc(m,k), k)          -> m
      odec(oenc(m,k), k)          -> m
    Non-matching decryptions and verifications stay stuck.
    """
    done = _normal.get(t)
    if done is not None:
        return done
    if isinstance(t, App):
        args = tuple(normalize(a) for a in t.args)
        out = _reduce_root(t.sym, args) or (
            t if args == t.args else app(t.sym, args)
        )
    else:
        out = t
    _normal[t] = out
    return out


def _reduce_root(sym: str, args: tuple) -> Term | None:
    # Args are already normal, so a root reduction yields a normal form.
    if sym == "verify":
        sig, m, pub = args
        if (
            isinstance(sig, App)
            and sig.sym == "sign"
            and sig.args[0] is m
            and isinstance(pub, App)
            and pub.sym == "pk"
            and pub.args[0] is sig.args[1]
        ):
            return TRUE
    elif sym in ("rdec", "odec"):
        enc = "renc" if sym == "rdec" else "oenc"
        c, k = args
        if isinstance(c, App) and c.sym == enc and c.args[1] is k:
            return c.args[0]
    return None


def match(pattern: Term, ground: Term, subst: dict | None = None) -> dict | None:
    """Syntactic first-order matching of a pattern against a ground term.

    Returns the unique substitution sigma with sigma(pattern) = ground, or
    None.  No equational unification: equality guards handle the theory.
    """
    binding = {} if subst is None else dict(subst)
    return binding if _match(pattern, ground, binding) else None


def _match(p: Term, g: Term, binding: dict) -> bool:
    """Whether p matches g, extending binding in place; on a mismatch the
    binding may hold a partial extension, so the caller discards it."""
    if isinstance(p, Var):
        bound = binding.get(p.ident)
        if bound is None:
            binding[p.ident] = g
            return True
        return bound is g
    if isinstance(p, App):
        if not isinstance(g, App) or p.sym != g.sym or len(p.args) != len(g.args):
            return False
        return all(_match(pa, ga, binding) for pa, ga in zip(p.args, g.args))
    return p is g


_first_vars: dict[Term, tuple] = {}
_substituted: dict[tuple, Term] = {}
_instantiated: dict[tuple, Term] = {}


def _occurring(t: Term) -> tuple:
    """The identifiers of t's variables in first-occurrence (pre-order)
    order, an itemgetter of them (None when t is ground), and their set."""
    found: dict = {}
    for s in subterms(t):
        if isinstance(s, Var):
            found[s.ident] = None
    idents = tuple(found)
    got = _first_vars[t] = idents, itemgetter(*idents) if idents else None, frozenset(idents)
    return got


def substitute(subst: dict, t: Term) -> Term:
    """Replace every variable of t via subst, then normalize.

    Raises UnboundVariableError for variables outside the substitution,
    naming the first one in t.  Memoized on t and its variables' values.
    """
    values = (_first_vars.get(t) or _occurring(t))[1]
    if values is None:
        return normalize(t)
    try:
        # one value, or a tuple of them when t has several variables
        key = (t, values(subst))
    except KeyError as missing:
        raise UnboundVariableError(missing.args[0]) from None
    got = _substituted.get(key)
    if got is None:
        # every variable is bound here: values(subst) raised otherwise
        got = _substituted[key] = normalize(_partial(subst, t))
    return got


def instantiate_partial(subst: dict, t: Term) -> Term:
    """Replace bound variables of t, leaving unbound ones in place.

    Memoized on t and its variables' values (None for an unbound one).
    """
    idents = (_first_vars.get(t) or _occurring(t))[0]
    if not idents:
        return t
    key = (t, tuple(map(subst.get, idents)))
    got = _instantiated.get(key)
    if got is None:
        got = _instantiated[key] = _partial(subst, t)
    return got


def _partial(subst: dict, t: Term) -> Term:
    if isinstance(t, Var):
        return subst.get(t.ident, t)
    if isinstance(t, App):
        args = tuple(_partial(subst, a) for a in t.args)
        return t if args == t.args else app(t.sym, args)
    return t


_renders: dict[Term, str] = {}


def render(t: Term) -> str:
    """Canonical textual form: s-expressions with stable field order."""
    got = _renders.get(t)
    if got is not None:
        return got
    if isinstance(t, Name):
        out = t.label
    elif isinstance(t, Fresh):
        out = f"~{t.fid}"
    elif isinstance(t, Var):
        out = f"?{t.ident}"
    elif isinstance(t, App):
        out = "(" + t.sym + " " + " ".join(render(a) for a in t.args) + ")"
    else:
        raise TypeError(f"not a term: {t!r}")
    _renders[t] = out
    return out


_sort_keys: dict[Term, tuple] = {}


def sort_key(t: Term):
    """Total structural order on terms: Fresh < Name < App < Var."""
    got = _sort_keys.get(t)
    if got is not None:
        return got
    if isinstance(t, Fresh):
        out = (0, t.fid)
    elif isinstance(t, Name):
        out = (1, t.label)
    elif isinstance(t, App):
        out = (2, t.sym, len(t.args), tuple(sort_key(a) for a in t.args))
    else:
        out = (3, t.ident)
    _sort_keys[t] = out
    return out


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t, t included, pre-order."""
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


_groundness: dict[Term, bool] = {}


def is_ground(t: Term) -> bool:
    got = _groundness.get(t)
    if got is None:
        if isinstance(t, Var):
            got = False
        elif isinstance(t, App):
            got = all(is_ground(a) for a in t.args)
        else:
            got = True
        _groundness[t] = got
    return got


def variables(t: Term) -> frozenset:
    """Identifiers of all pattern variables occurring in t; memoized."""
    return (_first_vars.get(t) or _occurring(t))[2]


def term_size(t: Term) -> int:
    """Number of function applications in t (atoms are free)."""
    if isinstance(t, App):
        return 1 + sum(term_size(a) for a in t.args)
    return 0
