"""The goal patterns as incremental monitors over trace steps.

Every goal is a past-time pattern, so whether it holds on a trace prefix is
decided by a small set of ground facts about the events so far (Havelund &
Rosu, *Synthesizing monitors for safety properties*, TACAS 2002).  A
monitor's state is a frozenset of such facts, `advance` folds one step into
it, and the pattern holds once the state is the monitor's `hit` state.
Patterns are preserved under extension, so the hit state absorbs every later
step.  Fact names start with the goal id, so the states of all monitors can
be pooled into one set without clashes.

Timing copies the trace predicates: a compromise excuses an anchor event
when it happens at or before the anchor's timepoint; the receive, Running or
request an anchor needs must happen at a strictly earlier timepoint; the G1
chain is ordered by event position, so events within one step count as
ordered.

A step is one timepoint: fire gives every event it emits the step's index
as its time, so the events of a step share one time and later steps have
later times.  The monitors rely on this and never read an event's time.

Each monitor memoizes its fold of a step on (state, the label and args of
the step's events whose label it reads, in order).  The memo is exact: the
facts carry no times, so the new state does not depend on which step it is,
and every at function reads only the label and args of events whose label
is in the monitor's labels, so the other events of the step cannot change
it.  The memos fill as searches run and live for the process.
"""

from __future__ import annotations

from collections.abc import Callable

from .protocols import is_vehicle
from .rewriting import Fact
from .terms import sort_key

WEAK_REVEALS = frozenset({"RevealLtk", "RevealSKPSi"})
COMPROMISES = WEAK_REVEALS | {"VjSKPSiReveal", "VehicleCompromised"}

START = frozenset()


class Monitor:
    """One goal pattern: a fact-set state folded over steps.

    at(monitor, state, events) folds the events of one step into the state
    and returns the new state, or monitor.hit once the pattern holds.
    """

    def __init__(self, goal: str, labels: frozenset, at: Callable):
        self.goal = goal
        self.labels = labels  # the event labels the pattern reads
        self.hit = frozenset({self.fact("hit")})
        self._at = at
        # (state, (label, args) of a step's events with a label in labels)
        # -> the state after that step
        self._moves: dict = {}

    def fact(self, kind: str, *args) -> Fact:
        return Fact(f"{self.goal}.{kind}", args)

    def advance(self, state: frozenset, step) -> frozenset:
        if state is self.hit:
            return state
        labels = self.labels
        read = tuple([(e.label, e.args) for e in step.events if e.label in labels])
        if not read:
            return state
        key = (state, read)
        got = self._moves.get(key)
        if got is None:
            got = self._moves[key] = self._at(self, state, step.events)
        return got

    def holds(self, state: frozenset) -> bool:
        return state is self.hit


def _recorded(m: Monitor, kind: str, events, label: str) -> set:
    """One kind(args) fact per event with the label."""
    return {m.fact(kind, *e.args) for e in events if e.label == label}


def _compromises(m: Monitor, events, labels) -> set:
    return {m.fact("compromised", e.args[0]) for e in events if e.label in labels}


def _compromised(m: Monitor, state, events, labels, vehicle) -> bool:
    """Compromised before this step or in it (events of the step)."""
    return m.fact("compromised", vehicle) in state or any(
        e.label in labels and e.args[0] is vehicle for e in events
    )


# --- G1: the core messages delivered in order for one reported token ---------

_G1_CHAIN = ("OsrReqMsgSentTo", "OsrReqMsgRecvBy", "OsrConfSentBy", "OsrConfAcceptedBy")
# argument position of the vehicle; the token is always the third argument
_G1_VEHICLE = {"OsrReqMsgSentTo": 1, "OsrReqMsgRecvBy": 0, "OsrConfSentBy": 0, "OsrConfAcceptedBy": 1}


def _g1(m: Monitor, state, events):
    # A fact label(vj, t) means the chain of Reported(vj, t) awaits label next.
    # The chain is matched greedily, so the first report of (vj, t) is always
    # at least as far along as a later one: later reports add nothing.
    for e in events:
        if e.label == "Reported":
            vj, t = e.args
            if not any(f.args == (vj, t) for f in state):
                state = state | {m.fact(_G1_CHAIN[0], vj, t)}
            continue
        pos = _G1_VEHICLE.get(e.label)
        if pos is None:
            continue
        waiting = m.fact(e.label, e.args[pos], e.args[2])
        if waiting in state:
            nxt = _G1_CHAIN.index(e.label) + 1
            if nxt == len(_G1_CHAIN):
                return m.hit
            state = (state - {waiting}) | {m.fact(_G1_CHAIN[nxt], *waiting.args)}
    return state


# --- G2, G3, G6, G7: an anchor event without an earlier matching event ------


def _unpreceded(goal, anchor, prior, expect, agents, guard) -> Monitor:
    """An anchor event with no prior event at an earlier timepoint.

    expect(*anchor args) gives the args the prior event must have; the
    anchor is excused when one of agents(*anchor args) is compromised (a
    guard event) by its timepoint.
    """

    def at(m: Monitor, state, events):
        for e in events:
            if e.label != anchor or m.fact(prior, *expect(*e.args)) in state:
                continue
            if not any(_compromised(m, state, events, guard, x) for x in agents(*e.args)):
                return m.hit
        return state | _recorded(m, prior, events, prior) | _compromises(m, events, guard)

    return Monitor(goal, frozenset({anchor, prior}) | guard, at)


# --- G5: a confirmation for a reported token after it was changed away --------


def _g5(m: Monitor, state, events):
    # open(vj, t1): reported, and not changed since.  changed(vj, t1): the
    # first change after some report happened.  answered(vj, t1): some
    # confirmation for t1 followed the latest such change.
    closed = set()
    answered = set()
    for e in events:
        if e.label == "OsrConfSentBy":
            vj, _, t1 = e.args
            if m.fact("changed", vj, t1) in state and not _compromised(
                m, state, events, COMPROMISES, vj
            ):
                return m.hit
            answered |= {f.args for f in state if f.name == "g5.changed" and f.args[1] is t1}
        elif e.label == "ChangePseudonymForVehicle" and m.fact("open", *e.args[:2]) in state:
            closed.add(e.args[:2])
    state = state - {m.fact(kind, *p) for p in closed for kind in ("open", "answered")}
    return (
        state
        | {m.fact("changed", *p) for p in closed}
        | {m.fact("answered", *p) for p in answered - closed}
        | _recorded(m, "open", events, "Reported")
        | _compromises(m, events, COMPROMISES)
    )


def g5_unanswered_change(state: frozenset):
    """A (vehicle, token) reported, then changed, then never confirmed, or None.

    Reads the G5 monitor's state.  With several such pairs (more than one
    report per trace) the least in term order is named.
    """
    m = MONITORS["g5"]
    pairs = [
        f.args
        for f in state
        if f.name == "g5.changed" and m.fact("answered", *f.args) not in state
    ]
    return min(pairs, key=lambda p: tuple(map(sort_key, p)), default=None)


MONITORS = {
    m.goal: m
    for m in (
        Monitor("g1", frozenset({"Reported", *_G1_CHAIN}), _g1),
        # an RA acceptance the vehicle never received a request for
        _unpreceded(
            "g2", "OsrConfAcceptedBy", "OsrReqMsgRecvBy",
            lambda ra, vj, t: (vj, ra, t), lambda ra, vj, t: (vj,), WEAK_REVEALS,
        ),
        # a Commit without a Running on the same message
        _unpreceded(
            "g3", "Commit", "Running",
            lambda a, b, msg: (a, b, msg),
            lambda a, b, msg: [x for x in (a, b) if is_vehicle(x)],
            WEAK_REVEALS,
        ),
        Monitor(
            "g5",
            frozenset({"OsrConfSentBy", "ChangePseudonymForVehicle", "Reported"}) | COMPROMISES,
            _g5,
        ),
        # a confirmation sent for a request that was never issued
        _unpreceded(
            "g6", "OsrConfSentBy", "OsrReqMsgSentTo",
            lambda vj, ra, t: (ra, vj, t), lambda vj, ra, t: (vj,), COMPROMISES,
        ),
        # G2, excused by any compromise instead of only key reveals
        _unpreceded(
            "g7", "OsrConfAcceptedBy", "OsrReqMsgRecvBy",
            lambda ra, vj, t: (vj, ra, t), lambda ra, vj, t: (vj,), COMPROMISES,
        ),
    )
}

# Every event label some monitor reads.  A step emitting none of them
# leaves every monitor state as it was.
LABELS = frozenset().union(*(m.labels for m in MONITORS.values()))

# Each monitor's position in the states of start and advance_all.
INDEX = {g: i for i, g in enumerate(MONITORS)}

# G4 (agreement plus message order) holds when G3 or G2 does.
_PARTS = {"g4": ("g3", "g2")}


def hit_length(goal: str, steps):
    """Length of the shortest prefix of steps on which the goal holds, or None."""
    parts = [MONITORS[g] for g in _PARTS.get(goal, (goal,))]
    states = [START] * len(parts)
    for k, step in enumerate(steps, 1):
        states = [m.advance(s, step) for m, s in zip(parts, states)]
        if any(m.holds(s) for m, s in zip(parts, states)):
            return k
    return None


def start() -> tuple:
    """Every monitor's start state, in MONITORS order."""
    return (START,) * len(MONITORS)


def holds_in(goal: str, states: tuple) -> bool:
    """Whether the goal's pattern holds in advance_all's monitor states."""
    return any(
        states[INDEX[g]] is MONITORS[g].hit for g in _PARTS.get(goal, (goal,))
    )


def advance_all(states: tuple, step) -> tuple:
    """Every monitor's state advanced by one step; a step that emits no label
    a monitor reads leaves the states as they were."""
    if LABELS.isdisjoint([e.label for e in step.events]):
        return states
    return tuple(m.advance(s, step) for m, s in zip(MONITORS.values(), states))
