"""Second-opinion evaluation of goal predicates over a trace's steps.

Deliberately written apart from goals.py and monitors.py (different
structure: label index, explicit timepoint lists) so every emitted witness
or counterexample gets an independent confirmation before it is reported.
An event's timepoint is the index of the step that holds it.
"""

from __future__ import annotations

from collections import defaultdict


def _timed(steps) -> list:
    """(time, label, args) of every event of the steps, in trace order."""
    return [(time, e.label, e.args) for time, step in enumerate(steps) for e in step.events]


def _index(events):
    by_label = defaultdict(list)
    for time, label, args in events:
        by_label[label].append((time, args))
    return by_label


def _vehicle_clean_weak(idx, vj, upto) -> bool:
    # prefixes are executions too: only compromises up to the anchor count
    for label in ("RevealLtk", "RevealSKPSi"):
        for time, args in idx[label]:
            if args[0] is vj and time <= upto:
                return False
    return True


def _vehicle_clean_strict(idx, vj, upto) -> bool:
    for label in ("RevealLtk", "RevealSKPSi", "VjSKPSiReveal", "VehicleCompromised"):
        for time, args in idx[label]:
            if args[0] is vj and time <= upto:
                return False
    return True


def holds(goal: str, steps) -> bool:
    """Whether the goal's witness/violation pattern occurs in the steps' events."""
    events = _timed(steps)
    idx = _index(events)
    if goal == "g1":
        return _g1(events)
    if goal == "g2":
        return _accept_without_receive(idx, weak_guard=True)
    if goal == "g3":
        return _g3(idx)
    if goal == "g4":
        return _g3(idx) or _accept_without_receive(idx, weak_guard=True)
    if goal == "g5":
        return _g5(idx)
    if goal == "g6":
        return _g6(idx)
    if goal == "g7":
        return _accept_without_receive(idx, weak_guard=False)
    raise ValueError(f"unknown goal {goal!r}")


def _g1(events) -> bool:
    order = ["Reported", "OsrReqMsgSentTo", "OsrReqMsgRecvBy", "OsrConfSentBy", "OsrConfAcceptedBy"]
    for cursor, (_, first, args) in enumerate(events):
        if first != "Reported":
            continue
        vj, t = args
        ok = True
        for label in order[1:]:
            nxt = None
            for pos in range(cursor + 1, len(events)):
                _, got, args = events[pos]
                if got != label:
                    continue
                if label in ("OsrReqMsgSentTo", "OsrConfAcceptedBy"):
                    agent_ok = args[1] is vj
                else:
                    agent_ok = args[0] is vj
                if agent_ok and args[2] is t:
                    nxt = pos
                    break
            if nxt is None:
                ok = False
                break
            cursor = nxt
        if ok:
            return True
    return False


def _accept_without_receive(idx, weak_guard: bool) -> bool:
    clean = _vehicle_clean_weak if weak_guard else _vehicle_clean_strict
    for acc_time, (ra, vj, t) in idx["OsrConfAcceptedBy"]:
        if not clean(idx, vj, acc_time):
            continue
        matched = [
            args
            for time, args in idx["OsrReqMsgRecvBy"]
            if args[0] is vj and args[1] is ra and args[2] is t and time < acc_time
        ]
        if not matched:
            return True
    return False


def _g3(idx) -> bool:
    for c_time, (a, b, m) in idx["Commit"]:
        skip = False
        for x in (a, b):
            label = getattr(x, "label", "")
            if (
                label.startswith("V")
                and label[1:].isdigit()
                and not _vehicle_clean_weak(idx, x, c_time)
            ):
                skip = True
        if skip:
            continue
        earlier = [
            args
            for time, args in idx["Running"]
            if args[0] is a and args[1] is b and args[2] is m and time < c_time
        ]
        if not earlier:
            return True
    return False


def _g5(idx) -> bool:
    for rep_time, (vj, t1) in idx["Reported"]:
        changes = [
            time
            for time, args in idx["ChangePseudonymForVehicle"]
            if args[0] is vj and args[1] is t1 and time > rep_time
        ]
        for chg_time in changes:
            confs = [
                time
                for time, args in idx["OsrConfSentBy"]
                if args[0] is vj
                and args[2] is t1
                and time > chg_time
                and _vehicle_clean_strict(idx, vj, time)
            ]
            if confs:
                return True
    return False


def _g6(idx) -> bool:
    for sent_time, (vj, ra, t) in idx["OsrConfSentBy"]:
        if not _vehicle_clean_strict(idx, vj, sent_time):
            continue
        earlier = [
            args
            for time, args in idx["OsrReqMsgSentTo"]
            if args[0] is ra and args[1] is vj and args[2] is t and time < sent_time
        ]
        if not earlier:
            return True
    return False
