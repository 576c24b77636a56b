"""revlab: bounded symbolic verification of V2X pseudonym-revocation protocols."""

__version__ = "0.1.0"

from .canonical import canonicalize, digest
from .explorer import Bounds, Trace, TraceSet, explore, replay
from .goals import GoalVerdict, RunResult, run_all
from .knowledge import Knowledge, can_derive, gen_fresh, observe
from .protocols import ProtocolSpec, build_protocol, initial_state
from .rewriting import Event, Fact, Rule, SystemState, enabled_instances, fire
from .terms import Term, match, normalize, render, substitute

__all__ = [
    "Bounds",
    "Event",
    "Fact",
    "GoalVerdict",
    "Knowledge",
    "ProtocolSpec",
    "Rule",
    "RunResult",
    "SystemState",
    "Term",
    "Trace",
    "TraceSet",
    "build_protocol",
    "can_derive",
    "canonicalize",
    "digest",
    "enabled_instances",
    "explore",
    "fire",
    "gen_fresh",
    "initial_state",
    "match",
    "normalize",
    "observe",
    "render",
    "replay",
    "run_all",
    "substitute",
    "__version__",
]
