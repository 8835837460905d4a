"""memcat: a workbench for axiomatic weak memory models.

Parses litmus tests, enumerates their candidate executions, evaluates
models written in a small relational language against them, replays
accepted executions on an operational machine, and mines the critical
cycles a test exercises.
"""

__version__ = "0.1.0"

from .relation import (
    Candidate,
    Event,
    MemRead,
    MemWrite,
    Relation,
    check_acyclic,
    check_irreflexive,
    closure,
    compose,
    restrict,
)

__all__ = [
    "Candidate",
    "Event",
    "MemRead",
    "MemWrite",
    "Relation",
    "check_acyclic",
    "check_irreflexive",
    "closure",
    "compose",
    "restrict",
    "__version__",
]
