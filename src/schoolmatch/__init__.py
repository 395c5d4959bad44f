"""School-choice matching mechanisms and analyzers.

Mechanisms: student-proposing deferred acceptance (with full trace), top
trading cycles, the interrupter-removal rerun loop, coalition improvement,
and the trading-clique adjustment on top of deferred acceptance; plus
stability/efficiency/fairness analyzers, a brute-force oracle for small
instances, and a strategy lab for manipulation experiments.
"""

from .model import (
    Instance,
    Matching,
    PreferenceProfile,
    PriorityStructure,
    UNASSIGNED,
    WeakOrder,
    rank,
    tie_break,
    validate,
)
from .mechanisms import eadam, hopeless_students, interrupters, sosm, ttc
from .analysis import (
    dominates,
    is_efficient,
    is_reasonably_fair,
    is_stable,
    preference_index,
    priority_violations,
)

__all__ = [
    "Instance",
    "Matching",
    "PreferenceProfile",
    "PriorityStructure",
    "UNASSIGNED",
    "WeakOrder",
    "dominates",
    "eadam",
    "hopeless_students",
    "interrupters",
    "is_efficient",
    "is_reasonably_fair",
    "is_stable",
    "preference_index",
    "priority_violations",
    "rank",
    "sosm",
    "tie_break",
    "ttc",
    "validate",
]
