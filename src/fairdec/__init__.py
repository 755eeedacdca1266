"""Fair public decision making with exact rational arithmetic.

Share-based fairness relaxations (Prop1, RRS, PPS, MMS), decision mechanisms
(round robin, normalized leximin, maximum Nash welfare), a polynomial-time
Pareto-optimal allocator for private goods that guarantees everyone her
pessimistic proportional share, exact audits, brute-force oracles, named
instance families, and a JSON command line.
"""

import importlib
from itertools import chain

from .audit import (
    AuditReport,
    AxiomCheck,
    ParetoCheck,
    PlayerAudit,
    audit,
    audit_goods,
    best_single_switch,
    check_pareto_optimal,
)
from .errors import (
    DEFAULT_ENUM_CAP,
    CapExceeded,
    FairdecError,
    GenerationError,
    InstanceFormatError,
    InvariantError,
)
from .generators import GeneratedInstance, generate, random_goods, random_public
from .mechanisms import leximin, max_nash_welfare, round_robin
from .model import (
    Allocation,
    DecisionInstance,
    GoodsInstance,
    Issue,
    MechanismResult,
    Outcome,
    Pick,
    Violation,
    allocation,
    allocation_to_outcome,
    allocation_utilities,
    as_fraction,
    bundle_utility,
    decision_instance,
    goods_instance,
    goods_to_public,
    outcome_to_allocation,
    outcome_utility,
    utility_vector,
)
from .shares import (
    DEFAULT_MMS_CAP,
    ShareProfile,
    maximin_share,
    pessimistic_share,
    proportional_share,
    round_robin_share,
    share_profile,
)

# the names loaded on first use, by the module that defines them
_LAZY = {
    "oracles": ("enumerate_outcomes", "exact_optimum"),
    "private_goods": ("Prop1SearchResult", "TransferTrace", "pps_po_allocate",
                      "prop1_po_search", "weighted_welfare_allocation"),
}

__all__ = [
    # audit
    "AuditReport", "AxiomCheck", "ParetoCheck", "PlayerAudit", "audit",
    "audit_goods", "best_single_switch", "check_pareto_optimal",
    # errors
    "DEFAULT_ENUM_CAP", "CapExceeded", "FairdecError", "GenerationError",
    "InstanceFormatError", "InvariantError",
    # generators
    "GeneratedInstance", "generate", "random_goods", "random_public",
    # mechanisms
    "leximin", "max_nash_welfare", "round_robin",
    # model
    "Allocation", "DecisionInstance", "GoodsInstance", "Issue", "MechanismResult",
    "Outcome", "Pick", "Violation", "allocation", "allocation_to_outcome",
    "allocation_utilities", "as_fraction", "bundle_utility", "decision_instance",
    "goods_instance", "goods_to_public", "outcome_to_allocation",
    "outcome_utility", "utility_vector",
    # shares
    "DEFAULT_MMS_CAP", "ShareProfile", "maximin_share", "pessimistic_share",
    "proportional_share", "round_robin_share", "share_profile",
    *chain(*_LAZY.values()),
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """A module of ``_LAZY`` or one of its names, the module imported on
    first use (PEP 562)."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            value = importlib.import_module(f"{__name__}.{module}")
            value = value if name == module else getattr(value, name)
            globals()[name] = value  # later reads skip this function
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__all__})
