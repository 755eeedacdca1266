"""Fair public decision making with exact rational arithmetic.

Share-based fairness relaxations (Prop1, RRS, PPS, MMS), decision mechanisms
(round robin, normalized leximin, maximum Nash welfare), a polynomial-time
Pareto-optimal allocator for private goods that guarantees everyone her
pessimistic proportional share, exact audits, brute-force oracles, named
instance families, and a JSON command line.
"""

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
from .oracles import DEFAULT_ENUM_CAP, enumerate_outcomes, exact_optimum
from .private_goods import (
    Prop1SearchResult,
    TransferTrace,
    pps_po_allocate,
    prop1_po_search,
    weighted_welfare_allocation,
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

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
