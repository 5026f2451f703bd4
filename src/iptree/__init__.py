"""Upper and lower expectations for finite-state uncertain processes
described by imprecise probability trees.

The library models a discrete-time process whose one-step dynamics are known
only up to a credal set per history, and computes conditional upper/lower
expectations of payoffs: exactly, by backward recursion, for payoffs on
finitely many states; hitting times and hitting probabilities exactly, on
the finite closure of the product; other limit payoffs by monotone
approximation; with supermartingale certificates and a brute-force
compatible-tree oracle to cross-validate every number.
"""

from .engine import (
    ApproxResult,
    Policy,
    StopReason,
    adversarial_selection,
    finitary_lower,
    finitary_upper,
    limit_bounds,
    limit_lower,
    limit_upper,
    lower_probability,
    upper_probability,
    value_table,
    value_tables,
)
from .errors import (
    ExprError,
    InvalidInputError,
    IptreeError,
    MonotonicityError,
    ResourceLimitError,
    SchemaError,
)
from .expr import GambleExpr, compile_gamble, parse_gamble, unparse
from .gambles import (
    Cylinder,
    Direction,
    EventSpec,
    FinitaryGamble,
    Hitting,
    LimitVariable,
    MachineGamble,
    UnionAtDepth,
    hitting_event_variable,
    hitting_indicator,
    hitting_time_variable,
    indicator_of_cylinder,
    indicator_of_strings,
    pointwise_leq,
    restrict,
    truncated_hitting_time,
)
from .local import (
    AxiomReport,
    CredalSet,
    MassFunction,
    StateSpace,
    check_coherence_axioms,
    cut_limit_upper,
    extended_upper_expectation,
    lower_expectation,
    upper_cut,
    upper_expectation,
)
from .modelio import (
    dump_certificate,
    dump_model,
    load_certificate,
    load_model,
    load_model_file,
    load_queries,
)
from .oracle import (
    DominationReport,
    EnvelopeResult,
    conditional_prob,
    domination_check,
    envelope_sup,
    precise_expectation,
    sample_compatible,
    selection_tree,
)
from .supermartingale import (
    Certificate,
    TailConstantProcess,
    VerificationReport,
    canonical_supermartingale,
    certified_upper_bound,
    verify,
)
from .tree import (
    Homogeneous,
    ImpreciseTree,
    Markov,
    PreciseTree,
    Selection,
    Situation,
    Table,
    enumerate_compatible,
    is_compatible,
    local_model,
    parse_situation,
    format_situation,
    situation_from_labels,
)

__version__ = "0.1.0"
