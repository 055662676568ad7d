"""Semiring-polymorphic dynamic programming.

Recurrences are written once against a semiring interface and re-run
with any catalog entry; separable constraints are applied by lifting
the semiring over a finite constraint algebra; and every efficient
recurrence can be cross-checked against an exhaustive path-set run that
generates, filters and evaluates all solutions explicitly.
"""

from .algorithms import (
    AlignmentProblem,
    Dag,
    SegmentationProblem,
    combinations,
    dag_bellman,
    delannoy,
    events_m_of_n,
    lis,
    longest_chain,
    nonempty_subsequences,
    nw_align,
    nw_align_max_constrained,
    nw_align_sum_constrained,
    ordered_subsequences,
    segment_fixed_count,
    segment_min_length,
    segment_opt,
    subsequences,
)
from .laws import catalog_samplers, law_failures
from .lifting import (
    CLOSED_FORM_EDGE_PRODUCTS,
    ORDER_BLOCKED,
    ConstraintAlgebra,
    abs_difference_algebra,
    algebra_catalog,
    exists_algebra,
    forall_algebra,
    lift_edge,
    lifted_one,
    lifted_semiring,
    lifted_zero,
    max_count_algebra,
    min_count_algebra,
    mul_by_lifted_edge_general,
    mul_by_lifted_edge_group,
    mul_group,
    ordering_algebra,
    project,
    subset_size_algebra,
)
from .pathsets import (
    DEFAULT_LABEL_BUDGET,
    PathBudgetError,
    PathSet,
    constraint_fold,
    evaluate_paths,
    filter_paths,
    generator_semiring,
    singleton_weights,
)
from .regression import (
    SegmentCostModel,
    SegmentCosts,
    SegmentationResult,
    TimeSeries,
    piecewise_values,
    segment_series,
)
from .semirings import (
    OpCounts,
    Scored,
    Semiring,
    boolean_semiring,
    bottleneck_semiring,
    counting_semiring,
    exact_eq,
    expectation_semiring,
    float_eq,
    instrumented,
    max_product_semiring,
    maxplus_semiring,
    minplus_semiring,
    probability_semiring,
    softmax_semiring,
    standard_semirings,
    viterbi_semiring,
    viterbi_simple_semiring,
)

__version__ = "0.1.0"
