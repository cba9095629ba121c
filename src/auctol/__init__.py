"""Winner determination for structured combinatorial auctions.

Approximates maximum-weight independent sets in bid conflict graphs via
opportunity-cost algorithms whose ratio is the directed local independence
number of the chosen node ordering, with budget-constraint extensions and
built-in exact oracles for verification.
"""

from .budgets import (
    ConstraintSet,
    Group,
    check_feasible,
    exact_feasible,
    group_clique_graph,
    solve_light,
    solve_overlapping,
    solve_overlapping_lr,
    solve_unweighted,
    solve_unweighted_lr,
    solve_weighted,
)
from .errors import (
    CapacityError,
    NotChordalError,
    SchemaError,
    ValidationError,
)
from .graphs import (
    BetaReport,
    Bid,
    BidGraph,
    ObjectGraph,
    Ordering,
    beta_bound_frontier,
    beta_bound_union,
    beta_exact,
    build_bid_graph,
    frontier_violations,
    orient,
)
from .instances import (
    Instance,
    OrderingSpec,
    bid_graph,
    dumps_instance,
    dumps_solution,
    gen_budget,
    gen_grid,
    gen_interval,
    gen_interval_selection,
    gen_subtrees,
    gen_tight,
    load_instance,
    loads_instance,
    ordering_from_spec,
    oriented_graph,
    save_instance,
    validate_instance,
)
from .orderings import (
    NotChordal,
    TreeDecomposition,
    decreasing_weight_ordering,
    grid_ordering,
    lexbfs_peo,
    min_degree_heuristic_decomposition,
    planted_optimal_ordering,
    tree_decomposition_ordering,
    validate_tree_decomposition,
)
from .rng import SplitMix64
from .solvers import (
    Certificate,
    Solution,
    ValueTable,
    exact_mwis,
    greedy,
    lropcost,
    opcost,
    verify_value_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
