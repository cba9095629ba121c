"""How the node ordering drives solution quality.

The solver's approximation ratio is the directed local independence number
of the chosen ordering: the most mutually-independent later neighbors any
node faces. This script shows the full range on one graph, from a perfect
elimination ordering (exact) to decreasing weight (plain greedy), plus the
frontier machinery that bounds the ratio for tree-decomposable object
graphs and grids.
"""

from auctol import (
    NotChordalError,
    beta_bound_frontier,
    beta_bound_union,
    beta_exact,
    bid_graph,
    decreasing_weight_ordering,
    exact_mwis,
    frontier_violations,
    gen_grid,
    gen_interval,
    gen_subtrees,
    greedy,
    lexbfs_peo,
    min_degree_heuristic_decomposition,
    opcost,
    ordering_from_spec,
    orient,
    planted_optimal_ordering,
    tree_decomposition_ordering,
)

inst = gen_interval(30, seed=11)
g = bid_graph(inst)
print(f"interval instance: {g.n} bids, {g.m} conflicts")

peo = lexbfs_peo(g)
exact = exact_mwis(g).revenue
for name, ordering in (
    ("perfect elimination", peo),
    ("decreasing weight", decreasing_weight_ordering(g)),
    ("planted optimum", planted_optimal_ordering(g, exact_mwis(g).selected)),
):
    sol, _ = opcost(orient(g, ordering))
    print(f"  {name:>20}: revenue {sol.revenue}  (optimum {exact})")
gr = greedy(g, decreasing_weight_ordering(g))
print(f"  {'greedy baseline':>20}: revenue {gr.revenue}")

print("\nnon-chordal graphs are recognized with a witness:")
c4 = gen_grid((2, 2), seed=0)
try:
    lexbfs_peo(bid_graph(c4))
except NotChordalError as exc:
    v, a, b = exc.witness
    print(f"  2x2 grid: node {v} sees non-adjacent later neighbors {a}, {b}")
else:
    raise AssertionError("a 2x2 grid is a 4-cycle, which is not chordal")

print("\ntree decompositions certify a ratio for subtree auctions:")
sub = gen_subtrees(10, 14, seed=5)
td = min_degree_heuristic_decomposition(sub.object_graph)
ordering = tree_decomposition_ordering(td, sub.bids, sub.object_graph)
sg = orient(bid_graph(sub), ordering)
print(f"  heuristic decomposition width {td.width()}")
print(f"  frontier bound {beta_bound_frontier(ordering)} vs exact beta {beta_exact(sg).beta_graph}")
assert frontier_violations(bid_graph(sub), ordering, sub.table.object_sets()) == []

print("\ngrid auctions: coordinate-sum order bounds beta by the dimension:")
grid = gen_grid((4, 4), seed=3)
gg = orient(bid_graph(grid), ordering_from_spec(grid, bid_graph(grid)))
print(f"  4x4 grid: beta = {beta_exact(gg).beta_graph} <= 2")

print("\nbounds compose across edge unions (interval + one clique per bidder):")
print(f"  beta <= {beta_bound_union([1, 1])}")
