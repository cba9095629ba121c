"""Property test of the exhaustive search behind the exact oracles.

On random graphs of up to 10 bids (zero prices allowed, ids not in input
order) with no groups or with groups of each constraint kind, plain
enumeration of all 2^n bid sets must agree with the oracles:

* :func:`auctol.budgets.exact_feasible` returns the optimum over the
  independent sets that respect the groups and, among the optimal sets,
  the one whose sorted id list is lexicographically smallest (the first one
  the search reaches);
* :func:`auctol.solvers.exact_mwis` returns the optimum over independent
  sets and, among the optimal sets, the one that holds the smallest id on
  which two of them differ (so it keeps every zero-price id it can);
* :func:`auctol.graphs.beta_exact` reports, for every node, the largest
  independent set among its successors, and at least 1.
"""

from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctol import BidGraph, ConstraintSet, Group, Ordering, beta_exact, exact_feasible, exact_mwis, orient
from auctol.graphs import csr


@st.composite
def graphs_with_groups(draw):
    """An oriented graph on up to 10 nodes, and None or a constraint set of
    a drawn kind: a partition for ``unweighted`` and ``weighted``, up to 3
    groups per bid (some bids in none) for ``overlapping``."""
    n = draw(st.integers(0, 10))
    ids = [f"b{p}" for p in draw(st.permutations(range(n)))]
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]))) if n > 1 else set()
    weights = dict(zip(ids, draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))))
    g = BidGraph(weights, *csr(n, sorted(pairs)))
    g = orient(g, Ordering(list(draw(st.permutations(ids)))))

    kind = draw(st.sampled_from((None, "unweighted", "overlapping", "weighted")))
    if kind is None or n == 0:
        return g, None
    n_groups = draw(st.integers(1, 4))
    if kind == "overlapping":
        picks = [draw(st.sets(st.integers(0, n_groups - 1), max_size=3)) for _ in ids]
    else:
        picks = [{draw(st.integers(0, n_groups - 1))} for _ in ids]
    top = 12 if kind == "weighted" else 3
    groups = [
        Group(f"g{gi}", members, draw(st.integers(1, top)))
        for gi in range(n_groups)
        if (members := frozenset(u for u, gs in zip(ids, picks) if gi in gs))
    ]
    return g, ConstraintSet(kind, groups)


def independent(g, chosen):
    return all(v not in chosen for u in chosen for v in g.neighbors(u))


def feasible(g, cs, chosen):
    if not independent(g, chosen):
        return False
    for grp in cs.groups if cs is not None else ():
        inside = chosen & grp.members
        used = sum(g.weights[u] for u in inside) if cs.kind == "weighted" else len(inside)
        if used > grp.limit:
            return False
    return True


def subsets(items):
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


@settings(max_examples=500, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs_with_groups())
def test_oracles_match_enumeration(case):
    g, cs = case
    ids = sorted(g.ids)

    def weight(chosen):
        return sum(g.weights[u] for u in chosen)

    sets = [s for s in subsets(ids) if feasible(g, cs, s)]
    opt = max(map(weight, sets))
    optimal = [s for s in sets if weight(s) == opt]
    assert exact_feasible(g, cs) == (opt, min(optimal, key=sorted))

    sets = [s for s in subsets(ids) if independent(g, s)]
    opt = max(map(weight, sets))
    optimal = [s for s in sets if weight(s) == opt]
    mwis = exact_mwis(g)
    assert mwis.revenue == opt
    assert mwis.selected == max(optimal, key=lambda s: [u in s for u in ids])

    report = beta_exact(g)
    for u in g.ids:
        later = [v for v in g.neighbors(u) if g.rank()[v] > g.rank()[u]]
        alpha = max(len(s) for s in subsets(later) if independent(g, s))
        assert report.per_node[u] == max(1, alpha)
    assert report.beta_graph == max(report.per_node.values(), default=1)
