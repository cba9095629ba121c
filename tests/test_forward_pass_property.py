"""Property test of the opportunity-cost pass with k-of-group limits.

On random oriented bid sets with groups (k = 1..5, each bid in up to t = 1..3
groups, zero prices allowed, partitions and overlapping groups alike),
:func:`auctol.solvers.forward_pass` must select the same set as its
local-ratio oracle :func:`auctol.solvers.local_ratio`, and every value in
its table must equal a plain ``Fraction`` recomputation of the recurrence,
with the same type: ``int`` when every k is 1, ``Fraction`` otherwise.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctol import Bid, ConstraintSet, Group, Ordering, build_bid_graph, orient
from auctol.budgets import group_index
from auctol.solvers import forward_pass, local_ratio


def fraction_values(g, gx):
    """The forward recurrence in ``Fraction``, one node at a time."""
    w, pred_ptr, pred_idx = g.w, g.pred_ptr, g.pred_idx
    delta = [Fraction(0)] * len(gx.limits)
    val = []
    for i in range(g.n):
        v = Fraction(w[i]) - sum(max(Fraction(0), val[j]) for j in pred_idx[pred_ptr[i] : pred_ptr[i + 1]])
        mine = gx.gidx[gx.gptr[i] : gx.gptr[i + 1]]
        v -= sum(delta[gi] / gx.limits[gi] for gi in mine)
        if v > 0:
            for gi in mine:
                delta[gi] += v
        val.append(v)
    return val


def check_pass(g, cs):
    gx = group_index(g, cs)
    sol, table = forward_pass(g, gx, cs.kind)
    assert sol.selected == local_ratio(g, gx, cs.kind).selected
    want = fraction_values(g, gx)
    value_type = int if all(k == 1 for k in gx.limits) else Fraction
    for u, v in zip(g.order(), want):
        assert table.val[u] == v
        assert type(table.val[u]) is value_type
    return table


@st.composite
def grouped_bid_sets(draw):
    n = draw(st.integers(1, 14))
    n_objects = draw(st.integers(1, 6))
    wmax = draw(st.sampled_from((1, 6, 1000)))
    bids = [
        Bid(
            f"b{i:02d}",
            frozenset(f"o{j}" for j in draw(st.sets(st.integers(0, n_objects - 1), min_size=1, max_size=3))),
            draw(st.integers(0, wmax)),
        )
        for i in range(n)
    ]
    g = build_bid_graph(bids)
    order = draw(st.permutations(list(g.ids)))
    g = orient(g, Ordering(list(order)))

    k_max = draw(st.integers(1, 5))
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        members = [frozenset(u for u, label in zip(order, labels) if label == gi) for gi in range(n)]
        kind = "unweighted"
    else:
        t = draw(st.integers(1, 3))
        n_groups = draw(st.integers(1, max(1, n // 2)))
        picks = [draw(st.sets(st.integers(0, n_groups - 1), max_size=min(t, n_groups))) for _ in order]
        members = [frozenset(u for u, gs in zip(order, picks) if gi in gs) for gi in range(n_groups)]
        kind = "overlapping"
    groups = [Group(f"g{gi}", m, draw(st.integers(1, k_max))) for gi, m in enumerate(members) if m]
    return g, ConstraintSet(kind, groups)


@settings(max_examples=400, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(grouped_bid_sets())
def test_forward_pass_matches_fraction_recurrence_and_local_ratio(case):
    g, cs = case
    if not cs.groups:  # every bid of an overlapping draw left out
        cs = ConstraintSet("overlapping", [Group("all", frozenset(g.ids), 2)])
    check_pass(g, cs)


def test_common_denominator_is_refined_many_times():
    """Ten unit bids in one k = 2 group, none conflicting: the i-th value is
    1/2**(i-1), so the common denominator reaches 2**9. Each refinement
    multiplies it by at most k = 2, so it was refined at least 9 times. A
    conflicting bid after them reads the refined numerators back."""
    bids = [Bid(f"b{i}", {f"o{i}"}, 1) for i in range(10)]
    bids.append(Bid("late", {"o0", "o9"}, 3))
    g = orient(build_bid_graph(bids), Ordering([b.id for b in bids]))
    cs = ConstraintSet("overlapping", [Group("g", frozenset(f"b{i}" for i in range(10)), 2)])
    table = check_pass(g, cs)
    assert [table.val[f"b{i}"] for i in range(10)] == [Fraction(1, 2**i) for i in range(10)]
    assert max(v.denominator for v in table.val.values()) == 2**9
    assert table.val["late"] == 3 - 1 - Fraction(1, 2**9)
