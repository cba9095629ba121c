"""Oracle for the first-fit baseline.

``ref_greedy`` is a copy of the id-space first-fit that ``greedy`` was
before it read the oriented graph's rank slices: it walks the ordering's ids
over the graph's own rows and checks that the ordering covers the nodes
itself. On random bid sets (zero prices allowed), the library's ``greedy``
must return the same selection, revenue and certificate for an unoriented
graph given the ordering, for the graph oriented by that ordering (given
again or not), and for the graph oriented by another ordering and given the
first. Orderings that repeat or miss an id, and an unoriented graph with no
ordering, raise ValidationError.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from auctol import Bid, Ordering, build_bid_graph, greedy, orient
from auctol.errors import ValidationError
from auctol.graphs import check_independent
from auctol.solvers import Certificate, Solution


def ref_greedy(g, ordering):
    order = ordering.order
    if set(order) != set(g.ids):
        raise ValidationError("ordering must cover exactly the graph's nodes")
    index, ptr, nbr = g.index, g.ptr, g.nbr
    blocked = bytearray(g.n)
    chosen = []
    for u in order:
        i = index[u]
        if not blocked[i]:
            chosen.append(u)
            blocked[i] = 1
            for j in nbr[ptr[i] : ptr[i + 1]]:
                blocked[j] = 1
    selected = frozenset(chosen)
    check_independent(ptr, nbr, [u in selected for u in g.ids], g.ids)
    return Solution(selected, sum(g.weights[u] for u in chosen), Certificate("greedy"))


@st.composite
def graphs_and_orderings(draw):
    """A bid graph and two orderings of its nodes."""
    n = draw(st.integers(1, 14))
    n_objects = draw(st.integers(1, 7))
    wmax = draw(st.sampled_from((0, 5, 1000)))
    bids = [
        Bid(
            f"b{i:02d}",
            frozenset(f"o{j}" for j in draw(st.sets(st.integers(0, n_objects - 1), min_size=1, max_size=3))),
            draw(st.integers(0, wmax)),
        )
        for i in range(n)
    ]
    g = build_bid_graph(bids)
    first, other = (Ordering(list(draw(st.permutations(g.ids)))) for _ in range(2))
    return g, first, other


@settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs_and_orderings())
def test_greedy_matches_id_space_first_fit(case):
    g, ordering, other = case
    want = ref_greedy(g, ordering)
    oriented = orient(g, ordering)
    for got in (
        greedy(g, ordering),
        greedy(oriented),
        greedy(oriented, ordering),
        greedy(orient(g, other), ordering),
    ):
        assert got == want


@settings(max_examples=100, deadline=None, database=None)
@given(graphs_and_orderings(), st.sampled_from(("repeat", "miss", "extra")))
def test_orderings_that_repeat_or_miss_an_id_raise(case, how):
    g, ordering, _other = case
    order = list(ordering.order)
    if how == "repeat":  # the last id in place of the first: one repeats, one is missed
        assume(len(order) > 1)
        order[0] = order[-1]
    elif how == "miss":
        order.pop()
    else:  # every id, and one of them twice
        order.append(order[0])
    if how != "extra":  # the id-space form let an ordering that only adds a repeat through
        with pytest.raises(ValidationError):
            ref_greedy(g, Ordering(order))
    for graph in (g, orient(g, ordering)):
        with pytest.raises(ValidationError, match="ordering must be a permutation of exactly the graph's nodes"):
            greedy(graph, Ordering(order))


def test_unoriented_graph_without_ordering_raises():
    g = build_bid_graph([Bid("a", {"x"}, 1), Bid("b", {"x"}, 2)])
    with pytest.raises(ValidationError, match="graph has no orientation"):
        greedy(g)
