"""Oracle for the plain (groupless) opportunity-cost solvers.

The references below are copies of the stand-alone implementations of
``opcost`` (a forward value pass and a reverse acceptance pass) and
``lropcost`` (the local-ratio loop with its own reverse pass). The library's
``opcost`` (with ``include_zero_value`` both ways) and ``lropcost`` must
return the same selection, revenue and certificate algorithm, and ``opcost``
the same value table (value, type and selection flag of every node), on
random oriented bid sets with zero-price bids (so value-0 nodes occur), on
conflict-free and clique graphs, and on the golden corpus.
"""

import random
from itertools import compress
from pathlib import Path

import pytest

from auctol import Bid, Ordering, build_bid_graph, load_instance, lropcost, opcost, orient, oriented_graph
from auctol.graphs import check_independent
from auctol.solvers import Certificate, Solution, ValueTable

GOLDEN = Path(__file__).parent / "golden"


def ref_opcost(g, include_zero_value=False):
    order, w = g.order(), g.w
    pred_ptr, pred_idx = g.pred_ptr, g.pred_idx
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    val = [0] * n
    for i in range(n):
        s = 0
        for j in pred_idx[pred_ptr[i] : pred_ptr[i + 1]]:
            vj = val[j]
            if vj > 0:
                s += vj
        val[i] = w[i] - s
    sel = [False] * n
    for i in range(n - 1, -1, -1):
        vi = val[i]
        if vi > 0 or (include_zero_value and vi == 0):
            free = True
            for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                if sel[j]:
                    free = False
                    break
            sel[i] = free
    check_independent(succ_ptr, succ_idx, sel, order)
    chosen = list(compress(order, sel))
    revenue = sum(compress(w, sel))
    return Solution(frozenset(chosen), revenue, Certificate("opcost")), ValueTable(order, val)


def ref_lropcost(g):
    order, w = g.order(), g.w
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    cur = list(w)
    processed = []
    for i in range(n):
        ci = cur[i]
        if ci <= 0:
            continue
        processed.append(i)
        for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
            cur[j] -= ci
    sel = [False] * n
    for i in reversed(processed):
        free = True
        for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
            if sel[j]:
                free = False
                break
        sel[i] = free
    check_independent(succ_ptr, succ_idx, sel, order)
    chosen = [order[i] for i in processed if sel[i]]
    revenue = sum(w[i] for i in processed if sel[i])
    return Solution(frozenset(chosen), revenue, Certificate("lropcost"))


def same_solution(got, want):
    assert got.selected == want.selected
    assert got.revenue == want.revenue
    assert got.certificate.algorithm == want.certificate.algorithm


def check(g):
    for include_zero_value in (False, True):
        sol, table = opcost(g, include_zero_value=include_zero_value)
        want, want_table = ref_opcost(g, include_zero_value=include_zero_value)
        same_solution(sol, want)
        assert table.val == want_table.val
        assert [type(v) for v in table.val.values()] == [type(v) for v in want_table.val.values()]
    same_solution(lropcost(g), ref_lropcost(g))


def _oriented(rng, bids):
    g = build_bid_graph(bids)
    order = list(g.ids)
    rng.shuffle(order)
    return orient(g, Ordering(order))


def random_bids(rng, shape):
    """Bids over a few objects; ``conflict-free`` gives each bid its own
    object and ``clique`` puts one shared object in every bid. Prices come
    from a small range with zeros, so values tie, cancel and hit 0."""
    n = rng.randint(1, 18)
    n_objects = rng.randint(2, 8)
    wmax = rng.choice((2, 5, 100, 10**6))
    bids = []
    for i in range(n):
        if shape == "conflict-free":
            objects = {f"o{i}"}
        else:
            objects = {f"o{j}" for j in rng.sample(range(n_objects), rng.randint(1, min(3, n_objects)))}
            if shape == "clique":
                objects.add("hub")
        price = 0 if rng.random() < 0.2 else rng.randint(1, wmax)
        bids.append(Bid(f"b{i:02d}", frozenset(objects), price))
    return bids


@pytest.mark.parametrize("shape", ["random", "conflict-free", "clique"])
def test_plain_solvers_match_reference(shape):
    rng = random.Random(f"plain-{shape}")
    for _ in range(400):
        check(_oriented(rng, random_bids(rng, shape)))


def test_value_zero_nodes_occur():
    """The random cases reach the ``include_zero_value`` branch."""
    rng = random.Random("plain-random")
    zeros = 0
    for _ in range(400):
        _, table = ref_opcost(_oriented(rng, random_bids(rng, "random")))
        zeros += sum(1 for v in table.val.values() if v == 0)
    assert zeros > 50


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_matches_reference(path):
    check(oriented_graph(load_instance(path))[0])
