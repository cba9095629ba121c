"""Oracle for the count-constraint solvers (``unweighted`` and ``overlapping``).

The references below are copies of four separate implementations: a
forward pass and a local-ratio loop for a partition of the bids, and a
forward pass and a local-ratio loop for overlapping groups. The library's
``solve_unweighted``, ``solve_unweighted_lr``, ``solve_overlapping`` and
``solve_overlapping_lr`` must return the same selection, revenue and
certificate algorithm, and ``solve_unweighted`` the same value of every
node (value and type), on random oriented bid sets. The cases cover the
all-``k = 1`` integer path and the ``k > 1`` rational path, t = 1..3,
overlapping bids that sit in no group, and a partition passed as
``overlapping``.
"""

import random
from fractions import Fraction
from itertools import compress

import pytest

from auctol import (
    Bid,
    ConstraintSet,
    Group,
    Ordering,
    build_bid_graph,
    gen_budget,
    oriented_graph,
    orient,
    solve_overlapping,
    solve_overlapping_lr,
    solve_unweighted,
    solve_unweighted_lr,
)
from auctol.budgets import group_index
from auctol.errors import ValidationError
from auctol.graphs import check_independent
from auctol.solvers import Certificate, Solution, ValueTable


def ref_unweighted(g, cs):
    order, w = g.order(), g.w
    pred_ptr, pred_idx = g.pred_ptr, g.pred_idx
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    gx = group_index(g, cs)
    gi_of, k = gx.gidx, gx.limits

    exact_ints = all(x == 1 for x in k)
    zero = 0 if exact_ints else Fraction(0)
    delta = [zero] * len(cs.groups)
    val = [zero] * n
    for i in range(n):
        s = zero
        for j in pred_idx[pred_ptr[i] : pred_ptr[i + 1]]:
            vj = val[j]
            if vj > 0:
                s += vj
        gi = gi_of[i]
        charge = delta[gi] if exact_ints else delta[gi] / k[gi]
        v = w[i] - s - charge
        val[i] = v
        if v > 0:
            delta[gi] += v

    sel = [False] * n
    used = [0] * len(cs.groups)
    for i in range(n - 1, -1, -1):
        if val[i] > 0 and used[gi_of[i]] < k[gi_of[i]]:
            free = True
            for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                if sel[j]:
                    free = False
                    break
            if free:
                sel[i] = True
                used[gi_of[i]] += 1
    check_independent(succ_ptr, succ_idx, sel, order)
    chosen = list(compress(order, sel))
    revenue = sum(compress(w, sel))
    return Solution(frozenset(chosen), revenue, Certificate("unweighted")), ValueTable(order, val)


def ref_unweighted_lr(g, cs):
    order, w = g.order(), g.w
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    gx = group_index(g, cs)
    gi_of, k, members_by_rank = gx.gidx, gx.limits, gx.members_by_rank
    grp_pos = [0] * n
    for ranks in members_by_rank:
        for idx, i in enumerate(ranks):
            grp_pos[i] = idx

    cur = [Fraction(x) for x in w]
    processed = []
    for i in range(n):
        ci = cur[i]
        if ci <= 0:
            continue
        processed.append(i)
        for jj in range(succ_ptr[i], succ_ptr[i + 1]):
            cur[succ_idx[jj]] -= ci
        gi = gi_of[i]
        share = ci / k[gi]
        for j in members_by_rank[gi][grp_pos[i] + 1 :]:
            cur[j] -= share

    sel = [False] * n
    used = [0] * len(cs.groups)
    for i in reversed(processed):
        gi = gi_of[i]
        if used[gi] < k[gi] and not any(sel[succ_idx[jj]] for jj in range(succ_ptr[i], succ_ptr[i + 1])):
            sel[i] = True
            used[gi] += 1
    check_independent(succ_ptr, succ_idx, sel, order)
    chosen = [order[i] for i in processed if sel[i]]
    revenue = sum(w[i] for i in processed if sel[i])
    return Solution(frozenset(chosen), revenue, Certificate("unweighted-lr"))


def ref_overlapping(g, cs):
    order, w = g.order(), g.w
    pred_ptr, pred_idx = g.pred_ptr, g.pred_idx
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    gptr, gidx, k, _members = group_index(g, cs)

    exact_ints = all(x == 1 for x in k)
    zero = 0 if exact_ints else Fraction(0)
    delta = [zero] * len(cs.groups)
    val = [zero] * n
    for i in range(n):
        s = zero
        for j in pred_idx[pred_ptr[i] : pred_ptr[i + 1]]:
            vj = val[j]
            if vj > 0:
                s += vj
        charge = zero
        for gi in gidx[gptr[i] : gptr[i + 1]]:
            charge += delta[gi] if exact_ints else delta[gi] / k[gi]
        v = w[i] - s - charge
        val[i] = v
        if v > 0:
            for gi in gidx[gptr[i] : gptr[i + 1]]:
                delta[gi] += v

    sel = [False] * n
    used = [0] * len(cs.groups)
    for i in range(n - 1, -1, -1):
        if val[i] <= 0:
            continue
        free = True
        for gi in gidx[gptr[i] : gptr[i + 1]]:
            if used[gi] >= k[gi]:
                free = False
                break
        if free:
            for j in succ_idx[succ_ptr[i] : succ_ptr[i + 1]]:
                if sel[j]:
                    free = False
                    break
        if free:
            sel[i] = True
            for gi in gidx[gptr[i] : gptr[i + 1]]:
                used[gi] += 1
    check_independent(succ_ptr, succ_idx, sel, order)
    chosen = list(compress(order, sel))
    revenue = sum(compress(w, sel))
    return Solution(frozenset(chosen), revenue, Certificate("overlapping"))


def ref_overlapping_lr(g, cs):
    order, w = g.order(), g.w
    succ_ptr, succ_idx = g.succ_ptr, g.succ_idx
    n = len(order)
    gptr, gidx, k, members_by_rank = group_index(g, cs)

    cur = [Fraction(x) for x in w]
    processed = []
    for i in range(n):
        ci = cur[i]
        if ci <= 0:
            continue
        processed.append(i)
        for jj in range(succ_ptr[i], succ_ptr[i + 1]):
            cur[succ_idx[jj]] -= ci
        for gi in gidx[gptr[i] : gptr[i + 1]]:
            share = ci / k[gi]
            for j in members_by_rank[gi]:
                if j > i:
                    cur[j] -= share

    sel = [False] * n
    used = [0] * len(cs.groups)
    for i in reversed(processed):
        if all(used[gi] < k[gi] for gi in gidx[gptr[i] : gptr[i + 1]]) and not any(
            sel[succ_idx[jj]] for jj in range(succ_ptr[i], succ_ptr[i + 1])
        ):
            sel[i] = True
            for gi in gidx[gptr[i] : gptr[i + 1]]:
                used[gi] += 1
    check_independent(succ_ptr, succ_idx, sel, order)
    chosen = [order[i] for i in processed if sel[i]]
    revenue = sum(w[i] for i in processed if sel[i])
    return Solution(frozenset(chosen), revenue, Certificate("overlapping-lr"))


def random_graph(rng):
    """A random bid set over a few objects, oriented by a shuffled order.
    Some cases use a small price range, so that values tie and cancel."""
    n = rng.randint(1, 18)
    n_objects = rng.randint(2, 8)
    wmax = rng.choice((3, 100, 10**6))
    bids = []
    for i in range(n):
        objects = rng.sample(range(n_objects), rng.randint(1, min(3, n_objects)))
        bids.append(Bid(f"b{i:02d}", frozenset(f"o{j}" for j in objects), rng.randint(1, wmax)))
    g = build_bid_graph(bids)
    order = list(g.ids)
    rng.shuffle(order)
    return orient(g, Ordering(order))


def random_partition(rng, ids, k_max):
    shuffled = list(ids)
    rng.shuffle(shuffled)
    size = rng.randint(1, 5)
    chunks = [shuffled[i : i + size] for i in range(0, len(shuffled), size)]
    return [Group(f"g{j}", frozenset(c), rng.randint(1, min(k_max, len(c)))) for j, c in enumerate(chunks)]


def random_overlap(rng, ids, k_max, t, p_none):
    """Groups with each bid in 1..t of them, or with probability ``p_none``
    in none."""
    n_groups = rng.randint(1, max(1, len(ids) // 2))
    members = [set() for _ in range(n_groups)]
    for u in ids:
        if rng.random() < p_none:
            continue
        for gi in rng.sample(range(n_groups), min(n_groups, rng.randint(1, t))):
            members[gi].add(u)
    return [Group(f"g{j}", frozenset(m), rng.randint(1, k_max)) for j, m in enumerate(members) if m]


def same_solution(got, want):
    assert got.selected == want.selected
    assert got.revenue == want.revenue
    assert got.certificate.algorithm == want.certificate.algorithm


def check_unweighted(g, cs):
    sol, table = solve_unweighted(g, cs)
    want, want_table = ref_unweighted(g, cs)
    same_solution(sol, want)
    assert table.val == want_table.val
    assert [type(v) for v in table.val.values()] == [type(v) for v in want_table.val.values()]
    same_solution(solve_unweighted_lr(g, cs), ref_unweighted_lr(g, cs))


def check_overlapping(g, cs):
    same_solution(solve_overlapping(g, cs), ref_overlapping(g, cs))
    same_solution(solve_overlapping_lr(g, cs), ref_overlapping_lr(g, cs))


@pytest.mark.parametrize("k_max", [1, 3])
def test_partition_matches_reference(k_max):
    rng = random.Random(8000 + k_max)
    for _ in range(300):
        g = random_graph(rng)
        check_unweighted(g, ConstraintSet("unweighted", random_partition(rng, g.ids, k_max)))


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("k_max", [1, 3])
def test_overlapping_matches_reference(t, k_max):
    rng = random.Random(9000 + 10 * t + k_max)
    for case in range(200):
        g = random_graph(rng)
        groups = random_overlap(rng, g.ids, k_max, t, p_none=(0.0, 0.3)[case % 2])
        if not groups:
            continue
        cs = ConstraintSet("overlapping", groups)
        assert cs.overlap() <= t
        check_overlapping(g, cs)


@pytest.mark.parametrize("k_max", [1, 3])
def test_partition_as_overlapping_matches_reference(k_max):
    rng = random.Random(7000 + k_max)
    for _ in range(200):
        g = random_graph(rng)
        check_overlapping(g, ConstraintSet("overlapping", random_partition(rng, g.ids, k_max)))


@pytest.mark.parametrize("kind", ["unweighted", "overlapping"])
@pytest.mark.parametrize("k_max", [1, 3])
def test_generated_instances_match_reference(kind, k_max):
    for seed in range(3):
        params = {"n": 400, "group_size": 4, "k_max": k_max, "t": 3, "include_object_graph": False}
        inst = gen_budget("interval", kind, params, seed)
        g = oriented_graph(inst)[0]
        (check_unweighted if kind == "unweighted" else check_overlapping)(g, inst.constraints)


def test_kind_checks():
    g = random_graph(random.Random(1))
    part = ConstraintSet("unweighted", [Group("g", frozenset(g.ids), 1)])
    over = ConstraintSet("overlapping", [Group("g", frozenset(g.ids), 1)])
    for fn in (solve_unweighted, solve_unweighted_lr):
        with pytest.raises(ValidationError, match=r"^expected unweighted constraints, got 'overlapping'$"):
            fn(g, over)
    for fn in (solve_overlapping, solve_overlapping_lr):
        with pytest.raises(ValidationError, match=r"^expected overlapping constraints, got 'unweighted'$"):
            fn(g, part)
    assert isinstance(solve_unweighted(g, part), tuple)
    assert isinstance(solve_overlapping(g, over), Solution)
