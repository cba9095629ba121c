"""Oracle for the exact searches behind ``exact_mwis``, ``exact_feasible``
and ``beta_exact``.

The references below are copies of three separate branch-and-bound
searches: a maximum-weight independent set that branches on the highest
degree and then fixes ids in ascending order against the optimum (its
result is the lexicographically smallest optimal id list); a depth-first
search over ascending ids, include before exclude, with group limits and a
suffix-sum bound (its result is the first optimum that search reaches); and
a unit-weight independent set on each successor set. The library's three
oracles must return the same revenue, selection and per-node alpha, and the
same ``CapacityError`` message, on random oriented bid sets of 0 to 11
bids with zero prices under all three constraint kinds and none, and on
every golden file.
"""

import random
from pathlib import Path

import pytest

from auctol import (
    Bid,
    BetaReport,
    ConstraintSet,
    Group,
    Ordering,
    beta_exact,
    build_bid_graph,
    exact_feasible,
    exact_mwis,
    load_instance,
    orient,
    oriented_graph,
)
from auctol.errors import CapacityError
from auctol.graphs import check_independent, neighbor_masks
from auctol.solvers import Certificate, Solution

GOLDEN = Path(__file__).resolve().parent / "golden"


def ref_exact_mwis(g, node_cap=30):
    if g.n > node_cap:
        raise CapacityError(f"graph has {g.n} nodes, exact solver capped at {node_cap}")
    ids = sorted(g.ids)
    n = len(ids)
    w = [g.weights[u] for u in ids]
    closed = [mask | 1 << i for i, mask in enumerate(neighbor_masks(g, [g.index[u] for u in ids]))]

    def max_weight(free: int, rem: int, floor: int) -> int:
        best = 0

        def dfs(mask: int, cur: int, rem_sum: int) -> None:
            nonlocal best
            if cur > best:
                best = cur
            if mask == 0 or cur + rem_sum <= max(best, floor):
                return
            pick, deg = -1, -1
            m = mask
            while m:
                low = m & -m
                i = low.bit_length() - 1
                d = (closed[i] & mask).bit_count()
                if d > deg:
                    pick, deg = i, d
                m ^= low
            removed = closed[pick] & mask
            drop = 0
            m = removed
            while m:
                low = m & -m
                drop += w[low.bit_length() - 1]
                m ^= low
            dfs(mask & ~removed, cur + w[pick], rem_sum - drop)
            dfs(mask & ~(1 << pick), cur, rem_sum - w[pick])

        dfs(free, 0, rem)
        return best

    full = (1 << n) - 1
    total = sum(w)
    opt = max_weight(full, total, -1)

    chosen = []
    free = full
    got = 0
    for i in range(n):
        bit = 1 << i
        if not free & bit:
            continue
        with_i = free & ~closed[i]
        rem = sum(w[j] for j in range(n) if with_i & (1 << j))
        need = opt - got - w[i]
        if w[i] + max_weight(with_i, rem, need - 1) + got >= opt:
            chosen.append(ids[i])
            got += w[i]
            free = with_i
        else:
            free &= ~bit

    selected = frozenset(chosen)
    check_independent(g.ptr, g.nbr, [u in selected for u in g.ids], g.ids)
    assert got == opt
    return Solution(selected, opt, Certificate("exact"))


def ref_exact_feasible(g, cs, node_cap=20):
    if g.n > node_cap:
        raise CapacityError(f"graph has {g.n} nodes, feasibility oracle capped at {node_cap}")
    ids = sorted(g.ids)
    n = len(ids)
    pos = {u: i for i, u in enumerate(ids)}
    w = [g.weights[u] for u in ids]
    nbr = neighbor_masks(g, [g.index[u] for u in ids])
    groups = cs.groups if cs is not None else []
    limits = [grp.limit for grp in groups]
    usage = [0] * len(limits)
    groups_of = [[] for _ in range(n)]
    for gi, grp in enumerate(groups):
        for u in grp.members:
            if u in pos:
                groups_of[pos[u]].append(gi)
    weighted = cs is not None and cs.kind == "weighted"

    best_w = 0
    best_set = []
    chosen_mask = 0
    chosen = []
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max(0, w[i])

    def dfs(i: int, cur: int) -> None:
        nonlocal best_w, best_set, chosen_mask
        if cur > best_w:
            best_w = cur
            best_set = list(chosen)
        if i == n or cur + suffix[i] <= best_w:
            return
        ok = not (nbr[i] & chosen_mask)
        if ok:
            for gi in groups_of[i]:
                room = limits[gi] - usage[gi]
                if (weighted and room < w[i]) or (not weighted and room < 1):
                    ok = False
                    break
        if ok:
            for gi in groups_of[i]:
                usage[gi] += w[i] if weighted else 1
            chosen.append(ids[i])
            chosen_mask |= 1 << i
            dfs(i + 1, cur + w[i])
            chosen_mask &= ~(1 << i)
            chosen.pop()
            for gi in groups_of[i]:
                usage[gi] -= w[i] if weighted else 1
        dfs(i + 1, cur)

    dfs(0, 0)
    return best_w, frozenset(best_set)


def ref_beta_exact(g, cap=25):
    rank, succ_ptr, succ_idx = g.rank(), g.succ_ptr, g.succ_idx
    node_of = [g.index[u] for u in g.order()]
    per_node = {}
    for u in g.ids:
        r = rank[u]
        succ = [node_of[s] for s in succ_idx[succ_ptr[r] : succ_ptr[r + 1]]]
        if len(succ) > cap:
            raise CapacityError(
                f"node {u!r} has out-degree {len(succ)} > cap {cap}; "
                "use a frontier or composition bound instead"
            )
        per_node[u] = max(1, ref_alpha(neighbor_masks(g, succ)))
    beta = max(per_node.values(), default=1)
    return BetaReport(beta_graph=beta, per_node=per_node, method="exact-bruteforce")


def ref_alpha(masks):
    k = len(masks)
    if k == 0:
        return 0
    best = 0

    def grow(free: int, size: int) -> None:
        nonlocal best
        if size + free.bit_count() <= best:
            return
        if free == 0:
            best = max(best, size)
            return
        pick, deg = -1, -1
        m = free
        while m:
            low = m & -m
            i = low.bit_length() - 1
            d = (masks[i] & free).bit_count()
            if d > deg:
                pick, deg = i, d
            m ^= low
        grow(free & ~(masks[pick] | (1 << pick)), size + 1)
        grow(free ^ (1 << pick), size)

    grow((1 << k) - 1, 0)
    return best


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except CapacityError as exc:
        return ("CapacityError", str(exc))


def random_graph(rng):
    """0 to 11 bids over 2 to 8 objects, prices in a small range with zeros,
    ids named out of input order, oriented by a shuffled order."""
    n = rng.randint(0, 11)
    n_objects = rng.randint(2, 8)
    wmax = rng.choice((1, 3, 100))
    ids = [f"b{j:02d}" for j in range(n)]
    rng.shuffle(ids)
    bids = []
    for u in ids:
        objects = rng.sample(range(n_objects), rng.randint(1, min(3, n_objects)))
        price = 0 if rng.random() < 0.25 else rng.randint(1, wmax)
        bids.append(Bid(u, frozenset(f"o{j}" for j in objects), price))
    g = build_bid_graph(bids)
    order = list(g.ids)
    rng.shuffle(order)
    return orient(g, Ordering(order))


def random_constraints(rng, g, kind):
    """Groups of ``kind`` over ``g``'s bids: a partition for ``unweighted``
    and ``weighted``, up to 3 groups per bid (some bids in none) for
    ``overlapping``; counts 1 to 3, budgets around the largest price."""
    shuffled = list(g.ids)
    rng.shuffle(shuffled)
    groups = []
    if kind == "overlapping":
        for j in range(rng.randint(0, 4)):
            members = rng.sample(shuffled, rng.randint(1, len(shuffled))) if shuffled else []
            if members:
                groups.append(Group(f"g{j}", frozenset(members), rng.randint(1, 3)))
        return ConstraintSet(kind, groups)
    size = rng.randint(1, 4)
    for j in range(0, len(shuffled), size):
        chunk = shuffled[j : j + size]
        if kind == "weighted":
            top = max(g.weights[u] for u in chunk)
            limit = max(1, rng.randint(top // 2, 2 * top + 1))
        else:
            limit = rng.randint(1, 3)
        groups.append(Group(f"g{j}", frozenset(chunk), limit))
    return ConstraintSet(kind, groups)


def check_same(g, cs_list):
    assert outcome(exact_mwis, g) == outcome(ref_exact_mwis, g)
    assert outcome(exact_mwis, g, node_cap=5) == outcome(ref_exact_mwis, g, node_cap=5)
    for cs in cs_list:
        assert outcome(exact_feasible, g, cs) == outcome(ref_exact_feasible, g, cs)
    assert outcome(exact_feasible, g, None, node_cap=5) == outcome(ref_exact_feasible, g, None, node_cap=5)
    assert outcome(beta_exact, g) == outcome(ref_beta_exact, g)
    assert outcome(beta_exact, g, cap=2) == outcome(ref_beta_exact, g, cap=2)


def test_random_bid_sets_match_reference():
    rng = random.Random(1300)
    for _ in range(600):
        g = random_graph(rng)
        kinds = ("unweighted", "overlapping", "weighted")
        check_same(g, [None, *(random_constraints(rng, g, kind) for kind in kinds)])


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_files_match_reference(path):
    inst = load_instance(path)
    g = oriented_graph(inst)[0]
    check_same(g, [None] if inst.constraints is None else [None, inst.constraints])
