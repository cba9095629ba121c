"""Oracle for chordality recognition and the rank-space orientation.

``ref_lexbfs_peo``, ``ref_zero_fill_in``, ``ref_orient`` and
``ref_is_perfect_elimination`` are copies of the id-space versions: lex-BFS
ranks the rows into a copy of its own for the zero fill-in test, and
``orient`` ranks them again through a rank dict and an id lookup per node.
On interval and subtree bid sets, on cycles of 4 to 7 bids, on random bid
sets, with ids in ascending order or not, and on graphs of 0 and 1 bids, the
library must give the same ordering, raise the same non-chordality witness,
the same rank-space slices (through ``orient`` and through
``instances.oriented_graph``, which certifies beta <= 1 from lex-BFS's own
test) and the same perfect-elimination verdict on random permutations.
"""

import copy
import random
from array import array

import pytest

from auctol import Bid, Ordering, build_bid_graph, gen_interval, gen_subtrees, instances, orient
from auctol.errors import NotChordalError, ValidationError
from auctol.instances import Instance, OrderingSpec
from auctol.orderings import NotChordal, is_perfect_elimination
from test_orderings import recognized


class _Block:
    __slots__ = ("members", "first", "size", "prev", "next")

    def __init__(self, members):
        self.members = members
        self.first = 0
        self.size = len(members)
        self.prev = None
        self.next = None


def ref_zero_fill_in(ptr, nbr, order):
    n = len(order)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    ranked = [rank[j] for j in nbr]
    parent = list(range(n))
    seen = [-1] * n
    bad = n
    for r, i in enumerate(order):
        row = ranked[ptr[i] : ptr[i + 1]]
        seen[r] = r
        for s in row:
            if s < r:
                seen[s] = r
                if parent[s] == s:
                    parent[s] = r
        for s in row:
            if s < r and seen[parent[s]] != r and s < bad:
                bad = s
    return bad, parent, ranked


def ref_is_perfect_elimination(g, ordering):
    order = list(map(g.index.__getitem__, ordering.order))
    return ref_zero_fill_in(g.ptr, g.nbr, order)[0] == g.n


def ref_lexbfs_peo(g):
    n = g.n
    if n == 0:
        return Ordering([], "chordal")
    by_id = sorted(range(n), key=g.ids.__getitem__)
    name = [0] * n
    for p, i in enumerate(by_id):
        name[i] = p
    ptr, nbr = g.ptr, g.nbr
    named = [name[j] for j in nbr]
    rows = [sorted(named[ptr[i] : ptr[i + 1]]) for i in by_id]
    head = _Block(list(range(n)))
    block_of = [head] * n
    visit_order = []
    while head is not None:
        members, i = head.members, head.first
        while block_of[members[i]] is not head:
            i += 1
        u = members[i]
        head.first = i + 1
        head.size -= 1
        block_of[u] = None
        visit_order.append(u)
        if not head.size:
            head = head.next
            if head is not None:
                head.prev = None
        moved = {}
        for v in rows[u]:
            blk = block_of[v]
            if blk is None:
                continue
            key = id(blk)
            if key not in moved:
                front = _Block([])
                front.prev = blk.prev
                front.next = blk
                if blk.prev is not None:
                    blk.prev.next = front
                else:
                    head = front
                blk.prev = front
                moved[key] = (blk, front)
            front = moved[key][1]
            blk.size -= 1
            front.members.append(v)
            front.size += 1
            block_of[v] = front
        for blk, _front in moved.values():
            if not blk.size:
                blk.prev.next = blk.next
                if blk.next is not None:
                    blk.next.prev = blk.prev
    candidate = [by_id[p] for p in reversed(visit_order)]
    bad, parent, ranked = ref_zero_fill_in(ptr, nbr, candidate)
    if bad == n:
        return Ordering([g.ids[i] for i in candidate], "chordal")
    u, p = candidate[bad], parent[bad]
    near = set(ranked[ptr[candidate[p]] : ptr[candidate[p] + 1]])
    v = next(s for s in ranked[ptr[u] : ptr[u + 1]] if s > bad and s != p and s not in near)
    return NotChordal(node=g.ids[u], a=g.ids[candidate[p]], b=g.ids[candidate[v]])


def ref_orient(g, ordering):
    order, rank = ordering.order, ordering.rank()
    if len(order) != g.n or rank.keys() != g.index.keys():
        raise ValidationError("ordering must be a permutation of exactly the graph's nodes")
    out = copy.copy(g)
    ptr, nbr, index = g.ptr, g.nbr, g.index
    rank_of = [rank[u] for u in g.ids]
    pred_ptr, succ_ptr = array("q", [0]) * (g.n + 1), array("q", [0]) * (g.n + 1)
    pred_idx, succ_idx = array("q", [0]) * g.m, array("q", [0]) * g.m
    p = q = 0
    for r, u in enumerate(order):
        i = index[u]
        for j in nbr[ptr[i] : ptr[i + 1]]:
            s = rank_of[j]
            if s > r:
                succ_idx[q] = s
                q += 1
            else:
                pred_idx[p] = s
                p += 1
        pred_ptr[r + 1], succ_ptr[r + 1] = p, q
    out.ordering, out._rank, out.w = ordering, rank, [g.weights[u] for u in order]
    out.pred_ptr, out.pred_idx, out.succ_ptr, out.succ_idx = pred_ptr, pred_idx, succ_ptr, succ_idx
    return out


def _slices(h):
    return (h.order(), h.rank(), h.w, h.pred_ptr, h.pred_idx, h.succ_ptr, h.succ_idx)


def _renamed(table_bids, rng):
    """The same bids under fresh ids that do not ascend with input order."""
    ids = [f"x{k:04d}" for k in range(len(table_bids))]
    rng.shuffle(ids)
    return [Bid(u, b.objects, b.price) for u, b in zip(ids, table_bids)]


def _cycle(k):
    return [Bid(f"c{i}", frozenset({f"o{i}", f"o{(i + 1) % k}"}), 1 + i) for i in range(k)]


def _random_bids(rng, n, n_objects):
    return [
        Bid(f"r{i:03d}", frozenset(f"o{j}" for j in rng.sample(range(n_objects), rng.randint(1, 3))), rng.randint(0, 50))
        for i in range(n)
    ]


def _cases():
    rng = random.Random(24)
    cases = {"empty": [], "one": [Bid("solo", frozenset({"o"}), 3)]}
    for seed in range(4):
        interval = gen_interval(30 + 20 * seed, seed=seed, include_object_graph=False).bids
        subtrees = gen_subtrees(15 + 5 * seed, 40, seed=seed).bids
        cases[f"interval-{seed}"] = interval
        cases[f"interval-{seed}-renamed"] = _renamed(interval, rng)
        cases[f"subtrees-{seed}"] = subtrees
        cases[f"subtrees-{seed}-renamed"] = _renamed(subtrees, rng)
    for k in range(4, 8):
        cases[f"cycle-{k}"] = _cycle(k)
        cases[f"cycle-{k}-renamed"] = _renamed(_cycle(k), rng)
    for trial in range(12):
        bids = _random_bids(rng, rng.randint(2, 25), rng.randint(2, 12))
        cases[f"random-{trial}"] = bids if trial % 2 else _renamed(bids, rng)
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", list(CASES))
def test_recognition_matches_the_id_space_reference(name):
    bids = CASES[name]
    g = build_bid_graph(bids)
    got, want = recognized(g), ref_lexbfs_peo(g)
    assert type(got) is type(want)
    inst = Instance(bids, None, None, OrderingSpec("chordal"))
    if isinstance(want, NotChordal):
        assert got == want
        with pytest.raises(NotChordalError) as caught:
            instances.oriented_graph(inst)
        assert caught.value.witness == (want.node, want.a, want.b)
        return
    assert got == want
    expected = _slices(ref_orient(g, want))
    assert _slices(orient(g, got)) == expected
    h, bound, method = instances.oriented_graph(inst)
    assert (h.ids, h.ptr, h.nbr, h.weights) == (g.ids, g.ptr, g.nbr, g.weights)
    assert _slices(h) == expected
    assert (bound, method) == instances.beta_bound_info(inst, h.ordering, h) == (1, "perfect-elimination")


@pytest.mark.parametrize("name", list(CASES))
def test_perfect_elimination_verdict_matches_the_reference(name):
    g = build_bid_graph(CASES[name])
    rng = random.Random(name)
    found = recognized(g)
    orderings = [Ordering(rng.sample(g.ids, g.n)) for _ in range(6)]
    orderings += [Ordering(list(reversed(g.ids)))]
    if isinstance(found, Ordering):
        orderings += [Ordering(list(found.order)), Ordering(list(reversed(found.order)))]
    other = orient(g, Ordering(rng.sample(g.ids, g.n)))
    for ordering in orderings:
        want = ref_is_perfect_elimination(g, ordering)
        assert is_perfect_elimination(g, ordering) is want
        assert is_perfect_elimination(other, ordering) is want  # a graph oriented by another ordering
        assert is_perfect_elimination(orient(g, ordering), ordering) is want


# ---------------------------------------------------------------------------
# Visits that split several blocks at once. The library refines on the bid
# graph's own rows, whose entries follow the object cliques rather than the
# ids, and sorts each block a visit creates by id once the visit's row is
# done. ``label_lexbfs`` is lex-BFS by its definition, with no partition: it
# visits the unvisited node with the lexicographically largest label (the
# visit numbers of its visited neighbours, in visit order), the lowest id
# among ties, and counts the blocks each visit splits, one per distinct
# label among the visited node's unvisited neighbours.


def label_lexbfs(g):
    """The visit order (node indices) and the most blocks one visit split."""
    n, ptr, nbr = g.n, g.ptr, g.nbr
    label = [[] for _ in range(n)]
    unvisited = sorted(range(n), key=g.ids.__getitem__)
    visit, most = [], 0
    while unvisited:
        best = max(label[v] for v in unvisited)
        u = next(v for v in unvisited if label[v] == best)
        unvisited.remove(u)
        visit.append(u)
        near = [v for v in nbr[ptr[u] : ptr[u + 1]] if v in unvisited]
        most = max(most, len({tuple(label[v]) for v in near}))
        for v in near:
            label[v].append(n - len(visit))
    return visit, most


def _split_cases():
    """Random bid sets of 6 to 30 bids on 3 to 9 objects, dense enough that
    visits split three or more blocks, and subtree bid sets, all under ids
    out of node order."""
    rng = random.Random(27)
    cases = [_renamed(_random_bids(rng, rng.randint(6, 30), rng.randint(3, 9)), rng) for _ in range(240)]
    cases += [_renamed(gen_subtrees(8 + seed % 12, 30, seed=seed).bids, rng) for seed in range(60)]
    return cases


def test_visits_that_split_several_blocks_match_both_references():
    wide = non_chordal = 0
    for bids in _split_cases():
        g = build_bid_graph(bids)
        assert g.ids != sorted(g.ids)
        visit, most = label_lexbfs(g)
        got, want = recognized(g), ref_lexbfs_peo(g)
        assert got == want
        if isinstance(got, NotChordal):
            non_chordal += 1
            with pytest.raises(NotChordalError) as caught:
                instances.oriented_graph(Instance(bids, None, None, OrderingSpec("chordal")))
            assert caught.value.witness == (want.node, want.a, want.b)
        else:
            assert got.order == [g.ids[i] for i in reversed(visit)]
        wide += most >= 3
    assert wide >= 200 and non_chordal >= 100, (wide, non_chordal)
