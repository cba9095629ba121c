"""Oracle for the instance generators.

The reference below is a copy of the generators that built a list of
:class:`Bid` per instance and drew every value with one ``SplitMix64`` call,
together with a copy of that generator class. The library's generators must
write byte-identical ``dumps_instance`` text for every family, and for
``gen_budget`` over all three bases and all three kinds, on many seeds and
parameter sets: n = 1, ``wmin == wmax``, a weight range of three values, a
range near 2**63 (so that half the weight draws are rejected), n >= 5000,
and seeds outside [0, 2**64). Parameters the generators refuse must raise
the same error with the same message.
"""

import pytest

from auctol import gen_budget, gen_grid, gen_interval, gen_interval_selection, gen_subtrees, gen_tight
from auctol.budgets import KINDS, ConstraintSet, Group
from auctol.errors import ValidationError
from auctol.graphs import Bid, BidTable, ObjectGraph
from auctol.instances import Instance, OrderingSpec, dumps_instance, validate_instance

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class RefSplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self) -> "RefSplitMix64":
        return RefSplitMix64(self.next_u64())

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, a: int, b: int) -> int:
        if b < a:
            raise ValueError("empty range")
        return a + self.randrange(b - a + 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        repl: dict[int, int] = {}
        out = []
        for i in range(k):
            j = self.randint(i, n - 1)
            out.append(repl.get(j, j))
            repl[j] = repl.get(i, i)
        return out


def _pad(n: int) -> int:
    return len(str(max(n - 1, 1)))


def _weight_bounds(weight_range: tuple[int, int]) -> tuple[int, int]:
    wmin, wmax = weight_range
    if wmin > wmax:
        raise ValidationError(f"weight range is empty: wmin {wmin} > wmax {wmax}")
    return wmin, wmax


def _interval_bids(n, weight_range, rng):
    wmin, wmax = _weight_bounds(weight_range)
    r_pos, r_len, r_w = rng.split(), rng.split(), rng.split()
    span = max(4, 2 * n)
    pw = len(str(span + 4))
    pad = _pad(n)
    bids = []
    hi = 0
    for i in range(n):
        a = r_pos.randrange(span)
        length = 1 + r_len.randrange(4)
        pts = [f"p{j:0{pw}d}" for j in range(a, a + length + 1)]
        hi = max(hi, a + length)
        bids.append(Bid(f"b{i:0{pad}d}", frozenset(pts), r_w.randint(wmin, wmax)))
    return bids, hi, pw


def _interval_object_graph(hi, pw):
    objects = [f"p{j:0{pw}d}" for j in range(hi + 1)]
    edges = [(objects[j], objects[j + 1]) for j in range(hi)]
    return ObjectGraph(objects, edges)


def ref_interval(n, weight_range=(1, 1000), seed=0, include_object_graph=True):
    if n < 1:
        raise ValidationError("n must be >= 1")
    rng = RefSplitMix64(seed)
    bids, hi, pw = _interval_bids(n, weight_range, rng)
    og = _interval_object_graph(hi, pw) if include_object_graph else None
    inst = Instance(bids, og, None, OrderingSpec("chordal"), {"family": "interval", "seed": seed, "n": n})
    validate_instance(inst)
    return inst


def ref_interval_selection(n_groups, per_group, seed=0, weight_range=(1, 1000)):
    if n_groups < 1 or per_group < 1:
        raise ValidationError("n_groups and per_group must be >= 1")
    rng = RefSplitMix64(seed)
    n = n_groups * per_group
    bids, hi, pw = _interval_bids(n, weight_range, rng)
    gpad = _pad(n_groups)
    groups = []
    labeled = []
    for j in range(n_groups):
        label = f"g{j:0{gpad}d}"
        members = [b.id for b in bids[j * per_group : (j + 1) * per_group]]
        groups.append(Group(label, frozenset(members), 1))
        labeled.extend(Bid(b.id, b.objects, b.price, label) for b in bids[j * per_group : (j + 1) * per_group])
    inst = Instance(
        labeled,
        _interval_object_graph(hi, pw),
        ConstraintSet("unweighted", groups),
        OrderingSpec("chordal"),
        {"family": "interval-selection", "seed": seed, "n_groups": n_groups, "per_group": per_group},
    )
    validate_instance(inst)
    return inst


def ref_subtrees(tree_size, n_bids, seed=0, weight_range=(1, 1000)):
    if tree_size < 1 or n_bids < 1:
        raise ValidationError("tree_size and n_bids must be >= 1")
    wmin, wmax = _weight_bounds(weight_range)
    rng = RefSplitMix64(seed)
    r_tree, r_start, r_size, r_grow, r_w = (rng.split() for _ in range(5))
    pad = _pad(tree_size)
    nodes = [f"t{i:0{pad}d}" for i in range(tree_size)]
    edges = []
    adj = {t: [] for t in nodes}
    for i in range(1, tree_size):
        p = r_tree.randrange(i)
        edges.append((nodes[p], nodes[i]))
        adj[nodes[p]].append(nodes[i])
        adj[nodes[i]].append(nodes[p])
    og = ObjectGraph(nodes, edges)

    bpad = _pad(n_bids)
    bids = []
    for i in range(n_bids):
        start = nodes[r_start.randrange(tree_size)]
        target = 1 + r_size.randrange(4)
        chosen = [start]
        inside = {start}
        candidates = sorted(adj[start])
        while len(chosen) < target and candidates:
            pick = candidates.pop(r_grow.randrange(len(candidates)))
            if pick in inside:
                continue
            chosen.append(pick)
            inside.add(pick)
            for nb in sorted(adj[pick]):
                if nb not in inside and nb not in candidates:
                    candidates.append(nb)
        bids.append(Bid(f"b{i:0{bpad}d}", frozenset(chosen), r_w.randint(wmin, wmax)))
    inst = Instance(
        bids,
        og,
        None,
        OrderingSpec("chordal"),
        {"family": "subtrees", "seed": seed, "tree_size": tree_size, "n_bids": n_bids},
    )
    validate_instance(inst)
    return inst


def ref_grid(dims=(4, 4), density_milli=1000, weight_range=(1, 1000), seed=0):
    if not dims or any(d < 1 for d in dims):
        raise ValidationError("dims must be a non-empty tuple of positive sizes")
    if not 0 <= density_milli <= 1000:
        raise ValidationError("density_milli must be within [0, 1000]")
    wmin, wmax = _weight_bounds(weight_range)
    rng = RefSplitMix64(seed)
    r_keep, r_w = rng.split(), rng.split()

    points = [()]
    for d in dims:
        points = [p + (x,) for p in points for x in range(d)]
    keep = [p for p in points if r_keep.randrange(1000) < density_milli]
    kept = set(keep)

    def pname(p):
        return "p" + "_".join(str(x) for x in p)

    def ename(p, q):
        a, b = sorted([p, q])
        return "e" + "_".join(str(x) for x in a) + "__" + "_".join(str(x) for x in b)

    objects = [pname(p) for p in keep]
    og_edges = []
    edge_objs = []
    incident = {p: [] for p in keep}
    for p in keep:
        for axis in range(len(dims)):
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1 :]
            if q in kept:
                e = ename(p, q)
                edge_objs.append(e)
                incident[p].append(e)
                incident[q].append(e)
                og_edges.append((pname(p), e))
                og_edges.append((pname(q), e))
    og = ObjectGraph(objects + edge_objs, og_edges)

    bids = []
    coords = {}
    for p in keep:
        bid_id = "b" + "_".join(str(x) for x in p)
        bids.append(Bid(bid_id, frozenset([pname(p)] + incident[p]), r_w.randint(wmin, wmax)))
        coords[bid_id] = p
    if not bids:
        raise ValidationError("density left no grid points; lower dims or raise density")
    inst = Instance(
        bids,
        og,
        None,
        OrderingSpec("grid", coords=coords),
        {"family": "grid", "seed": seed, "dims": "x".join(str(d) for d in dims), "density_milli": density_milli},
    )
    validate_instance(inst)
    return inst


def ref_tight(beta, epsilon_milli, seed=0):
    if beta < 1:
        raise ValidationError("beta must be >= 1")
    if not 1 <= epsilon_milli <= 999:
        raise ValidationError("epsilon_milli must be within [1, 999]")
    pad = _pad(beta)
    centers = [f"c{i:0{pad}d}" for i in range(beta)]
    og = ObjectGraph(centers, [(centers[i], centers[i + 1]) for i in range(beta - 1)])
    bids = [Bid("a_hub", frozenset(centers), 1000)]
    for i in range(beta):
        bids.append(Bid(f"s{i:0{pad}d}", frozenset([centers[i]]), 1000 - epsilon_milli))
    inst = Instance(
        bids,
        og,
        None,
        OrderingSpec("explicit", permutation=[b.id for b in bids]),
        {"family": "tight", "seed": seed, "beta": beta, "epsilon_milli": epsilon_milli},
    )
    validate_instance(inst)
    return inst


REF_BASES = {
    "interval": lambda params, seed: ref_interval(
        params.get("n", 12),
        params.get("weight_range", (1, 1000)),
        seed,
        params.get("include_object_graph", True),
    ),
    "subtrees": lambda params, seed: ref_subtrees(
        params.get("tree_size", 10),
        params.get("n_bids", 12),
        seed,
        params.get("weight_range", (1, 1000)),
    ),
    "grid": lambda params, seed: ref_grid(
        params.get("dims", (4, 4)),
        params.get("density_milli", 1000),
        params.get("weight_range", (1, 1000)),
        seed,
    ),
}


def ref_budget(base_family, constraint_kind, params=None, seed=0):
    params = dict(params or {})
    if base_family not in REF_BASES:
        raise ValidationError(f"unknown base family {base_family!r}")
    if constraint_kind not in KINDS:
        raise ValidationError(f"unknown constraint kind {constraint_kind!r}")
    master = RefSplitMix64(seed)
    base_seed = master.next_u64()
    base = REF_BASES[base_family](params, base_seed)

    group_size = max(1, params.get("group_size", 3))
    k_max = max(1, params.get("k_max", 2))
    t = max(1, params.get("t", 2))
    r_assign, r_limit = master.split(), master.split()

    table = base.table
    ids = sorted(table.ids)
    n = len(ids)
    weights = dict(zip(table.ids, table.prices))

    if constraint_kind in ("unweighted", "weighted"):
        shuffled = list(ids)
        r_assign.shuffle(shuffled)
        chunks = [shuffled[i : i + group_size] for i in range(0, n, group_size)]
        gpad = _pad(len(chunks))
        groups = []
        label_of = {}
        for j, chunk in enumerate(chunks):
            label = f"g{j:0{gpad}d}"
            if constraint_kind == "unweighted":
                limit = 1 + r_limit.randrange(min(k_max, len(chunk)))
            else:
                w_max = max(1, max(weights[u] for u in chunk))
                w_sum = sum(weights[u] for u in chunk)
                limit = r_limit.randint(w_max, w_max + w_sum // 2)
            groups.append(Group(label, frozenset(chunk), limit))
            for u in chunk:
                label_of[u] = label
        table = BidTable(table.ids, table.prices, list(map(label_of.__getitem__, table.ids)), table.rows, table.names)
        cs = ConstraintSet(constraint_kind, groups)
    else:
        n_groups = max(1, (n + group_size - 1) // group_size)
        gpad = _pad(n_groups)
        member_lists = [[] for _ in range(n_groups)]
        for u in ids:
            cnt = 1 + r_assign.randrange(t)
            for gi in r_assign.sample_indices(n_groups, min(cnt, n_groups)):
                member_lists[gi].append(u)
        groups = []
        for j, members in enumerate(member_lists):
            if not members:
                continue
            limit = 1 + r_limit.randrange(k_max)
            groups.append(Group(f"g{j:0{gpad}d}", frozenset(members), limit))
        cs = ConstraintSet("overlapping", groups)

    metadata = dict(base.metadata)
    metadata.update({"family": f"budget-{constraint_kind}", "base_family": base_family, "seed": seed, "group_size": group_size})
    inst = Instance(table, base.object_graph, cs, base.ordering_spec, metadata)
    validate_instance(inst)
    return inst


def _same(new, ref, *args):
    """Both generators give the same bytes, or the same refusal."""
    try:
        expected = dumps_instance(ref(*args))
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            new(*args)
        assert str(got.value) == str(exc)
        return
    assert dumps_instance(new(*args)) == expected


WEIGHTS = [(1, 1000), (5, 5), (0, 2), (0, 0), (-3, 3), (0, 2**63), (7, 6), (1.0, 4.0)]
SEEDS = [0, 1, 2, 3, 17, 2**64 - 1, 2**64 + 5, -1]
NEAR_TOP = (0, 2**63)  # half of the 64-bit draws fall at or above 2**63 + 1 and are redrawn
# a money budget is drawn from a range as wide as half its group's weight sum,
# and a range wider than 2**64 has no draw to accept, so weighted budgets keep
# their sums below that
WIDE = (0, 2**57)


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12, 50, 333])
def test_interval(n, weights):
    for seed in SEEDS:
        for with_og in (True, False):
            _same(gen_interval, ref_interval, n, weights, seed, with_og)


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (5, 4), (3, 7), (40, 3), (0, 2), (2, 0)])
def test_interval_selection(shape):
    for seed in SEEDS:
        for weights in WEIGHTS:
            _same(gen_interval_selection, ref_interval_selection, *shape, seed, weights)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 3), (3, 1), (10, 12), (50, 200), (7, 40), (0, 3), (3, 0)])
def test_subtrees(shape):
    for seed in SEEDS:
        for weights in WEIGHTS:
            _same(gen_subtrees, ref_subtrees, *shape, seed, weights)


@pytest.mark.parametrize("dims", [(1,), (5,), (4, 4), (1, 6), (3, 3, 3), (7, 5), (2, 2, 2, 2), (), (3, 0)])
@pytest.mark.parametrize("density", [0, 1, 300, 900, 1000, 1001, -1])
def test_grid(dims, density):
    for seed in SEEDS[:5]:
        for weights in WEIGHTS:
            _same(gen_grid, ref_grid, dims, density, weights, seed)


@pytest.mark.parametrize("beta", [0, 1, 2, 3, 12, 101])
def test_tight(beta):
    for eps in (0, 1, 500, 999, 1000):
        for seed in SEEDS[:3]:
            _same(gen_tight, ref_tight, beta, eps, seed)


BASE_PARAMS = {
    "interval": [{"n": 1}, {"n": 2}, {"n": 12}, {"n": 60, "include_object_graph": False}, {"n": 61}],
    "subtrees": [{"tree_size": 1, "n_bids": 1}, {"tree_size": 10, "n_bids": 12}, {"tree_size": 30, "n_bids": 70}],
    "grid": [{"dims": (1,)}, {"dims": (4, 4)}, {"dims": (5, 6), "density_milli": 700}, {"dims": (2, 3, 4)}],
}
BUDGET_PARAMS = [
    {},
    {"group_size": 1, "k_max": 1, "t": 1},
    {"group_size": 2, "k_max": 3, "t": 3},
    {"group_size": 7, "k_max": 5, "t": 4},
    {"group_size": 0, "k_max": 0, "t": 0},
    {"group_size": 100, "k_max": 100, "t": 100},
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("base", sorted(BASE_PARAMS))
def test_budget(base, kind):
    for base_params in BASE_PARAMS[base]:
        for budget_params in BUDGET_PARAMS:
            for weights in ((1, 1000), (5, 5), (0, 2), NEAR_TOP if kind != "weighted" else WIDE):
                params = {**base_params, **budget_params, "weight_range": weights}
                for seed in SEEDS[:4]:
                    _same(gen_budget, ref_budget, base, kind, params, seed)


def test_budget_refusals():
    _same(gen_budget, ref_budget, "line", "unweighted", {}, 0)
    _same(gen_budget, ref_budget, "interval", "exclusive", {}, 0)
    _same(gen_budget, ref_budget, "interval", "unweighted", {"weight_range": (3, 2)}, 0)
    _same(gen_budget, ref_budget, "grid", "weighted", {"density_milli": 0}, 0)


@pytest.mark.parametrize("kind", KINDS)
def test_large(kind):
    """n >= 5000 on every generator that draws per bid."""
    for seed in (0, 9):
        params = {"n": 5000, "weight_range": (1, 1000), "k_max": 3, "t": 3, "include_object_graph": seed == 0}
        _same(gen_budget, ref_budget, "interval", kind, params, seed)
    if kind == "unweighted":
        _same(gen_interval, ref_interval, 6000, (1, 1000), 4, True)
        _same(gen_interval, ref_interval, 5000, NEAR_TOP, 5, False)
        _same(gen_interval_selection, ref_interval_selection, 1700, 3, 6, (0, 2))
    elif kind == "overlapping":
        _same(gen_subtrees, ref_subtrees, 2000, 5000, 7, (1, 1000))
    else:
        _same(gen_grid, ref_grid, (80, 70), 900, (1, 1000), 8)
