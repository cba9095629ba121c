"""Property tests of the solvers' selection rule, the certified beta bounds
and the command line's exit codes.

* Groupless :func:`auctol.opcost` and :func:`auctol.lropcost` select the
  same set on any ordering, with zero prices and tied prices.
* Every bound :func:`auctol.instances.beta_bound_info` certifies is at least
  :func:`auctol.beta_exact`, on orderings built by hand: any provenance, any
  frontier sets and any grid coordinates.
* So is every bound :func:`auctol.instances.oriented_graph` takes from the
  stage that built the ordering: lex-BFS, a tree decomposition of the object
  graph, or explicit frontier sets checked once.
* ``auctol/1`` documents with several fields wrong at once make
  ``solve``, ``order`` and ``verify`` exit 0, 2, 3, 4 or 5 and never raise.
* A loadable document with one unknown key added to any object whose keys
  the format fixes is refused, naming that key's pointer.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auctol import Bid, Instance, ObjectGraph, Ordering, OrderingSpec, beta_exact, build_bid_graph, lropcost, opcost, orient
from auctol.cli import run
from auctol.errors import NotChordalError, ValidationError
from auctol.instances import beta_bound_info, bid_graph, oriented_graph
from auctol.orderings import min_degree_heuristic_decomposition

OBJECTS = [f"o{j:02d}" for j in range(12)]


@st.composite
def bid_lists(draw, max_bids=10):
    """Up to ``max_bids`` bids, ids not in input order, each on up to 3 of
    the first 2 to 12 objects of :data:`OBJECTS` (so that conflicts range
    from dense to sparse), with prices drawn from a range of 1, 2 or 3
    values so that ties and zero prices are common."""
    n = draw(st.integers(1, max_bids))
    ids = [f"b{p}" for p in draw(st.permutations(range(n)))]
    objects = st.sampled_from(OBJECTS[: draw(st.integers(2, len(OBJECTS)))])
    wmax = draw(st.sampled_from((0, 1, 2)))
    return [Bid(u, frozenset(draw(st.sets(objects, min_size=1, max_size=3))), draw(st.integers(0, wmax))) for u in ids]


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_groupless_opcost_and_lropcost_select_the_same_set(data):
    bids = data.draw(bid_lists(max_bids=14))
    g = build_bid_graph(bids)
    g = orient(g, Ordering(data.draw(st.permutations(g.ids))))
    sol, _table = opcost(g)
    assert sol.selected == lropcost(g).selected


PROVENANCES = ("explicit", "chordal", "grid", "tree-decomposition", "decreasing-weight", "made-up")


def layers(bids):
    """Each bid's distance from the first bid of its component in a
    breadth-first search of the conflict graph, and the ids in search
    order: every edge joins neighbouring layers or one layer, so the
    distances read as grid coordinates that rise by 1 along most edges."""
    g = build_bid_graph(bids)
    depth, order = {}, []
    for root in g.ids:
        if root in depth:
            continue
        depth[root], queue = 0, [root]
        for u in queue:  # grows as the search goes
            for v in g.neighbors(u):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        order += queue
    return depth, order


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_certified_beta_bound_is_at_least_exact_beta(data):
    bids = data.draw(bid_lists())
    if data.draw(st.booleans()):
        # hand-made grid coordinates: the search layers, some vectors with a
        # second coordinate 0, in search order
        depth, order = layers(bids)
        coords = {u: (d,) + (0,) * data.draw(st.integers(0, 1)) for u, d in depth.items()}
        provenance = "grid"
    else:
        vector = st.lists(st.integers(0, 1), min_size=1, max_size=3)
        coords = {b.id: tuple(data.draw(vector)) for b in bids} if data.draw(st.booleans()) else None
        order = data.draw(st.permutations([b.id for b in bids]))
        provenance = data.draw(st.sampled_from(PROVENANCES))
    frontier = None
    if data.draw(st.booleans()):
        frontier = {u: frozenset(data.draw(st.sets(st.sampled_from(OBJECTS), max_size=4))) for u in order}
    inst = Instance(bids, None, None, OrderingSpec("explicit", order, coords, frontier_sets=frontier))
    ordering = Ordering(order, provenance, frontier)

    g = bid_graph(inst)
    bound, method = beta_bound_info(inst, ordering, orient(g, ordering) if data.draw(st.booleans()) else g)
    if bound is not None:
        beta = beta_exact(orient(g, ordering)).beta_graph
        assert beta <= bound, (method, bound, beta)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_stage_beta_bound_is_at_least_exact_beta(data):
    """The object graph joins the objects of each bid and a few drawn pairs
    more, so every bid is germane and its decomposition has bags of many
    sizes. Frontier sets are drawn from each bid's objects and a few others,
    so some pass the check and some fail it."""
    bids = data.draw(bid_lists())
    used = sorted(set().union(*(b.objects for b in bids)))
    pairs = {tuple(sorted(b.objects))[i : i + 2] for b in bids for i in range(len(b.objects) - 1)}
    pairs |= {tuple(sorted(pair)) for pair in data.draw(st.lists(st.tuples(st.sampled_from(used), st.sampled_from(used)), max_size=4))}
    og = ObjectGraph(used, [(a, b) for a, b in pairs if a != b])
    method = data.draw(st.sampled_from(("chordal", "tree-decomposition", "explicit")))
    spec = OrderingSpec(method, data.draw(st.permutations([b.id for b in bids])))
    if method == "tree-decomposition":
        spec.tree_decomposition = min_degree_heuristic_decomposition(og)
    if method == "explicit":
        extra = st.sets(st.sampled_from(used), max_size=2)
        spec.frontier_sets = {b.id: frozenset(data.draw(st.sets(st.sampled_from(sorted(b.objects))))) | data.draw(extra) for b in bids}
    try:
        g, bound, how = oriented_graph(Instance(bids, og, None, spec))
    except NotChordalError:
        assert method == "chordal"
        return
    except ValidationError as exc:
        assert method == "explicit" and str(exc).startswith("frontier sets fail"), exc
        return
    assert bound is not None
    beta = beta_exact(g).beta_graph
    assert beta <= bound, (how, bound, beta)


def _valid_document(draw):
    """A small ``auctol/1`` document that loads: bids on a path of objects,
    the object graph, constraints of a drawn kind and an ordering spec of a
    drawn method."""
    n = draw(st.integers(1, 6))
    objects = OBJECTS[: draw(st.integers(2, 6))]
    bids = []
    for i in range(n):
        lo = draw(st.integers(0, len(objects) - 1))
        hi = draw(st.integers(lo, min(lo + 2, len(objects) - 1)))
        bids.append({"id": f"b{i}", "objects": objects[lo : hi + 1], "price": draw(st.integers(0, 9)), "group": f"g{i % 2}"})
    doc = {
        "format": "auctol/1",
        "metadata": {"family": "fuzz"},
        "objects": objects,
        "object_edges": [[a, b] for a, b in zip(objects, objects[1:])],
        "bids": bids,
    }
    groups = [{"label": f"g{k}", "members": [b["id"] for b in bids[k::2]]} for k in range(min(2, n))]
    kind = draw(st.sampled_from((None, "unweighted", "overlapping", "weighted")))
    if kind is not None:
        for grp in groups:
            grp["b" if kind == "weighted" else "k"] = 9 if kind == "weighted" else 1
        doc["constraints"] = {"kind": kind, "groups": groups}
    method = draw(st.sampled_from((None, "chordal", "explicit", "grid", "decreasing-weight", "planted-optimal")))
    if method is not None:
        ids = [b["id"] for b in bids]
        doc["ordering_spec"] = {
            "method": method,
            "permutation": ids[::-1],
            "coords": {u: [i, 0] for i, u in enumerate(ids)},
            "frontier_sets": {b["id"]: b["objects"] for b in bids},
            "independent_set": ids[:1],
            "beta_bound": 2,
        }
    return doc


def _paths(value, path=()):
    """Every path into ``value``: the keys and indices that lead to each
    value below the root."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.just(10**400),
    st.floats(allow_nan=False),
    st.sampled_from(("", "b0", "b1", "o00", "o11", "x", "auctol/1", "chordal", "weighted")),
    st.lists(st.sampled_from(("b0", "o00", "o01", 0, -1)), max_size=3),
    st.dictionaries(st.sampled_from(("b0", "o00", "k", "label")), st.sampled_from((0, 1, "o00", "b0")), max_size=2),
)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# keys no object of the format allows, and ones that some object allows
EXTRA_KEYS = st.sampled_from(("extra", "permutaton", "k", "b", "id", "kind", "root"))


@st.composite
def broken_documents(draw):
    """A loadable document with two to four of its values replaced by junk
    or by a copy of another of its values or, where they sit in an object,
    removed or joined by a key that may be unknown there."""
    doc = _valid_document(draw)
    for _ in range(draw(st.integers(2, 4))):
        paths = list(_paths(doc))
        *where, key = draw(st.sampled_from(paths))
        parent = _at(doc, where)
        action = draw(st.sampled_from(("replace", "delete", "add-key"))) if isinstance(parent, dict) else "replace"
        if action == "delete":
            del parent[key]
        elif action == "add-key":
            parent.setdefault(draw(EXTRA_KEYS), draw(JUNK))
        else:
            parent[key] = copy.deepcopy(draw(st.one_of(JUNK, st.sampled_from(paths).map(lambda p: _at(doc, p)))))
    return doc


def _fixed_key_objects(doc):
    """The pointer and value of every object in ``doc`` whose keys the
    format fixes: the document, each bid, the constraints and each group,
    the ordering spec and its tree decomposition."""
    yield "", doc
    for i, bid in enumerate(doc["bids"]):
        yield f"/bids/{i}", bid
    if "constraints" in doc:
        yield "/constraints", doc["constraints"]
        for i, grp in enumerate(doc["constraints"]["groups"]):
            yield f"/constraints/groups/{i}", grp
    if "ordering_spec" in doc:
        yield "/ordering_spec", doc["ordering_spec"]
        if "tree_decomposition" in doc["ordering_spec"]:
            yield "/ordering_spec/tree_decomposition", doc["ordering_spec"]["tree_decomposition"]


ARGVS = st.sampled_from(
    [
        ["solve", "--algo", algo, "--constraints", constraints]
        for algo in ("opcost", "lropcost", "greedy", "exact")
        for constraints in ("auto", "ignore")
    ]
    + [["order", "--method", m] for m in ("chordal", "tree-decomposition", "grid", "decreasing-weight")]
    + [["verify"]]
)


@settings(max_examples=200, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(broken_documents(), ARGVS)
def test_broken_documents_exit_with_a_code(tmp_path_factory, doc, argv):
    path = tmp_path_factory.mktemp("doc") / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = path.with_name("out.json")
    argv = argv[:1] + ["--input", str(path)] + argv[1:] + ([] if argv[0] == "verify" else ["--output", str(out)])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3, 4, 5), (argv, doc)


@settings(max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), ARGVS)
def test_an_unknown_key_is_refused_naming_it(tmp_path_factory, data, argv):
    """A key added to an object whose keys the format fixes, where that
    object does not allow it, makes ``solve``, ``order`` and ``verify`` exit 2
    with one schema error naming the key, which ``verify`` writes after the
    file's name; in a group the limit key of the other constraint kind is
    such a key."""
    doc = _valid_document(data.draw)
    if "ordering_spec" in doc and data.draw(st.booleans()):
        doc["ordering_spec"]["tree_decomposition"] = {"tree_nodes": ["t"], "tree_edges": [], "bags": {"t": []}}
    pointer, obj = data.draw(st.sampled_from(list(_fixed_key_objects(doc))))
    key = data.draw(EXTRA_KEYS.filter(lambda k: k not in obj and not (k == "root" and pointer.endswith("decomposition"))))
    obj[key] = data.draw(JUNK)
    path = tmp_path_factory.mktemp("doc") / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = argv[:1] + ["--input", str(path)] + argv[1:] + ([] if argv[0] == "verify" else ["--output", str(path.with_name("out.json"))])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    message = f"{pointer}/{key}: unknown key"
    named = f"inst.json: {message}\n" if argv[0] == "verify" else ""
    want = (2, f"{named}schema error: {message}\n")
    assert (code, err.getvalue()) == want, (argv, doc)
