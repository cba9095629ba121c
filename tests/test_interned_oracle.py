"""Oracle for the bid graph and germaneness search in index space.

The references below are copies of the string-keyed implementations: a
holders dict filled from each bid's sorted object names, and a search over
a dict-of-dicts object adjacency. The library's bid graph (through the
loader and through ``build_bid_graph``) must come out with the same
``ids``, ``ptr`` and ``nbr``, and the same bids must fail germaneness, on
the golden corpus and on random bid sets that stress the interning: object
arrays out of order, names repeated inside one bid, no object graph,
one-object bids, a hub object in every bid, and disconnected bids.
"""

import json
import random
from pathlib import Path

from auctol import Bid, ObjectGraph, build_bid_graph, loads_instance
from auctol.errors import SchemaError
from auctol.graphs import BidTable, csr
from auctol.instances import bid_graph

GOLDEN = Path(__file__).parent / "golden"


def reference_bid_graph(bids):
    """(ids, ptr, nbr) of the conflict graph, from a str-keyed holders dict."""
    holders = {}
    for i, (_, objects, _) in enumerate(bids):
        for o in sorted(objects):
            holders.setdefault(o, []).append(i)
    ptr, nbr = csr(len(bids), holders.values())
    return [u for u, _, _ in bids], list(ptr), list(nbr)


def reference_disconnected(objects, edges, object_sets):
    """Positions of the sets that do not induce a connected subgraph."""
    adj = {o: {} for o in objects}
    for a, b in edges:
        adj[a][b] = None
        adj[b][a] = None
    bad = []
    for i, objs in enumerate(object_sets):
        unreached = set(objs)
        stack = [unreached.pop()]
        while stack and unreached:
            for nb in adj[stack.pop()]:
                if nb in unreached:
                    unreached.remove(nb)
                    stack.append(nb)
        if unreached:
            bad.append(i)
    return bad


def _graph_tuple(g):
    return list(g.ids), list(g.ptr), list(g.nbr)


def _check(doc):
    """Compare the library with the references on one instance document."""
    bids = [(b["id"], frozenset(b["objects"]), b["price"]) for b in doc["bids"]]
    want_graph = reference_bid_graph(bids)
    assert _graph_tuple(build_bid_graph([Bid(u, objs, p) for u, objs, p in bids])) == want_graph
    failing = []
    if "objects" in doc:
        edges = [tuple(e) for e in doc["object_edges"]]
        failing = [bids[i][0] for i in reference_disconnected(doc["objects"], edges, [objs for _, objs, _ in bids])]
        og = ObjectGraph(doc["objects"], edges)
        assert BidTable.from_bids([Bid(u, objs, p) for u, objs, p in bids], og).disconnected(og) == failing
    try:
        inst = loads_instance(json.dumps(doc))
    except SchemaError as exc:
        assert failing and str(exc) == f": bid {failing[0]!r} is not germane (object set disconnected)"
        return "disconnected"
    assert not failing
    assert _graph_tuple(bid_graph(inst)) == want_graph
    return "ok"


def _random_doc(rng: random.Random) -> dict:
    n_obj = rng.randint(1, 14)
    # names drawn out of order, so creation order differs from name order
    names = [f"o{k}" for k in rng.sample(range(100), n_obj)]
    shape = rng.choice(("tree", "tree+", "star", "sparse"))
    edges = set()
    if shape == "star":
        for leaf in names[1:]:
            edges.add((names[0], leaf))
    else:
        for i in range(1, n_obj):
            if shape != "sparse" or rng.random() < 0.5:
                edges.add((names[rng.randrange(i)], names[i]))
        if shape == "tree+":
            for _ in range(rng.randrange(n_obj + 1)):
                a, b = rng.sample(names, 2) if n_obj > 1 else (names[0], names[0])
                if a != b and (b, a) not in edges:
                    edges.add((a, b))
    edges = sorted(edges)
    hub = rng.random() < 0.2 and n_obj > 1
    bids = []
    for i in range(rng.randint(1, 24)):
        k = 1 if rng.random() < 0.25 else rng.randint(1, min(5, n_obj))
        objs = rng.sample(names, k)
        if hub and names[0] not in objs:
            objs.append(names[0])
        if rng.random() < 0.3:
            objs.append(rng.choice(objs))  # a repeated name inside one bid
        rng.shuffle(objs)
        bids.append({"id": f"b{rng.randrange(10**6)}x{i}", "objects": objs, "price": rng.randint(0, 50)})
    rng.shuffle(bids)
    doc = {"format": "auctol/1", "bids": bids}
    if rng.random() < 0.8:
        doc["objects"] = list(names)
        doc["object_edges"] = [list(e) if rng.random() < 0.5 else [e[1], e[0]] for e in edges]
    return doc


def test_interned_graph_and_germaneness_match_reference():
    outcomes = []
    for p in sorted(GOLDEN.glob("*.json")):
        assert _check(json.loads(p.read_text())) == "ok", p.name
    for seed in range(900):
        outcomes.append(_check(_random_doc(random.Random(seed))))
    assert outcomes.count("ok") >= 200 and outcomes.count("disconnected") >= 200, (
        outcomes.count("ok"),
        outcomes.count("disconnected"),
    )
