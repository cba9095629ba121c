"""Instance files and generators.

An instance bundles everything one winner-determination run needs: bids,
an optional object graph, optional budget constraints, and an ordering
recipe. The on-disk form is canonical JSON (format tag ``auctol/1``): keys
sorted, semantically-free arrays sorted, two-space indent, newline
terminated, so generated files are stable golden-test artifacts and
``save(load(save(x)))`` is a fixpoint. Every file this module writes is byte
for byte ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) +
"\n"`` of the object :func:`instance_to_obj` or ``Solution.to_json_obj``
builds, written from C-encoded columns rather than by ``json``'s pure-Python
indenting encoder.

Generators cover the graph families the solvers are designed around:
intervals (chordal), interval selection with 1-per-bidder groups, subtrees
of a random tree (chordal), subgraphs of k-dimensional grids, the
worst-case star that makes the approximation ratio tight, and a wrapper
that decorates any base family with budget constraints. All randomness
flows from :class:`auctol.rng.SplitMix64` streams, one per generator
stage, so every instance is a pure function of (parameters, seed). Each
generator writes the columns of its :class:`BidTable` directly and takes a
stage's draws in one batch wherever their bounds are known in advance, which
gives the values that one draw at a time gives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, compress, repeat
from json.encoder import encode_basestring
from math import isfinite
from operator import add, itemgetter

from .budgets import KINDS, ConstraintSet, Group
from .errors import EncodingError, SchemaError, UnsupportedOrderingError, ValidationError
from .graphs import (
    Bid,
    BidGraph,
    BidTable,
    ObjectGraph,
    Ordering,
    beta_bound_frontier,
    check_unique_ids,
    frontier_violations,
    orient,
)
from .orderings import (
    TreeDecomposition,
    decreasing_weight_ordering,
    grid_ordering,
    is_perfect_elimination,
    lexbfs_orientation,
    planted_optimal_ordering,
    tree_decomposition_ordering,
    validate_tree_decomposition,
)
from .rng import SplitMix64
from .solvers import Certificate, Solution

FORMAT_TAG = "auctol/1"

ORDERING_METHODS = (
    "chordal",
    "tree-decomposition",
    "grid",
    "decreasing-weight",
    "explicit",
    "planted-optimal",
)


@dataclass
class OrderingSpec:
    method: str
    permutation: list[str] | None = None
    coords: dict[str, tuple[int, ...]] | None = None
    tree_decomposition: TreeDecomposition | None = None
    independent_set: frozenset[str] | None = None
    frontier_sets: dict[str, frozenset[str]] | None = None
    beta_bound: int | None = None


class Instance:
    """Bids, an optional object graph, optional budget constraints and an
    ordering recipe. ``table`` is the one bid form the pipeline reads: a
    :class:`BidTable` given as ``bids`` (interned against ``object_graph``,
    as the loader's is) or a list of :class:`Bid` interned here by
    :meth:`BidTable.from_bids`, which raises ValidationError on a repeated id
    or an undeclared object. ``bids`` is a list of :class:`Bid` made from the
    table on first access and kept; reading it changes nothing else."""

    def __init__(self, bids, object_graph=None, constraints=None, ordering_spec=None, metadata=None):
        self.table: BidTable = bids if isinstance(bids, BidTable) else BidTable.from_bids(bids, object_graph)
        self._bids: list[Bid] | None = None
        self.object_graph: ObjectGraph | None = object_graph
        self.constraints: ConstraintSet | None = constraints
        self.ordering_spec: OrderingSpec | None = ordering_spec
        self.metadata: dict = {} if metadata is None else metadata

    @property
    def bids(self) -> list[Bid]:
        if self._bids is None:
            t = self.table
            self._bids = list(map(Bid, t.ids, t.object_sets(), t.prices, t.groups))
        return self._bids


# ---------------------------------------------------------------------------
# validation

_PRICE_LIMIT = 10**3999  # 4000 digits: fewer than 10**300 lower prices sum within Python's 4300-digit int text limit
_INT_LIMIT = 10**4300  # 4301 digits: past Python's int text limit, so no writer can write it


def _too_long(value) -> bool:
    """Whether ``value`` is an integer of more than 4300 digits."""
    return isinstance(value, int) and abs(value) >= _INT_LIMIT


def _is_metadata_scalar(value) -> bool:
    """A string, an integer that is not a bool or a finite float: the metadata JSON writes and reads back."""
    return isinstance(value, (str, int)) and not isinstance(value, bool) or isinstance(value, float) and isfinite(value)


def validate_instance(inst: Instance) -> None:
    """Full semantic validation; raises ValidationError on the first problem.
    The library runs it only where a file is read (:func:`obj_to_instance`)
    or written (:func:`dumps_instance`)."""
    table, og = inst.table, inst.object_graph
    if bad := [key for key, value in inst.metadata.items() if not _is_metadata_scalar(value)]:
        raise ValidationError(f"metadata {bad[0]!r}: metadata values must be finite scalars")
    if bad := [key for key, value in inst.metadata.items() if _too_long(value)]:
        raise ValidationError(f"metadata {bad[0]!r}: integers must have at most 4300 digits")
    ids = check_unique_ids(table.ids)  # the one id set every rule below reads
    if max(table.prices, default=0) >= _PRICE_LIMIT:
        bad = next(u for u, price in zip(table.ids, table.prices) if price >= _PRICE_LIMIT)
        raise ValidationError(f"bid {bad!r}: price must have fewer than 4000 digits")
    if og is not None:
        bad = table.disconnected(og)  # interning against og has found every object declared
        if bad:
            raise ValidationError(f"bid {bad[0]!r} is not germane (object set disconnected)")
    if inst.constraints is not None:
        cs = inst.constraints
        if bad := [grp.label for grp in cs.groups if _too_long(grp.limit)]:
            raise ValidationError(f"group {bad[0]!r}: limit must have at most 4300 digits")
        if bad := [grp for grp in cs.groups if not ids.issuperset(grp.members)]:
            raise ValidationError(f"group {bad[0].label!r} member {min(bad[0].members - ids)!r} is not a bid")
        if cs.kind in ("unweighted", "weighted"):
            owner: dict[str, str] = {}
            for grp in cs.groups:
                for u in grp.members:
                    if u in owner:
                        # name the first in id order, not in hash order; labels are unique
                        u = min(v for v in grp.members if owner.get(v, grp.label) != grp.label)
                        raise ValidationError(
                            f"bid {u!r} is in groups {owner[u]!r} and {grp.label!r}; "
                            f"{cs.kind} constraints must partition the bids"
                        )
                    owner[u] = grp.label
            for u, group in zip(table.ids, table.groups):
                if u not in owner:
                    raise ValidationError(f"bid {u!r} belongs to no constraint group")
                if group is not None and group != owner[u]:
                    raise ValidationError(f"bid {u!r} declares group {group!r} but is a member of {owner[u]!r}")
    spec = inst.ordering_spec
    if spec is None:
        return
    if spec.method not in ORDERING_METHODS:
        raise ValidationError(f"unknown ordering method {spec.method!r}")
    if spec.method == "explicit":
        if spec.permutation is None:
            raise ValidationError("explicit ordering requires a permutation")
        if len(spec.permutation) != len(ids) or ids != set(spec.permutation):
            raise ValidationError("explicit permutation must be a bijection over the bid ids")
    if spec.method == "grid":
        if spec.coords is None:
            raise ValidationError("grid ordering requires coordinates")
        if ids != spec.coords.keys():
            raise ValidationError("grid coordinates must cover exactly the bid ids")
    if spec.method == "planted-optimal":
        if spec.independent_set is None:
            raise ValidationError("planted-optimal ordering requires an independent set")
        if not ids.issuperset(spec.independent_set):
            raise ValidationError(f"planted set member {min(u for u in spec.independent_set if u not in ids)!r} is not a bid")
    if spec.method == "tree-decomposition":
        if spec.tree_decomposition is None:
            raise ValidationError("tree-decomposition ordering requires an embedded decomposition")
        problems = validate_tree_decomposition(inst.object_graph, spec.tree_decomposition)
        if problems:
            raise ValidationError("invalid tree decomposition: " + "; ".join(problems))
    if spec.coords is not None and (bad := [u for u, vec in spec.coords.items() if any(map(_too_long, vec))]):
        raise ValidationError(f"bid {bad[0]!r}: grid coordinates must have at most 4300 digits")
    if spec.frontier_sets is not None and ids != spec.frontier_sets.keys():
        raise ValidationError("frontier sets must cover exactly the bid ids")
    if spec.beta_bound is not None and spec.beta_bound < 1:
        raise ValidationError("beta bound must be >= 1")
    if _too_long(spec.beta_bound):
        raise ValidationError("beta bound must have at most 4300 digits")


# ---------------------------------------------------------------------------
# JSON encoding
#
# Every file is the text of ``json.dumps(obj, sort_keys=True, indent=2,
# ensure_ascii=False) + "\n"``. With ``indent`` set, ``json`` falls back to its
# pure-Python encoder, one interpreter step per leaf. ``_canonical`` writes the
# same bytes with one call of the C encoder per homogeneous column: a list of
# leaves, a list of leaf-only containers, or one key's values across records
# that share their keys. Each call separates items with ``",\n"`` and padding,
# and its text is cut apart there. This rests on one fact: an encoded leaf
# holds no raw newline, never starts with ``[`` or ``{`` and never ends with
# ``]`` or ``}``. So a raw newline is always a separator, and the separators
# between two containers are the only ones preceded by a closing and followed
# by an opening bracket.

_CONTAINERS = (list, tuple, dict)


@cache
def _encoder(depth: int):
    """The C encoder with items separated by a newline and ``depth`` indents."""
    return json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def _leaf_types(types) -> bool:
    return not any(issubclass(t, _CONTAINERS) for t in types)


def _wrap(opening: str, items, closing: str, depth: int) -> str:
    """``items`` between brackets at nesting level ``depth``, one a line."""
    nl = "\n" + "  " * depth
    return opening + nl + "  " + ("," + nl + "  ").join(items) + nl + closing


def _encode(obj, depth: int) -> str:
    """The indented text of ``obj`` written at nesting level ``depth``."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _encoder(0)(obj)
    if isinstance(obj, dict):
        keys = sorted(obj)
        items = [f"{encode_basestring(k)}: {t}" for k, t in zip(keys, _items([obj[k] for k in keys], depth + 1))]
        return _wrap("{", items, "}", depth)
    return _wrap("[", _items(obj, depth + 1), "]", depth)


def _items(values: list, depth: int) -> list[str]:
    """The texts of the items of the non-empty list ``values``, each written
    at nesting level ``depth``."""
    types = set(map(type, values))
    if _leaf_types(types):
        return _encoder(0)(values)[1:-1].split(",\n")
    if len(types) == 1 and all(values):
        (t,) = types
        inner = chain.from_iterable(map(dict.values, values) if t is dict else values)
        if t in _CONTAINERS and _leaf_types(set(map(type, inner))):
            # leaf-only containers: one call, cut where one closes and the next opens
            text = _encoder(depth + 1)(values)
            opening, closing = text[1], text[-2]
            template = _wrap(opening, ["%s"], closing, depth)
            return [template % part for part in text[2:-2].split(closing + ",\n" + "  " * (depth + 1) + opening)]
        if t is dict and all(map(values[0].keys().__eq__, map(dict.keys, values))):
            # records sharing one key set: one column per key
            keys = sorted(values[0])
            template = _wrap("{", [encode_basestring(k).replace("%", "%%") + ": %s" for k in keys], "}", depth)
            columns = [_items(list(map(itemgetter(k), values)), depth + 1) for k in keys]
            return [template % row for row in zip(*columns)]
    return [_encode(v, depth) for v in values]


def _canonical(obj) -> str:
    return _encode(obj, 0) + "\n"


def instance_to_obj(inst: Instance) -> dict:
    obj: dict = {"format": FORMAT_TAG}
    if inst.metadata:
        obj["metadata"] = dict(inst.metadata)
    if inst.object_graph is not None:
        og = inst.object_graph
        obj["objects"] = sorted(og.objects)
        obj["object_edges"] = sorted([list(e) for e in og.edges])
    table, bids = inst.table, []
    names = table.names
    for i in sorted(range(len(table.ids)), key=table.ids.__getitem__):
        entry = {"id": table.ids[i], "objects": list(map(names.__getitem__, table.rows[i])), "price": table.prices[i]}
        if table.groups[i] is not None:
            entry["group"] = table.groups[i]
        bids.append(entry)
    obj["bids"] = bids
    if inst.constraints is not None:
        cs = inst.constraints
        key = "b" if cs.kind == "weighted" else "k"
        obj["constraints"] = {
            "kind": cs.kind,
            "groups": [
                {"label": grp.label, "members": sorted(grp.members), key: grp.limit}
                for grp in sorted(cs.groups, key=lambda gr: gr.label)
            ],
        }
    if inst.ordering_spec is not None:
        spec = inst.ordering_spec
        sobj: dict = {"method": spec.method}
        if spec.permutation is not None:
            sobj["permutation"] = list(spec.permutation)
        if spec.coords is not None:
            sobj["coords"] = {u: list(v) for u, v in spec.coords.items()}
        if spec.tree_decomposition is not None:
            td = spec.tree_decomposition
            tobj = {
                "tree_nodes": sorted(td.tree_nodes),
                "tree_edges": sorted([sorted(e) for e in td.tree_edges]),
                "bags": {t: sorted(bag) for t, bag in td.bags.items()},
            }
            if td.root is not None:
                tobj["root"] = td.root
            sobj["tree_decomposition"] = tobj
        if spec.independent_set is not None:
            sobj["independent_set"] = sorted(spec.independent_set)
        if spec.frontier_sets is not None:
            sobj["frontier_sets"] = {u: sorted(s) for u, s in spec.frontier_sets.items()}
        if spec.beta_bound is not None:
            sobj["beta_bound"] = spec.beta_bound
        obj["ordering_spec"] = sobj
    return obj


def dumps_instance(inst: Instance) -> str:
    validate_instance(inst)
    return _canonical(instance_to_obj(inst))


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))


def _expect(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise SchemaError(pointer, message)


def _expect_int(value, pointer: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), pointer, "expected an integer")
    return value


def _expect_str(value, pointer: str) -> str:
    _expect(isinstance(value, str), pointer, "expected a string")
    return value


def _expect_list(value, pointer: str) -> list:
    _expect(isinstance(value, list), pointer, "expected an array")
    return value


def _expect_obj(value, pointer: str) -> dict:
    _expect(isinstance(value, dict), pointer, "expected an object")
    return value


# Arrays are checked in bulk, one pass at C speed with no pointer built, and
# the result is built from the checked columns. When a bulk check fails, a
# walk over the elements raises the SchemaError naming the first failing one
# in document order. A bulk check compares exact types, so a subclass (never
# produced by json.loads) takes the walk, which accepts it.


def _only(values, types: set) -> bool:
    """True when the exact type of every value is in ``types``."""
    return set(map(type, values)) <= types


def _column(entries: list[dict], key: str) -> list:
    return list(map(dict.get, entries, repeat(key)))


def _str_list(value, pointer: str) -> list:
    """``value`` as an array of strings."""
    lst = _expect_list(value, pointer)
    if not _only(lst, {str}):
        for i, x in enumerate(lst):
            _expect_str(x, f"{pointer}/{i}")
    return lst


def _str_pairs(value, pointer: str) -> list:
    """``value`` as an array of two-string arrays."""
    lst = _expect_list(value, pointer)
    if not (_only(lst, {list}) and set(map(len, lst)) <= {2} and _only(chain.from_iterable(lst), {str})):
        for i, e in enumerate(lst):
            pair = _expect_list(e, f"{pointer}/{i}")
            _expect(len(pair) == 2, f"{pointer}/{i}", "edge must have two endpoints")
            _expect_str(pair[0], f"{pointer}/{i}/0")
            _expect_str(pair[1], f"{pointer}/{i}/1")
    return lst


def _str_sets(value, pointer: str) -> dict[str, frozenset[str]]:
    """``value`` as an object whose values are arrays of strings, as sets."""
    obj = _expect_obj(value, pointer)
    lists = obj.values()
    if not (_only(lists, {list}) and _only(chain.from_iterable(lists), {str})):
        for key, lst in obj.items():
            _str_list(lst, f"{pointer}/{key}")
    return dict(zip(obj, map(frozenset, lists)))


# The keys each kind of object in an instance file may hold; a count
# constraint's groups hold a limit "k", a weighted one's a limit "b". A key
# outside its table is refused, with its pointer.
_KEYS = {
    "instance": {"format", "metadata", "objects", "object_edges", "bids", "constraints", "ordering_spec"},
    "bid": {"id", "objects", "price", "group"},
    "constraints": {"kind", "groups"},
    "group/k": {"label", "members", "k"},
    "group/b": {"label", "members", "b"},
    "ordering_spec": {"method", "permutation", "coords", "tree_decomposition", "independent_set", "frontier_sets", "beta_bound"},
    "tree_decomposition": {"tree_nodes", "tree_edges", "bags", "root"},
}


def _known_keys(obj: dict, kind: str, pointer: str) -> dict:
    """``obj``, whose keys must all be in the ``kind`` row of :data:`_KEYS`."""
    allowed = _KEYS[kind]
    if not allowed.issuperset(obj):
        key = next(k for k in obj if k not in allowed)
        raise SchemaError(f"{pointer}/{key}", "unknown key")
    return obj


def _load_bids(value, og: ObjectGraph | None) -> tuple[BidTable, set[str]]:
    """The bids, interned against ``og`` (or the names they use), and their id set."""
    entries = _expect_list(value, "/bids")
    if not (_only(entries, {dict}) and _KEYS["bid"].issuperset(chain.from_iterable(entries))):
        _walk_bids(entries, og)
    ids, objs, prices, groups = (_column(entries, key) for key in ("id", "objects", "price", "group"))
    if not (
        _only(ids, {str})
        and all(ids)
        and len(id_set := set(ids)) == len(ids)
        and _only(objs, {list})
        and all(objs)
        and _only(chain.from_iterable(objs), {str})
        and _only(prices, {int})
        and min(prices, default=0) >= 0
        and _only(groups, {str, type(None)})
    ):
        _walk_bids(entries, og)
        id_set = set(ids)
    try:
        return BidTable.from_columns(ids, prices, groups, objs, og), id_set
    except KeyError:  # an undeclared object: the walk names it
        _walk_bids(entries, og)
        raise


def _walk_bids(entries: list, og: ObjectGraph | None) -> None:
    """Raise the SchemaError for the first bid entry :func:`_load_bids` must refuse."""
    seen = set()
    for i, entry in enumerate(entries):
        _known_keys(_expect_obj(entry, f"/bids/{i}"), "bid", f"/bids/{i}")
        bid_id = _expect_str(entry.get("id"), f"/bids/{i}/id")
        _expect(bid_id not in seen, f"/bids/{i}/id", f"duplicate bid id {bid_id!r}")
        seen.add(bid_id)
        objs = _str_list(entry.get("objects"), f"/bids/{i}/objects")
        _expect(objs, f"/bids/{i}/objects", "object set must be non-empty")
        price = _expect_int(entry.get("price"), f"/bids/{i}/price")
        _expect(price >= 0, f"/bids/{i}/price", "price must be >= 0")
        if entry.get("group") is not None:
            _expect_str(entry["group"], f"/bids/{i}/group")
        if og is not None:
            for o in objs:
                _expect(o in og, f"/bids/{i}/objects", f"undeclared object {o!r}")
        _expect(bid_id, f"/bids/{i}/id", "bid id must be a non-empty string")


def _load_groups(value, limit_key: str, ids: set[str]) -> list[Group]:
    gobjs = _expect_list(value, "/constraints/groups")
    if not (_only(gobjs, {dict}) and _KEYS["group/" + limit_key].issuperset(chain.from_iterable(gobjs))):
        _walk_groups(gobjs, limit_key, ids)
    labels, members, limits = (_column(gobjs, key) for key in ("label", "members", limit_key))
    if not (
        _only(labels, {str})
        and _only(members, {list})
        and all(members)
        and _only(chain.from_iterable(members), {str})
        and ids.issuperset(chain.from_iterable(members))
        and _only(limits, {int})
        and min(limits, default=1) >= 1
    ):
        _walk_groups(gobjs, limit_key, ids)
    return list(map(Group, labels, map(frozenset, members), limits))


def _walk_groups(gobjs: list, limit_key: str, ids: set[str]) -> None:
    """Raise the SchemaError for the first group entry :func:`_load_groups` must refuse."""
    for i, gobj in enumerate(gobjs):
        _known_keys(_expect_obj(gobj, f"/constraints/groups/{i}"), "group/" + limit_key, f"/constraints/groups/{i}")
        label = _expect_str(gobj.get("label"), f"/constraints/groups/{i}/label")
        members = _str_list(gobj.get("members"), f"/constraints/groups/{i}/members")
        for j, m in enumerate(members):
            _expect(m in ids, f"/constraints/groups/{i}/members/{j}", f"unknown bid {m!r}")
        _expect(limit_key in gobj, f"/constraints/groups/{i}", f"missing {limit_key!r} limit")
        limit = _expect_int(gobj[limit_key], f"/constraints/groups/{i}/{limit_key}")
        _expect(limit >= 1, f"/constraints/groups/{i}/{limit_key}", "limit must be >= 1")
        _expect(members, f"/constraints/groups/{i}/members", f"group {label!r} has no members")


def obj_to_instance(obj: dict) -> Instance:
    """The instance ``obj``, a parsed instance file, describes; raises
    SchemaError naming the first part of it that is wrong. ``obj`` is not
    changed: ``object_edges`` and ``bids`` are taken out of a shallow copy
    as each is handed to the step that reads it, so when the caller keeps
    no reference to ``obj`` (:func:`load_instance` keeps none) each section
    is freed once read, while the rest is still being built."""
    _expect_obj(obj, "")
    obj = dict(obj)
    _expect(obj.get("format") == FORMAT_TAG, "/format", f"expected {FORMAT_TAG!r}")
    _known_keys(obj, "instance", "")

    metadata = {}
    if "metadata" in obj:
        metadata = _expect_obj(obj["metadata"], "/metadata")
        for k, v in metadata.items():
            _expect(_is_metadata_scalar(v), f"/metadata/{k}", "metadata values must be finite scalars")

    og = None
    _expect(("objects" in obj) == ("object_edges" in obj), "/objects", "objects and object_edges must appear together")
    if "objects" in obj:
        objects = _str_list(obj["objects"], "/objects")
        # an iterator lets go of the edge list once the graph has read it, so
        # the graph can free the parsed pairs before it builds its own
        edges = iter(_str_pairs(obj.pop("object_edges"), "/object_edges"))
        try:
            og = ObjectGraph(objects, edges)
        except ValidationError as exc:
            raise SchemaError("/object_edges", str(exc)) from exc

    table, ids = _load_bids(obj.pop("bids", None), og)

    constraints = None
    if "constraints" in obj:
        cobj = _known_keys(_expect_obj(obj["constraints"], "/constraints"), "constraints", "/constraints")
        kind = _expect_str(cobj.get("kind"), "/constraints/kind")
        _expect(kind in KINDS, "/constraints/kind", f"unknown kind {kind!r}")
        groups = _load_groups(cobj.get("groups"), "b" if kind == "weighted" else "k", ids)
        try:
            constraints = ConstraintSet(kind, groups)
        except ValidationError as exc:
            raise SchemaError("/constraints", str(exc)) from exc

    spec = None
    if "ordering_spec" in obj:
        sobj = _known_keys(_expect_obj(obj["ordering_spec"], "/ordering_spec"), "ordering_spec", "/ordering_spec")
        method = _expect_str(sobj.get("method"), "/ordering_spec/method")
        _expect(method in ORDERING_METHODS, "/ordering_spec/method", f"unknown method {method!r}")
        permutation = list(_str_list(sobj["permutation"], "/ordering_spec/permutation")) if "permutation" in sobj else None
        coords = None
        if "coords" in sobj:
            cmap = _expect_obj(sobj["coords"], "/ordering_spec/coords")
            coords = {}
            for u, vec in cmap.items():
                _expect(u in ids, f"/ordering_spec/coords/{u}", f"unknown bid {u!r}")
                lst = _expect_list(vec, f"/ordering_spec/coords/{u}")
                coords[u] = tuple(_expect_int(x, f"/ordering_spec/coords/{u}/{i}") for i, x in enumerate(lst))
        td = None
        if "tree_decomposition" in sobj:
            tp = "/ordering_spec/tree_decomposition"
            tobj = _known_keys(_expect_obj(sobj["tree_decomposition"], tp), "tree_decomposition", tp)
            tnodes = list(_str_list(tobj.get("tree_nodes"), f"{tp}/tree_nodes"))
            tedges = list(map(tuple, _str_pairs(tobj.get("tree_edges"), f"{tp}/tree_edges")))
            bags = _str_sets(tobj.get("bags"), f"{tp}/bags")
            root = None if tobj.get("root") is None else _expect_str(tobj["root"], f"{tp}/root")
            td = TreeDecomposition(tnodes, tedges, bags, root)
        independent_set = (
            frozenset(_str_list(sobj["independent_set"], "/ordering_spec/independent_set"))
            if "independent_set" in sobj
            else None
        )
        frontier_sets = _str_sets(sobj["frontier_sets"], "/ordering_spec/frontier_sets") if "frontier_sets" in sobj else None
        beta_bound = _expect_int(sobj["beta_bound"], "/ordering_spec/beta_bound") if "beta_bound" in sobj else None
        spec = OrderingSpec(method, permutation, coords, td, independent_set, frontier_sets, beta_bound)

    inst = Instance(table, og, constraints, spec, metadata)
    try:
        validate_instance(inst)
    except ValidationError as exc:
        raise SchemaError("", str(exc)) from exc
    return inst


def _parse_json(text: str):
    """``json.loads(text)``; text that is not JSON, nests too deep or has too long an int is a SchemaError at the root."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise SchemaError("", f"not valid JSON: {exc}") from exc


def _read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, read in one go."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise EncodingError(exc) from exc


def loads_instance(text: str) -> Instance:
    return obj_to_instance(_parse_json(text))


def load_instance(path) -> Instance:
    # no name holds the text or the parsed tree, so each is freed as soon as
    # the next step has what it needs
    return obj_to_instance(_parse_json(_read_text(path)))


def dumps_solution(sol) -> str:
    return _canonical(sol.to_json_obj())


def load_solution(path) -> tuple[Solution, list[str]]:
    """The solution in the file at ``path``, with no certified bound or ratio
    (only ``selected`` is required; ``algorithm``, when given, is a string),
    and its selected ids as listed, so a caller can see an id listed twice."""
    obj = _parse_json(_read_text(path))
    has_selected = isinstance(obj, dict) and isinstance(obj.get("selected"), list)
    _expect(has_selected, "/selected", "solution file needs a selected array")
    selected = [_expect_str(u, f"/selected/{i}") for i, u in enumerate(obj["selected"])]
    revenue = _expect_int(obj.get("revenue", 0), "/revenue")
    certificate = Certificate(_expect_str(obj.get("algorithm", "unknown"), "/algorithm"))
    return Solution(frozenset(selected), revenue, certificate), selected


# ---------------------------------------------------------------------------
# pipeline helpers


def bid_graph(inst: Instance) -> BidGraph:
    return inst.table.graph()


def ordering_from_spec(inst: Instance, g: BidGraph | None) -> Ordering:
    """The ordering an instance declares (decreasing weight when no spec is
    present), built on ``g``, its bid graph, which tree-decomposition and
    grid orderings do not read. Raises NotChordalError when a chordal one was
    demanded but recognition fails; :func:`oriented_graph` checks frontier sets."""
    spec = inst.ordering_spec
    if spec is None or spec.method == "decreasing-weight":
        return decreasing_weight_ordering(g)
    if spec.method == "chordal":
        return lexbfs_orientation(g).ordering
    if spec.method == "tree-decomposition":
        return tree_decomposition_ordering(spec.tree_decomposition, inst.table, inst.object_graph)
    if spec.method == "grid":
        return grid_ordering(spec.coords)
    if spec.method == "planted-optimal":
        return planted_optimal_ordering(g, spec.independent_set)
    return Ordering(list(spec.permutation), "explicit", spec.frontier_sets)


def oriented_graph(inst: Instance) -> tuple[BidGraph, int | None, str | None]:
    """The instance's bid graph oriented by its ordering, and the beta bound
    and check name from the stage that built it: 1 from lex-BFS's zero
    fill-in test, the largest anchor bag from a tree decomposition checked
    against the object graph, else :func:`beta_bound_info` on the graph
    oriented here. Explicit frontier sets that fail, or that leave a bid
    out, raise ValidationError."""
    return _stage(inst, True)


def ordering_bound(inst: Instance) -> tuple[int | None, str | None]:
    """:func:`oriented_graph`'s bound and check name, with no oriented graph:
    none is built for a tree decomposition checked against the object graph,
    and an ordering :func:`orient` refuses certifies no bound, not raising."""
    return _stage(inst, False)[1:]


def _stage(inst: Instance, oriented: bool) -> tuple[BidGraph | None, int | None, str | None]:
    spec = inst.ordering_spec
    method = None if spec is None else spec.method
    if method == "tree-decomposition" and inst.object_graph is not None:
        g = bid_graph(inst) if oriented else None  # the decomposition checks read none
        ordering = ordering_from_spec(inst, g)
        return g and orient(g, ordering), beta_bound_frontier(ordering), "frontier-bound"
    g = bid_graph(inst)
    if method == "chordal":
        return lexbfs_orientation(g), 1, "perfect-elimination"
    ordering = ordering_from_spec(inst, g)
    h = orient(g, ordering) if oriented else g
    bound, how = beta_bound_info(inst, ordering, h)
    if bound is None and method == "explicit" and spec.frontier_sets is not None:  # name the first failing pair
        try:
            a, b = frontier_violations(h, ordering, inst.table.object_sets())[0]
        except UnsupportedOrderingError as exc:  # hand-built sets that leave a bid out
            raise ValidationError(str(exc)) from exc
        raise ValidationError(f"frontier sets fail: {a!r} precedes and meets {b!r}, which misses frontier({a!r})")
    return h, bound, how


def beta_bound_info(inst: Instance, ordering: Ordering, g: BidGraph) -> tuple[int | None, str | None]:
    """Best beta bound certifiable from scratch for this instance and an
    ordering no stage certified (a grid or hand-built one), each resting on
    a check of the ordering against ``g``, the instance's bid graph: beta <= 1
    for a ``chordal`` ordering that passes the zero fill-in test, the largest
    frontier for frontier sets with the frontier property, and the grid
    dimension for a grid ordering of distinct points of one dimension whose
    edges all rise in the coordinate sum. The checks read ``g`` oriented by
    ``ordering``; an ordering :func:`orient` refuses certifies no bound."""
    try:  # orient refuses an ordering that is not a permutation of exactly the bids
        h = orient(g, ordering)
    except ValidationError:
        return None, None
    if ordering.provenance == "chordal" and is_perfect_elimination(h, ordering):
        return 1, "perfect-elimination"
    if ordering.frontier_sets is not None:
        try:
            holds = not frontier_violations(h, ordering, inst.table.object_sets())
        except UnsupportedOrderingError:  # sets that leave a bid out bound nothing
            holds = False
        if holds:
            return beta_bound_frontier(ordering), "frontier-bound"
    if ordering.provenance == "grid" and inst.ordering_spec and inst.ordering_spec.coords:
        # beta <= k holds when the points are distinct and of one dimension k
        # and every edge steps from the earlier node to the later by +1 in
        # one coordinate: each successor slice then sits among the k
        # increasing grid neighbours, one bid at each
        coords = inst.ordering_spec.coords
        at = [tuple(coords[u]) for u in h.order() if u in coords]  # a hand-built spec may hold lists
        if len(at) != h.n or len(set(at)) != len(at) or len(set(map(len, at))) != 1:
            return None, None
        ptr, succ = h.succ_ptr, h.succ_idx
        for r in range(h.n):
            for s in succ[ptr[r] : ptr[r + 1]]:
                step = [b - a for a, b in zip(at[r], at[s])]
                if min(step) < 0 or sum(step) != 1:
                    return None, None
        return len(at[0]), "grid-dimension"
    return None, None


# Approximation ratio each algorithm certifies, as a function of the
# ordering's beta bound and t, the most constraint groups on one bid.
RATIO = {
    **dict.fromkeys(("opcost", "lropcost"), lambda beta, t: beta),
    **dict.fromkeys(("unweighted", "unweighted-lr", "overlapping", "overlapping-lr"), lambda beta, t: beta + t),
    "weighted-light": lambda beta, t: beta + 2,
    "weighted": lambda beta, t: 2 * beta + 3,
    "exact": lambda beta, t: 1,
    "greedy": None,
}


def claimed_ratio(algorithm: str, beta: int | None, cs: ConstraintSet | None) -> Fraction | None:
    """:data:`RATIO` for ``algorithm`` at ``beta``, t being 1 unless ``cs``
    overlaps (a partition has t = 1). An exact answer claims 1 with or
    without a bound; greedy, or a missing bound, claims nothing."""
    if RATIO[algorithm] is None or (beta is None and algorithm != "exact"):
        return None
    return Fraction(RATIO[algorithm](beta, cs.overlap() if cs is not None and cs.kind == "overlapping" else 1))


def certify(sol: Solution, inst: Instance, bound: int | None) -> Solution:
    """Return ``sol`` with its certificate filled in: ``bound``, the beta bound
    :func:`oriented_graph` certified for its ordering, and the ratio
    :func:`claimed_ratio` derives from it."""
    claimed = claimed_ratio(sol.certificate.algorithm, bound, inst.constraints)
    return replace(sol, certificate=replace(sol.certificate, beta_bound=bound, claimed_ratio=claimed))


# ---------------------------------------------------------------------------
# generators
#
# Each generator writes its :class:`BidTable` columns (ids, prices, groups,
# rows of object ids) directly. A stream whose draws have bounds known in
# advance is drawn in one batch; the subtree growth and the overlapping group
# assignment, whose bounds follow earlier draws, draw one at a time. Where
# object names share one zero-padded width, ascending names are ascending
# numbers, so object j is object id j with no interning. The output is valid
# by construction: it is validated once, by dumps_instance, when written.


def _pad(n: int) -> int:
    return len(str(max(n - 1, 1)))


def _weight_bounds(weight_range: tuple[int, int]) -> tuple[int, int]:
    wmin, wmax = weight_range
    if wmin > wmax:
        raise ValidationError(f"weight range is empty: wmin {wmin} > wmax {wmax}")
    return wmin, wmax


def _prices(r_w: SplitMix64, wmin: int, wmax: int, ids: list[str]) -> list[int]:
    """A price in [wmin, wmax] for each of ``ids``; the first bid whose price
    :class:`Bid` would refuse (negative, or not an integer) is refused."""
    prices = [wmin + x for x in r_w.randranges([wmax - wmin + 1] * len(ids))]  # randint draws
    if wmin < 0 or type(wmin) is not int or type(wmax) is not int:
        for u, w in zip(ids, prices):
            Bid(u, frozenset([u]), w)
    return prices


def _ids(prefix: str, n: int) -> list[str]:
    pad = _pad(n)
    return [f"{prefix}{i:0{pad}d}" for i in range(n)]


_ONES = [b"\x01" * (length + 1) for length in range(5)]  # the used marks of a run of length + 1 points


def _interval_table(
    n: int, weight_range: tuple[int, int], rng: SplitMix64, include_object_graph: bool
) -> tuple[BidTable, ObjectGraph | None]:
    """``n`` bids on runs of 2 to 5 consecutive points of a line, and the
    line as an object graph; without the graph, the table holds only the
    points some bid uses."""
    wmin, wmax = _weight_bounds(weight_range)
    r_pos, r_len, r_w = rng.split(), rng.split(), rng.split()
    span = max(4, 2 * n)
    starts = r_pos.randranges([span] * n)
    lengths = [1 + x for x in r_len.randranges([4] * n)]
    ids = _ids("b", n)
    prices = _prices(r_w, wmin, wmax, ids)
    pw = len(str(span + 4))
    points = [f"p{j:0{pw}d}" for j in range(max(map(add, starts, lengths)) + 1)]
    if include_object_graph:
        og = ObjectGraph(points, zip(points, points[1:]))
        names = og.names
    else:
        og = None
        # every point of a run is used, so a run's points stay consecutive
        # once the unused points are dropped
        used = bytearray(len(points))
        for a, length in zip(starts, lengths):
            used[a : a + length + 1] = _ONES[length]
        names = list(compress(points, used))
        first = [0, *accumulate(used)]
        starts = [first[a] for a in starts]
    rows = [list(range(a, a + length + 1)) for a, length in zip(starts, lengths)]
    return BidTable(ids, prices, [None] * n, rows, names), og


def gen_interval(
    n: int,
    weight_range: tuple[int, int] = (1, 1000),
    seed: int = 0,
    include_object_graph: bool = True,
) -> Instance:
    """Random integer intervals over a line of points; chordal ordering."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    table, og = _interval_table(n, weight_range, SplitMix64(seed), include_object_graph)
    return Instance(
        table,
        og,
        None,
        OrderingSpec("chordal"),
        {"family": "interval", "seed": seed, "n": n},
    )


def gen_interval_selection(
    n_groups: int,
    per_group: int,
    seed: int = 0,
    weight_range: tuple[int, int] = (1, 1000),
) -> Instance:
    """Interval bids plus a pick-at-most-one group per bidder.

    The conflict structure is an interval graph overlaid with one clique per
    group, so the composed beta bound is 1 + 1 = 2; solving through the
    k-of-group path instead claims 2 as well.
    """
    if n_groups < 1 or per_group < 1:
        raise ValidationError("n_groups and per_group must be >= 1")
    table, og = _interval_table(n_groups * per_group, weight_range, SplitMix64(seed), True)
    labels = _ids("g", n_groups)
    ids = table.ids
    groups = [Group(label, frozenset(ids[j * per_group : (j + 1) * per_group]), 1) for j, label in enumerate(labels)]
    group_of = [label for label in labels for _ in range(per_group)]
    return Instance(
        BidTable(ids, table.prices, group_of, table.rows, table.names),
        og,
        ConstraintSet("unweighted", groups),
        OrderingSpec("chordal"),
        {"family": "interval-selection", "seed": seed, "n_groups": n_groups, "per_group": per_group},
    )


def gen_subtrees(
    tree_size: int,
    n_bids: int,
    seed: int = 0,
    weight_range: tuple[int, int] = (1, 1000),
) -> Instance:
    """Bids are random connected subtrees of a random tree; chordal."""
    if tree_size < 1 or n_bids < 1:
        raise ValidationError("tree_size and n_bids must be >= 1")
    wmin, wmax = _weight_bounds(weight_range)
    rng = SplitMix64(seed)
    r_tree, r_start, r_size, r_grow, r_w = (rng.split() for _ in range(5))
    nodes = _ids("t", tree_size)
    parents = r_tree.randranges(range(1, tree_size))
    adj: list[list[int]] = [[] for _ in nodes]
    for i, p in enumerate(parents, 1):
        adj[p].append(i)
        adj[i].append(p)
    og = ObjectGraph(nodes, [(nodes[p], nodes[i]) for i, p in enumerate(parents, 1)])

    rows = []
    for start, size in zip(r_start.randranges([tree_size] * n_bids), r_size.randranges([4] * n_bids)):
        chosen = [start]
        inside = {start}
        candidates = sorted(adj[start])
        while len(chosen) <= size and candidates:
            pick = candidates.pop(r_grow.randrange(len(candidates)))
            chosen.append(pick)
            inside.add(pick)
            for nb in sorted(adj[pick]):
                if nb not in inside and nb not in candidates:
                    candidates.append(nb)
        rows.append(sorted(chosen))
    ids = _ids("b", n_bids)
    table = BidTable(ids, _prices(r_w, wmin, wmax, ids), [None] * n_bids, rows, og.names)
    return Instance(
        table,
        og,
        None,
        OrderingSpec("chordal"),
        {"family": "subtrees", "seed": seed, "tree_size": tree_size, "n_bids": n_bids},
    )


def gen_grid(
    dims: tuple[int, ...] = (4, 4),
    density_milli: int = 1000,
    weight_range: tuple[int, int] = (1, 1000),
    seed: int = 0,
) -> Instance:
    """One bid per surviving grid point; conflicts along grid edges.

    Adjacent points share a synthetic edge object, so the conflict graph is
    exactly the induced grid subgraph and the coordinate-sum ordering
    certifies beta <= len(dims).
    """
    if not dims or any(d < 1 for d in dims):
        raise ValidationError("dims must be a non-empty tuple of positive sizes")
    if not 0 <= density_milli <= 1000:
        raise ValidationError("density_milli must be within [0, 1000]")
    wmin, wmax = _weight_bounds(weight_range)
    rng = SplitMix64(seed)
    r_keep, r_w = rng.split(), rng.split()

    points = [()]
    for d in dims:
        points = [p + (x,) for p in points for x in range(d)]
    keep = [p for p, x in zip(points, r_keep.randranges([1000] * len(points))) if x < density_milli]
    if not keep:
        raise ValidationError("density left no grid points; lower dims or raise density")
    kept = set(keep)

    def pname(p):
        return "p" + "_".join(str(x) for x in p)

    def ename(p, q):
        a, b = sorted([p, q])
        return "e" + "_".join(str(x) for x in a) + "__" + "_".join(str(x) for x in b)

    objects = [pname(p) for p in keep]
    og_edges = []
    edge_objs = []
    incident: dict[tuple, list[str]] = {p: [pname(p)] for p in keep}
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

    ids = ["b" + "_".join(str(x) for x in p) for p in keep]
    table = BidTable.from_columns(ids, _prices(r_w, wmin, wmax, ids), [None] * len(keep), list(incident.values()), og)
    return Instance(
        table,
        og,
        None,
        OrderingSpec("grid", coords=dict(zip(ids, keep))),
        {
            "family": "grid",
            "seed": seed,
            "dims": "x".join(str(d) for d in dims),
            "density_milli": density_milli,
        },
    )


def gen_tight(beta: int, epsilon_milli: int, seed: int = 0) -> Instance:
    """Worst-case star: a hub of weight 1000 ordered before ``beta``
    pairwise-independent successors of weight 1000 - epsilon each.

    The solver takes only the hub, so the observed ratio is exactly
    beta * (1000 - epsilon) / 1000.
    """
    if beta < 1:
        raise ValidationError("beta must be >= 1")
    if not 1 <= epsilon_milli <= 999:
        raise ValidationError("epsilon_milli must be within [1, 999]")
    centers = _ids("c", beta)
    og = ObjectGraph(centers, zip(centers, centers[1:]))
    ids = ["a_hub", *_ids("s", beta)]
    rows = [list(range(beta)), *([i] for i in range(beta))]
    table = BidTable(ids, [1000] + [1000 - epsilon_milli] * beta, [None] * (beta + 1), rows, og.names)
    return Instance(
        table,
        og,
        None,
        OrderingSpec("explicit", permutation=list(ids)),
        {"family": "tight", "seed": seed, "beta": beta, "epsilon_milli": epsilon_milli},
    )


# The base families by name, each called as ``fn(params, seed)``: ``auctol
# gen`` runs them directly and :func:`gen_budget` wraps them.
BASE_GENERATORS = {
    "interval": lambda params, seed: gen_interval(
        params.get("n", 12),
        params.get("weight_range", (1, 1000)),
        seed,
        params.get("include_object_graph", True),
    ),
    "subtrees": lambda params, seed: gen_subtrees(
        params.get("tree_size", 10),
        params.get("n_bids", 12),
        seed,
        params.get("weight_range", (1, 1000)),
    ),
    "grid": lambda params, seed: gen_grid(
        params.get("dims", (4, 4)),
        params.get("density_milli", 1000),
        params.get("weight_range", (1, 1000)),
        seed,
    ),
}


def gen_budget(
    base_family: str,
    constraint_kind: str,
    params: dict | None = None,
    seed: int = 0,
) -> Instance:
    """Wrap a base family with randomly assigned budget constraints.

    ``params`` are forwarded to the base generator plus: ``group_size``
    (average bids per group), ``k_max`` (count limits are 1..k_max),
    ``t`` (overlapping: groups per bid is 1..t).
    """
    params = dict(params or {})
    if base_family not in BASE_GENERATORS:
        raise ValidationError(f"unknown base family {base_family!r}")
    if constraint_kind not in KINDS:
        raise ValidationError(f"unknown constraint kind {constraint_kind!r}")
    master = SplitMix64(seed)
    base_seed = master.next_u64()
    base = BASE_GENERATORS[base_family](params, base_seed)

    group_size = max(1, params.get("group_size", 3))
    k_max = max(1, params.get("k_max", 2))
    t = max(1, params.get("t", 2))
    r_assign, r_limit = master.split(), master.split()

    table = base.table
    ids, n = table.ids, len(table.ids)

    if constraint_kind in ("unweighted", "weighted"):
        by_id = sorted(range(n), key=ids.__getitem__)
        r_assign.shuffle(by_id)
        chunks = [by_id[i : i + group_size] for i in range(0, n, group_size)]
        if constraint_kind == "unweighted":
            limits = [1 + x for x in r_limit.randranges([min(k_max, len(chunk)) for chunk in chunks])]
        else:
            prices = table.prices
            weights = [[prices[i] for i in chunk] for chunk in chunks]
            w_max = [max(1, max(w)) for w in weights]  # a budget is >= 1
            limits = list(map(add, w_max, r_limit.randranges([sum(w) // 2 + 1 for w in weights])))
        labels = _ids("g", len(chunks))
        group_of = [None] * n
        for label, chunk in zip(labels, chunks):
            for i in chunk:
                group_of[i] = label
        groups = [
            Group(label, frozenset(map(ids.__getitem__, chunk)), limit) for label, chunk, limit in zip(labels, chunks, limits)
        ]
        table = BidTable(ids, table.prices, group_of, table.rows, table.names)
        cs = ConstraintSet(constraint_kind, groups)
    else:
        n_groups = max(1, (n + group_size - 1) // group_size)
        member_lists: list[list[str]] = [[] for _ in range(n_groups)]
        for u in sorted(ids):
            cnt = 1 + r_assign.randrange(t)
            for gi in r_assign.sample_indices(n_groups, min(cnt, n_groups)):
                member_lists[gi].append(u)
        labels = _ids("g", n_groups)
        used = [j for j in range(n_groups) if member_lists[j]]
        limits = r_limit.randranges([k_max] * len(used))
        cs = ConstraintSet("overlapping", [Group(labels[j], frozenset(member_lists[j]), 1 + x) for j, x in zip(used, limits)])

    metadata = dict(base.metadata)
    metadata.update(
        {
            "family": f"budget-{constraint_kind}",
            "base_family": base_family,
            "seed": seed,
            "group_size": group_size,
        }
    )
    return Instance(table, base.object_graph, cs, base.ordering_spec, metadata)
