"""Property test of the canonical JSON writer behind every file auctol writes.

``instances._canonical(x)`` must be byte for byte the text of
``json.dumps(x, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"`` for any
JSON tree with string keys. The trees drawn here aim at the places where a
writer that builds the indented layout from compactly encoded pieces could go
wrong: strings and keys holding ``%``, quotes, backslashes, newlines, control
characters, non-ASCII text, ``],`` and ``[``; empty and nested containers;
lists that mix leaves and containers; lists of records whose key sets agree or
differ; columns of leaf-only containers; ``-0.0``, infinities and ints beyond
64 bits.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from auctol.instances import _canonical

TRICKY = ["%", "%s", '"', "\\", "\n", "\r\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "😀", "],", "[", "]", "{", "}", ": ", ",\n  ", " "]

texts = st.lists(st.sampled_from(TRICKY) | st.text(max_size=3), max_size=4).map("".join)

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([0, -1, 2**63, 2**64 + 1, -(2**63) - 1])
    | st.floats(allow_nan=False)
    | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, float("inf"), float("-inf")])
    | texts
)

KEYS = ["id", "objects", "price", "group", "%", "a\nb", '"q"', "],", ""]
keys = st.sampled_from(KEYS) | texts


def records(children):
    """A list of dicts over a small key pool, so key sets often agree."""
    pool = st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True)
    return pool.flatmap(
        lambda ks: st.lists(
            st.one_of(
                st.fixed_dictionaries({k: children for k in ks}),
                st.dictionaries(st.sampled_from(KEYS), children, max_size=4),
            ),
            max_size=6,
        )
    )


def columns(children):
    """A list of containers that often all hold only leaves."""
    leaf_list = st.lists(leaves, min_size=0, max_size=4)
    leaf_dict = st.dictionaries(keys, leaves, max_size=4)
    return st.lists(leaf_list, max_size=6) | st.lists(leaf_dict, max_size=6) | st.lists(leaf_list | leaf_dict | children, max_size=6)


trees = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(keys, children, max_size=6)
    | records(children)
    | columns(children)
    | st.dictionaries(keys, st.lists(leaves, min_size=1, max_size=4), max_size=5),
    max_leaves=40,
)


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trees)
@example([{"%": []}])
@example([{"%": [1]}, {"%": [2]}])
@example([["],"], ["["]])
@example([[1, 2], [], [3]])
@example([{"a": 1}, {"b": 1}])
@example({"bids": [{"id": "b0", "objects": ["p0", "p1"], "price": 3}], "format": "auctol/1"})
@example([[[1]], [[2]]])
@example([(1, 2), [3]])
@example({"k": (1, [2])})
def test_canonical_matches_indented_json(obj):
    assert _canonical(obj) == reference(obj)
