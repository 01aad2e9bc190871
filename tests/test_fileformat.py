import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from lamptwist import fileformat


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


texts = st.text(st.sampled_from('a Z"\\/\x00\x08\x1f\x7f\xe9 €\U0001f600')) | st.text()
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | texts
)
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(trees)
@example({"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": {"g": {}}}})
@example([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -(2**100), True, False, None])
@example({"é": '"q"', "\x00": "\x1f\\", "": ""})
def test_dumps_matches_stdlib_layout(obj):
    assert fileformat.dumps(obj) == stdlib(obj)


def test_non_str_keys_match_stdlib():
    obj = {"a": {2: [1], 1: {}, 10: "x"}, "b": [{1.5: None, True: 0}]}
    assert fileformat.dumps(obj) == stdlib(obj)


def test_unsupported_type_raises_like_stdlib():
    for obj in ({1, 2}, {"a": [{"b": {3}}]}):
        with pytest.raises(TypeError):
            stdlib(obj)
        with pytest.raises(TypeError):
            fileformat.dumps(obj)
