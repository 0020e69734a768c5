"""Hypothesis strategy for arbitrary JSON values, shared by the parser fuzz tests."""

from hypothesis import strategies as st

# null, bools, ints, floats with inf/nan, strings, lists, objects
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
