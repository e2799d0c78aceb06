"""The JSON encoder against the stdlib's json.dumps(indent=2) on random
nested values.  hypothesis is test-only; without it this module skips."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from contact_tensor.report import render_json

st = hypothesis.strategies


def stdlib(value):
    return json.dumps(value, indent=2) + "\n"


_SCALARS = (st.none() | st.booleans()
            | st.integers(-10 ** 30, 10 ** 30) | st.text())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(st.dictionaries(st.text(), _VALUES, max_size=4))
@hypothesis.example({"": [], "e": {}, "é \U0001f600": "\x00\x1f\"\\",
                     "n": [None, True, False, 0, -1, [[]], [{}]]})
def test_render_json_matches_the_stdlib_on_nested_values(doc):
    assert render_json(doc) == stdlib(doc)
