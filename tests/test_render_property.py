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


# tables: lists of dicts of one shape, int fields and a trailing list of
# str like the report's tables, with keys that may hold "%" and values
# that may be True, which must print as true and not as 1
_KEYS = st.lists(st.sampled_from(["i", "j", "%", "100%", "%d", "%s"])
                 | st.text(), min_size=1, max_size=4, unique=True)
_FIELDS = st.integers(-10 ** 30, 10 ** 30) | st.booleans()
# one row object shared by several dicts, as a report shares its zero row
_ROW = ["0", "0", "1"]
_TABLES = _KEYS.flatmap(lambda keys: st.lists(st.fixed_dictionaries(
    {**{k: _FIELDS for k in keys},
     "components": st.lists(st.sampled_from(["0", "1", "-2", "x/3"])
                            | st.text(), max_size=4)}), max_size=5))


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(st.dictionaries(st.text(), _VALUES | _TABLES, max_size=4))
@hypothesis.example({"t": [{"i": 1, "%": True, "components": _ROW},
                           {"i": True, "%": 1, "components": _ROW},
                           {"i": 2, "%": 3, "components": []}],
                     "u": [{"i": 1, "components": _ROW}, [_ROW], _ROW],
                     "v": [{"i": 1, "j": 2}, {"j": 2, "i": 1}, {}]})
@hypothesis.example({"": [], "e": {}, "é \U0001f600": "\x00\x1f\"\\",
                     "n": [None, True, False, 0, -1, [[]], [{}]]})
def test_render_json_matches_the_stdlib_on_nested_values(doc):
    assert render_json(doc) == stdlib(doc)
