"""report.json's encoder against the two-step path it replaced: a strict-JSON
copy of the report (tuples as lists, non-finite floats as strings), then
``json.dumps(indent=2, sort_keys=True)``.  Every value of the types a report
holds (dicts with str keys, lists, tuples, and str, int, bool, None, float and
numpy float64 scalars) gets the same bytes; every other key or value raises a
TypeError that names its type, also where json.dumps would write it."""

import collections
import enum
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resodyn.cli as cli

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").iterdir())


def _sanitize(obj):
    """The former strict-JSON copy of a report."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def _old_text(obj) -> str:
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n"


def _outcome(encode, obj):
    """The text, or the type and message of the TypeError raised."""
    try:
        return encode(obj)
    except TypeError as exc:
        return TypeError, str(exc)


FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]))
# every code point, surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), FLOATS,
                    FLOATS.map(np.float64))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(TEXT, inner, max_size=5)), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_report_text_matches_json_dumps(obj):
    assert cli._report_text(obj) == _old_text(obj)


class _Count(enum.IntEnum):
    TWO = 2


class _Float(float):
    pass


class _Text(str):
    pass


_Pair = collections.namedtuple("_Pair", "a b")

ACCEPTED = {
    "empty containers": {"a": {}, "b": [], "c": (), "d": [{}, [], ()]},
    "subclasses": [collections.OrderedDict(b=1, a=2), _Pair(1.0, (2, 3))],
    "numpy floats": [np.float64(0.1), np.float64(-0.0), np.float64("-inf"), np.float64("nan"),
                     np.float64("inf")],
    "deep": [{"x": (1.0, -math.inf)}],
    "scalar at the top": math.nan,
    "text at the top": "line\tbreak ",
}


for _ in range(150):  # 300 nested containers
    ACCEPTED["deep"] = [{"y": ACCEPTED["deep"]}]


@pytest.mark.parametrize("obj", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_report_text_accepts_what_json_dumps_accepts(obj):
    assert cli._report_text(obj) == _old_text(obj)


def _value(name):
    return f"Object of type {name} is not JSON serializable"


def _key(name):
    return f"keys must be str, not {name}"


# (object, the TypeError's message): what json.dumps refuses too
REFUSED = {
    "numpy int": (np.int64(1), _value("int64")),
    "numpy bool": (np.bool_(True), _value("bool")),
    "finite numpy float32": (np.float32(1.5), _value("float32")),
    "finite longdouble": (np.longdouble(1.5), _value("longdouble")),
    "set": ({1, 2}, _value("set")),
    "bytes": (b"x", _value("bytes")),
    "complex": (1j, _value("complex")),
    "object": (object(), _value("object")),
    "array": (np.array([1.0]), _value("ndarray")),
    "nested numpy int": ({"a": [1, {"b": np.int64(3)}]}, _value("int64")),
    "tuple key": ({(1, 2): 1}, _key("tuple")),
    "float32 key": ({np.float32(0.5): 1}, _key("float32")),
    # sorting the items fails before any key is read
    "unsortable keys": ({"a": 1, None: 2},
                        "'<' not supported between instances of 'NoneType' and 'str'"),
}


@pytest.mark.parametrize("obj,message", REFUSED.values(), ids=REFUSED.keys())
def test_report_text_refuses_what_json_dumps_refuses(obj, message):
    with pytest.raises(TypeError):
        _old_text(obj)
    assert _outcome(cli._report_text, obj) == (TypeError, message)


# (object, the TypeError's message): what json.dumps writes but no report
# holds, a scalar or key of another type than those of cli._LEAVES
NOT_HELD = {
    "int enum": ([_Count.TWO], _value("_Count")),
    "float subclass": ([1.0, _Float(1.5)], _value("_Float")),
    "non-finite float subclass": (_Float("inf"), _value("_Float")),
    "str subclass": ({"a": _Text("é\n")}, _value("_Text")),
    "non-finite float16": (np.float16("-inf"), _value("float16")),
    "non-finite float32": ([np.float32("nan")], _value("float32")),
    "non-finite longdouble": ((np.longdouble("inf"),), _value("longdouble")),
    "int key": ({1: "int"}, _key("int")),
    "float key": ({2.5: "float"}, _key("float")),
    "non-finite key": ({math.inf: 0, -math.inf: 1}, _key("float")),
    "bool key": ({True: "bool"}, _key("bool")),
    "none key": ({None: "null"}, _key("NoneType")),
    "float64 key": ({np.float64(0.5): 2}, _key("float64")),
    "nested key": ({"a": [{"b": {1: 2}}]}, _key("int")),
}


@pytest.mark.parametrize("obj,message", NOT_HELD.values(), ids=NOT_HELD.keys())
def test_report_text_refuses_what_no_report_holds(obj, message):
    _old_text(obj)
    assert _outcome(cli._report_text, obj) == (TypeError, message)


@pytest.mark.parametrize("config", CONFIGS, ids=[c.name for c in CONFIGS])
def test_full_reports_match_json_dumps(tmp_path, monkeypatch, config):
    reports, encode = [], cli._report_text

    def recorded(report):
        reports.append(report)
        return encode(report)

    monkeypatch.setattr(cli, "_report_text", recorded)
    assert cli.run_subcommand("full", config, out_dir=tmp_path, write_csv=False) == 0
    (report,) = reports
    assert (tmp_path / "report.json").read_text() == _old_text(report)
