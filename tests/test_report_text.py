"""report.json's encoder against the two-step path it replaced: a strict-JSON
copy of the report (tuples as lists, non-finite floats as strings), then
``json.dumps(indent=2, sort_keys=True)``.  Every value the old path writes
gets the same bytes, and every value it refuses raises the same TypeError."""

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
NUMPY = st.sampled_from([np.float64(math.inf), np.float64(-math.inf), np.float64(math.nan),
                         np.float64(0.1), np.float64(-0.0), np.float32(math.inf),
                         np.float32(-math.inf), np.float32(math.nan)])
# every code point, surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), FLOATS, NUMPY)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(TEXT, inner, max_size=5),
    st.dictionaries(st.one_of(st.integers(), FLOATS, st.booleans()), inner, max_size=3)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_report_text_matches_json_dumps(obj):
    assert _outcome(cli._report_text, obj) == _outcome(_old_text, obj)


class _Count(enum.IntEnum):
    TWO = 2


class _Float(float):
    pass


class _Text(str):
    pass


_Pair = collections.namedtuple("_Pair", "a b")

ACCEPTED = {
    "empty containers": {"a": {}, "b": [], "c": (), "d": [{}, [], ()]},
    "subclasses": [_Count.TWO, _Float(1.5), _Float("inf"), _Text("é\n"),
                   collections.OrderedDict(b=1, a=2), _Pair(1.0, (2, 3))],
    "numpy floats": [np.float64(0.1), np.float64(-0.0), np.float16("-inf"), np.float32("nan"),
                     np.longdouble("inf")],
    "other keys": {1: "int", 2.5: "float", True: "bool"},
    "non-finite and numpy keys": {math.inf: 0, -math.inf: 1, np.float64(0.5): 2},
    "none key": {None: "null"},
    "deep": [{"x": (1.0, -math.inf)}],
    "scalar at the top": math.nan,
    "text at the top": "line\tbreak ",
}


for _ in range(150):  # 300 nested containers
    ACCEPTED["deep"] = [{"y": ACCEPTED["deep"]}]


@pytest.mark.parametrize("obj", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_report_text_accepts_what_json_dumps_accepts(obj):
    assert cli._report_text(obj) == _old_text(obj)


REFUSED = {
    "numpy int": np.int64(1),
    "numpy bool": np.bool_(True),
    "finite numpy float32": np.float32(1.5),
    "finite longdouble": np.longdouble(1.5),
    "set": {1, 2},
    "bytes": b"x",
    "complex": 1j,
    "object": object(),
    "array": np.array([1.0]),
    "nested numpy int": {"a": [1, {"b": np.int64(3)}]},
    "tuple key": {(1, 2): 1},
    "float32 key": {np.float32(0.5): 1},
    "unsortable keys": {"a": 1, None: 2},
}


@pytest.mark.parametrize("obj", REFUSED.values(), ids=REFUSED.keys())
def test_report_text_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError):
        _old_text(obj)
    assert _outcome(cli._report_text, obj) == _outcome(_old_text, obj)


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
