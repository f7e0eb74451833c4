"""`cli._emit` writes exactly what `json.dumps(obj, indent=2)` writes, byte for byte.

The emitter joins a list of only str or only int in C and recurses into
everything else.  Hypothesis (derandomized, so every run sees the same
examples) builds nested dicts, lists and tuples, empty ones included,
strings with quotes, backslashes, control, non-ASCII and astral
characters, ints past 2**64, and lists that mix str with int or bool.
Every verb's JSON output on the 4-point fixture is checked the same way.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

import ultratree.cli as cli
from ultratree.cli import run

TREE = os.path.join(os.path.dirname(__file__), "data", "four_point_tree.json")

text = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r", "é", " ", "\U0001F600", ""]),
)
ints = st.one_of(st.integers(-10, 10), st.integers(-(2 ** 70), 2 ** 70),
                 st.sampled_from([2 ** 64, 2 ** 64 + 1, -(2 ** 64), 10 ** 30]))
scalar = st.one_of(st.none(), st.booleans(), ints, text)
flat = st.one_of(
    st.lists(text), st.lists(ints), st.lists(st.booleans()),
    st.lists(st.one_of(text, ints)), st.lists(st.one_of(text, st.booleans())),
    st.lists(st.one_of(ints, st.booleans())),
)
values = st.recursive(
    st.one_of(scalar, flat),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(text, inner, max_size=4),
        # keys json converts itself: ints, bools and None
        st.dictionaries(st.one_of(text, ints, st.booleans(), st.none()), inner, max_size=3),
    ),
    max_leaves=24,
)


def emitted(obj) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(obj)
    return out.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(values)
def test_emit_is_json_dumps_indent_2(obj):
    assert emitted(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [1], ["x"], [True]],
    {"": [0, -1, 2 ** 64]}, ["a", 1], [1, True], ["a", None], [1.5, 2], [float("nan")],
    {1: "a", "b": [2]}, {"k": ("x", "y")}, "\U0001F600", 2 ** 100, None, False,
])
def test_emit_is_json_dumps_on_edge_cases(obj):
    assert emitted(obj) == json.dumps(obj, indent=2) + "\n"


def test_every_verb_emits_json_dumps_indent_2(tmp_path, capsys, monkeypatch):
    assert run(["reconstruct", TREE]) == 0
    space = tmp_path / "space.json"
    space.write_text(capsys.readouterr().out)
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": ["X", "a", "b"], "covers": [[1, 0], [2, 0]]}))
    points = tmp_path / "points.json"
    points.write_text(json.dumps([0, 1, 2, 3, "1/2"]))
    s = str(space)
    argvs = [["check", s], ["dset", s], ["balls", s], ["tree", s], ["iso", s, s],
             ["weaksim", s, s], ["reconstruct", TREE], ["representable", TREE],
             ["posetcheck", str(poset)], ["roundtrip", s],
             ["padic", "--prime", "2", "--points", str(points)],
             ["bethe", "--prime", "3", "--depth", "2"], ["bethe", "--prime", "2", "--depth", "2", "--sphere"]]
    argvs += [["transform", "--fn", fn, s] for fn in ("bound:3", "unbound:3", "threshold:1", "quantize")]
    seen = []
    emit = cli._emit

    def recorded(obj):
        seen.append(obj)
        emit(obj)

    monkeypatch.setattr(cli, "_emit", recorded)
    for argv in argvs:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == json.dumps(seen[-1], indent=2) + "\n", argv
    assert len(seen) == len(argvs)
