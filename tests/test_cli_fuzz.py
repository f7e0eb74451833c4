"""Malformed tree, poset and space JSON through the CLI, in process.

Hypothesis (derandomized, so every run sees the same examples) builds
files with float, bool and string ids or roots, ragged edges and cover
pairs, missing keys and cyclic covers, and matrices that are non-square,
ragged, asymmetric or negative, with duplicate names, float entries or
over-long rationals.  Every verb that reads them must answer within the
exit-code contract: 0 or 1 for a decision, 2 for an input error, never 3
(an internal error) and never an escaped exception.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from ultratree.cli import run

bad_id = st.one_of(
    st.integers(-1, 7),
    st.floats(-1, 6),
    st.booleans(),
    st.sampled_from(["0", "1", "x", ""]),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)
label = st.one_of(
    st.integers(0, 4).map(str),
    st.integers(-1, 4),
    st.sampled_from(["1/2", "1/0", "x", "0.5"]),
    st.floats(0, 4),
    st.booleans(),
)


@st.composite
def tree_json(draw):
    """A rooted tree, monotone or not, with at most one thing broken."""
    n = draw(st.integers(1, 7))
    parent = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = [[parent[v], v] for v in range(1, n)]
    height = [0] * n
    for v in range(n - 1, 0, -1):
        height[parent[v]] = max(height[parent[v]], height[v] + 1)
    labels = ([str(h) for h in height] if draw(st.booleans())
              else draw(st.lists(label, min_size=n, max_size=n)))
    obj = {"root": draw(st.none() | st.integers(0, n - 1)), "labels": labels,
           "edges": edges, "ball_points": None}
    broken = draw(st.sampled_from(["nothing", "edge", "ragged", "root", "key", "shape"]))
    if broken == "edge" and edges:
        edges[draw(st.integers(0, len(edges) - 1))][draw(st.integers(0, 1))] = draw(bad_id)
    elif broken == "ragged" and edges:
        edges[draw(st.integers(0, len(edges) - 1))] = draw(st.lists(st.integers(0, n), max_size=3))
    elif broken == "root":
        obj["root"] = draw(bad_id)
    elif broken == "key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif broken == "shape":
        return draw(st.sampled_from([None, [], "tree", {"labels": 3, "edges": []}]))
    return obj


@st.composite
def poset_json(draw):
    """Cover pairs on a few elements: small ints close cycles often."""
    n = draw(st.integers(1, 6))
    covers = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2),
                           max_size=8))
    broken = draw(st.sampled_from(["nothing", "id", "ragged", "shape"]))
    if broken == "id" and covers:
        covers[draw(st.integers(0, len(covers) - 1))][draw(st.integers(0, 1))] = draw(bad_id)
    elif broken == "ragged":
        covers.append(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    elif broken == "shape":
        return {"elements": draw(st.none() | st.integers(0, 3)), "covers": draw(bad_id)}
    return {"elements": ["e"] * n, "covers": covers}


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=tree_json(), poset=poset_json())
def test_malformed_trees_and_posets_stay_within_the_exit_contract(tmp_path, capsys, tree, poset):
    tree_file, poset_file = tmp_path / "tree.json", tmp_path / "poset.json"
    tree_file.write_text(json.dumps(tree))
    poset_file.write_text(json.dumps(poset))
    for argv in (["reconstruct", str(tree_file)], ["representable", str(tree_file)],
                 ["posetcheck", str(poset_file)]):
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, tree, poset, err)
        assert (code == 2) == err.startswith("error: "), (argv, err)


entry = st.one_of(
    st.integers(-3, 5),
    st.integers(0, 5).map(str),
    st.sampled_from(["1/2", "-1", "1/0", "x", "", "0.5", "1" * 4301, "1/" + "3" * 4301]),
    st.floats(-2, 4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)


@st.composite
def space_json(draw):
    """An ultrametric-looking matrix on a few points with at most one thing broken."""
    n = draw(st.integers(1, 6))
    levels = sorted(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    # d(i, j) = levels[max(i, j)] is ultrametric (the space_from_sequence shape)
    matrix = [[0 if i == j else levels[max(i, j)] for j in range(n)] for i in range(n)]
    points = [f"p{i}" for i in range(n)]
    obj = {"points": points, "matrix": matrix}
    broken = draw(st.sampled_from(["nothing", "perturb", "entry", "symmetric", "ragged",
                                   "square", "names", "long", "key", "shape"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if broken == "perturb" and i != j:   # often a metric that is not ultrametric
        matrix[i][j] = matrix[j][i] = draw(st.integers(1, 12))
    elif broken == "entry":
        matrix[i][j] = draw(entry)
    elif broken == "symmetric":
        matrix[i][j] = matrix[j][i] = draw(entry)
    elif broken == "ragged":
        matrix[i] = matrix[i][:draw(st.integers(0, n))] + draw(st.lists(entry, max_size=2))
    elif broken == "square":
        matrix.append(list(matrix[0]) if draw(st.booleans()) else [])
    elif broken == "names":
        points[i] = points[j] if i != j else draw(entry)
        if draw(st.booleans()):
            points.pop()
    elif broken == "long":
        # HUGE becomes a JSON number past Python's int digit limit
        matrix[i][j] = matrix[j][i] = draw(st.sampled_from(["HUGE", "1/" + "7" * 5000]))
    elif broken == "key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif broken == "shape":
        return draw(st.sampled_from([None, [], "space", {"points": 3, "matrix": [[0]]},
                                     {"points": ["a"], "matrix": [0]}]))
    return obj


SPACE_VERBS = (["check"], ["dset"], ["balls"], ["tree"], ["transform", "--fn", "bound:2"],
               ["transform", "--fn", "quantize"], ["transform", "--fn", "threshold:3"])


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(space=space_json())
def test_malformed_spaces_stay_within_the_exit_contract(tmp_path, capsys, space):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space).replace('"HUGE"', "1" * 4400))
    for verb in SPACE_VERBS:
        code = run(verb + [str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (verb, space, err)
        assert (code == 2) == err.startswith("error: "), (verb, err)
        assert "Traceback" not in err
