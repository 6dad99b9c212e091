"""The input boundary: field tables, a one-leaf fuzz of every input file,
and a guard that keeps typed reads of parsed JSON inside ``inputs``."""

import ast
import contextlib
import io
import json
import math
import pathlib
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwplan import (
    ChannelParams,
    McConfig,
    PlacedAp,
    VenueFormatError,
    generate_venue,
    inputs,
)
from mmwplan.cli import main
from mmwplan.solver import GpCoverage
from mmwplan.venue import BodyPrism, CandidateLocation, GridPosition, Venue

SRC = sorted((pathlib.Path(__file__).resolve().parent.parent / "src"
              / "mmwplan").glob("*.py"))

# values of no field's type, and values of a number field's type
MALFORMED = (math.nan, math.inf, -math.inf, True, None, "x", [], {})
IN_TYPE = (-1, 0, 1e30)
# fields that also take null
OPTIONAL = ("beta", "owner")


def _leaves(node, path=()):
    """(path, value) of every scalar in a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _path_text(path):
    text = ""
    for step in path:
        text += f"[{step}]" if isinstance(step, int) else f".{step}"
    return text.lstrip(".")


def _json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return (int, float) if isinstance(value, (int, float)) else type(value)


def _malformed(path, old, new):
    """Whether no file accepts ``new`` where ``old`` stood."""
    if isinstance(new, float) and not math.isfinite(new):
        return True
    if new is None and path[-1] in OPTIONAL:
        return False
    return _json_type(new) != _json_type(old)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {k: str(root / f"{k}.json") for k in ("venue", "params", "dep")}
    generate_venue("toy").save(paths["venue"])
    with open(paths["params"], "w") as fh:
        json.dump(ChannelParams().to_dict(), fh)
    assert main(["plan", "--venue", paths["venue"], "--alpha", "0.9",
                 "--beta", "0.7", "--out", paths["dep"]]) == 0
    paths["bad"] = str(root / "bad.json")
    return paths


def _mutated(files, which, draw_leaf, draw_value):
    with open(files[which]) as fh:
        doc = json.load(fh)
    path, old = draw_leaf(list(_leaves(doc)))
    new = draw_value(MALFORMED + IN_TYPE)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = new
    with open(files["bad"], "w") as fh:
        json.dump(doc, fh)
    return path, old, new


def _commands(files, which):
    common = ["--alpha", "0.9", "--beta", "0.7"]
    bad, venue = files["bad"], files["venue"]
    if which == "venue":
        return [["plan", "--venue", bad, *common]]
    if which == "params":
        return [["plan", "--venue", venue, "--params", bad, *common]]
    return [
        ["validate", "--venue", venue, "--deployment", bad, *common],
        ["render", "--venue", venue, "--deployment", bad,
         "--out", files["bad"] + ".svg"],
    ]


@pytest.mark.parametrize("which", ["venue", "params", "dep"])
@settings(max_examples=250)
@given(data=st.data())
def test_one_leaf_fuzz_exits_3_naming_the_field(files, which, data):
    path, old, new = _mutated(
        files, which,
        lambda leaves: data.draw(st.sampled_from(leaves), label="leaf"),
        lambda values: data.draw(st.sampled_from(values), label="value"),
    )
    for argv in _commands(files, which):
        code, stdout, stderr = _run(argv)
        assert "Traceback" not in stderr
        if _malformed(path, old, new):
            assert code == 3, (argv, stderr)
            assert stdout == ""
            assert _path_text(path) in stderr
        else:
            assert code in (0, 2, 3), (argv, stderr)


# -- tables ---------------------------------------------------------------


@pytest.mark.parametrize("table, cls", [
    (inputs.SEAT, GridPosition),
    (inputs.MOUNT, CandidateLocation),
    (inputs.PRISM, BodyPrism),
    (inputs.VENUE, Venue),
    (inputs.CHANNEL, ChannelParams),
    (inputs.PLACED_AP, PlacedAp),
    (inputs.USER_ROW, GpCoverage),
    (inputs.MC_CONFIG, McConfig),
])
def test_table_rows_name_every_attribute_in_order(table, cls):
    attrs = [f.attr for f in table if f.attr is not None]
    assert attrs == [f.name for f in fields(cls)]


def test_integer_literals_read_as_floats():
    venue = generate_venue("toy").to_dict()
    venue["grid_positions"][0].update(q=1, pos=[3, 3, 1])
    gp = Venue.from_dict(venue).grid_positions[0]
    assert type(gp.presence_prob) is float
    assert all(type(v) is float for v in gp.position)
    params = ChannelParams.from_dict({"elevation_grid": [0, 1]})
    assert params.elevation_grid == (0.0, 1.0)
    assert all(type(v) is float for v in params.elevation_grid)


@pytest.mark.parametrize("version", [0, 2, "1", 1.0, True, None])
def test_format_version_must_be_the_integer_1(version):
    venue = generate_venue("toy").to_dict()
    venue["format_version"] = version
    with pytest.raises(VenueFormatError, match="format_version"):
        Venue.from_dict(venue)
    del venue["format_version"]
    assert Venue.from_dict(venue).name == "toy"


# -- guard: typed reads of parsed JSON stay in the boundary -----------------


def typed_reads(source):
    """Calls of ``float``, ``int`` or ``bool`` on a subscript with a string
    key, e.g. ``float(g["facing"])``: a field read outside the tables."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "int", "bool")
            and node.args
            and isinstance(node.args[0], ast.Subscript)
            and isinstance(node.args[0].slice, ast.Constant)
            and isinstance(node.args[0].slice.value, str)
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_scan_finds_a_typed_read():
    src = 'a = float(g["facing"])\nb = int(ids[0])\nc = bool(r["z"])\n'
    assert typed_reads(src) == [(1, "float(g['facing'])"),
                                (3, "bool(r['z'])")]


@pytest.mark.parametrize(
    "path", [p for p in SRC if p.name != "inputs.py"],
    ids=[p.name for p in SRC if p.name != "inputs.py"],
)
def test_no_typed_reads_outside_the_boundary(path):
    assert typed_reads(path.read_text()) == []
