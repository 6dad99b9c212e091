"""The input boundary: one field table per record of the input files.

``read`` checks a parsed venue, params or deployment record against its
table and returns its values by attribute, ``check`` holds an object built
in Python to the same rules, and ``write`` inverts ``read``. A failure is a
``VenueFormatError`` naming the field path, e.g. ``grid_positions[3].facing``.
The README's "Input files" section states the policy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from numbers import Integral, Real
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import VenueFormatError

_REQUIRED = object()  # default of a key that must be present
_OMIT = object()  # default of a key whose absence keeps the class default
_ABSENT = object()  # value of a key that a record lacks
_PI, _INF = math.pi, math.inf
# closed ends next to an open bound: x >= _ABOVE_0 is x > 0 for a float
_ABOVE_0, _BELOW_2PI = math.ulp(0.0), math.nextafter(2.0 * _PI, 0.0)
_EXACT = {"float": float, "int": int, "str": str, "bool": bool}
# list kinds: (item kind, item noun, required length or None)
_LISTS = {
    "xyz": ("float", "coordinate", 3),
    "angles": ("float", "steering angle", None),
    "ids": ("int", "id", None),
}


@dataclass(frozen=True)
class Field:
    """One key of a record and the attribute it maps to (None: a key only
    the file has, written as its default). ``kind`` is ``"float"``,
    ``"int"``, ``"str"``, ``"bool"``, a list kind of ``_LISTS`` (``"angles"``
    must be non-empty) or the table of a list of records. The closed range
    ``[lo, hi]`` bounds a number, each number of a list or the number of
    records. A field with a ``default`` may be absent; with None, null
    reads as None too, and None is written by leaving the key out, or as
    null with ``keep_null``."""

    key: str
    attr: Optional[str]
    kind: Any
    lo: float = -_INF
    hi: float = _INF
    default: Any = _REQUIRED
    keep_null: bool = False


def _fail(problem: str, path: str, name="", index=None) -> VenueFormatError:
    where = f"{path}.{name}" if path and name else path or name
    where += "" if index is None else f"[{index}]"
    return VenueFormatError(f"{where or 'top level'}: {problem}")


def _number(value, f: Field, kind: str, path, name, index=None, noun=""):
    types = Integral if kind == "int" else Real
    if isinstance(value, bool) or not isinstance(value, types):
        wanted = "an integer" if kind == "int" else "a number"
        raise _fail(f"expected {wanted}, got {value!r}", path, name, index)
    if kind == "float":
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = _INF
    shown = f"{noun} {value!r}".lstrip()
    if kind == "float" and not math.isfinite(value):
        raise _fail(f"{shown} is not finite", path, name, index)
    if not f.lo <= value <= f.hi:
        problem = f"{shown} outside [{f.lo:g}, {f.hi:g}]"
        raise _fail(problem, path, name, index)
    return value


def _value(f: Field, value, path: str, name: str, by_attr: bool):
    """One value of field ``f``, named ``name``, of the record at
    ``path``, checked and converted."""
    if value is _ABSENT and f.default is _REQUIRED:
        raise _fail("missing", path, name)
    if value is _ABSENT or value is None and f.default is None:
        return f.default
    kind = f.kind
    if kind == "float" or kind == "int":
        return _number(value, f, kind, path, name)
    if kind == "str" or kind == "bool":
        if not isinstance(value, _EXACT[kind]):
            wanted = "a string" if kind == "str" else "true or false"
            raise _fail(f"expected {wanted}, got {value!r}", path, name)
        return value
    if not isinstance(value, (list, tuple)):
        raise _fail(f"expected a list, got {value!r}", path, name)
    if type(kind) is tuple:
        if not f.lo <= len(value) <= f.hi:
            raise _fail(f"has {len(value)} records", path, name)
        here = f"{path}.{name}" if path else name
        return _records(kind, value, here, by_attr)
    item, noun, size = _LISTS[kind]
    if size is not None and len(value) != size:
        problem = f"{list(value)} has {len(value)} {noun}s, expected {size}"
        raise _fail(problem, path, name)
    if kind == "angles" and not value:
        raise _fail(f"lists no {noun}s", path, name)
    return tuple([_number(v, f, item, path, name, i, noun)
                  for i, v in enumerate(value)])


def _column(f: Field, values: list, rows_path, name: str, by_attr: bool):
    """Field ``f`` of every record, checked and converted. A column of
    exact values, floats of xyz points too, that are finite and inside
    the bounds passes in C-level passes; any other goes value by value."""
    flat, kind, types = values, f.kind, set(map(type, values))
    if f.default is None and types <= {type(None), type(_ABSENT)}:
        return [None] * len(values)  # optional, and null or absent throughout
    if (kind == "xyz" and types <= {list, tuple}
            and set(map(len, values)) == {3}):
        flat, kind = list(chain.from_iterable(values)), "float"
    if flat and set(map(type, flat)) == {_EXACT.get(kind)} and (
        kind in ("str", "bool")
        or (kind == "int" or all(map(math.isfinite, flat)))
        and f.lo <= min(flat) and max(flat) <= f.hi
    ):
        return list(map(tuple, values)) if list in types else values
    return [_value(f, v, _at(rows_path, i), name, by_attr)
            for i, v in enumerate(values)]


def _at(rows_path, i: int) -> str:
    return "" if rows_path is None else f"{rows_path}[{i}]"


def _records(table, rows: list, rows_path, by_attr: bool) -> List[dict]:
    """Check a list of records, at ``rows_path`` (None: a lone record),
    one field at a time and return them as dicts by attribute; ``by_attr``
    reads and names the attributes of objects built in Python."""
    for i, row in enumerate([] if by_attr else rows):
        if not isinstance(row, dict):
            raise _fail(f"expected an object, got {row!r}", _at(rows_path, i))
    columns = {}
    for f in table:
        name = f.attr if by_attr else f.key
        if name is None:
            continue
        values = (list(map(attrgetter(name), rows)) if by_attr
                  else [row.get(name, _ABSENT) for row in rows])
        columns[f.attr] = _column(f, values, rows_path, name, by_attr)
    if by_attr:  # a check builds nothing
        return []
    columns.pop(None, None)  # keys only the file has
    return [dict(zip(columns, vals)) for vals in zip(*columns.values())]


def read(table: Tuple[Field, ...], data, strict=False) -> Dict[str, Any]:
    """One parsed JSON object checked against ``table``, by attribute and
    with nested records as such dicts; ``strict`` rejects unknown keys."""
    keys = {f.key for f in table}
    if strict and isinstance(data, dict) and not keys.issuperset(data):
        raise _fail(f"unknown key {min(set(data) - keys)!r}", "")
    record = _records(table, [data], None, False)[0]
    return {a: v for a, v in record.items() if v is not _OMIT}


def check(table: Tuple[Field, ...], obj) -> None:
    """Hold an object built in Python to ``table``; messages name its
    attributes, e.g. ``grid_positions[0].position``."""
    _records(table, [obj], None, True)


def write(table: Tuple[Field, ...], obj) -> Dict[str, Any]:
    """The JSON object of ``obj``."""
    out = {}
    for f in table:
        value = f.default if f.attr is None else getattr(obj, f.attr)
        if type(f.kind) is tuple:
            value = [write(f.kind, v) for v in value]
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None or f.default is not None or f.keep_null:
            out[f.key] = value
    return out


def save_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_json(path: str, what: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the JSON in the file at ``path``; every failure is a
    ``VenueFormatError`` naming the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, json.JSONDecodeError, VenueFormatError) as exc:
        problem = f"cannot read {what} file {path}: {exc}"
        raise VenueFormatError(problem) from exc


_FORMAT_VERSION = Field("format_version", None, "int", 1, 1, default=1)

SEAT = (
    Field("id", "id", "int"),
    Field("pos", "position", "xyz"),
    Field("facing", "facing", "float", -_PI, _PI),
    Field("elevation", "elevation", "float", 0.0, _PI / 2.0),
    Field("q", "presence_prob", "float", 0.0, 1.0),
    Field("orientation_std", "orientation_std", "float", _ABOVE_0),
    Field("beta", "beta", "float", 0.0, 1.0, default=None),
)
MOUNT = (Field("id", "id", "int"), Field("pos", "position", "xyz"))
PRISM = (
    Field("center", "center", "xyz"),
    Field("size", "size", "xyz", _ABOVE_0),
    Field("owner", "owner", "int", default=None, keep_null=True),
)
VENUE = (
    _FORMAT_VERSION,
    Field("name", "name", "str"),
    Field("grid_positions", "grid_positions", SEAT, 1),
    Field("candidates", "candidates", MOUNT, 1),
    Field("blockers", "blockers", PRISM, default=()),
)

# read with ``strict``: an absent key keeps the ChannelParams default
CHANNEL = tuple(Field(key, key, kind, lo, hi, _OMIT) for key, kind, lo, hi in (
    ("kappa_db", "float", -_INF, _INF),
    ("alpha_los", "float", -_INF, _INF),
    ("alpha_nlos", "float", -_INF, _INF),
    ("sigma_los_db", "float", 0.0, _INF),
    ("sigma_nlos_db", "float", 0.0, _INF),
    ("tx_power_dbm", "float", -_INF, _INF),
    ("noise_power_dbm", "float", -_INF, _INF),
    ("snr_threshold_db", "float", -_INF, _INF),
    ("ap_beamwidth", "float", _ABOVE_0, _BELOW_2PI),
    ("md_beamwidth", "float", _ABOVE_0, _BELOW_2PI),
    ("side_lobe_gain_db", "float", -_INF, _INF),
    ("elevation_grid", "angles", 0.0, _PI),
    ("azimuth_grid", "angles", -_INF, _INF),
    ("capacity_per_beam", "int", 1, _INF),
    ("self_block_half_angle", "float", _ABOVE_0, _PI),
    ("fade_margin_db", "float", -_INF, _INF),
))

PLACED_AP = (
    Field("loc", "candidate", "int"),
    Field("theta", "theta", "float", 0.0, _PI),
    Field("phi", "phi", "float"),
    Field("assigned", "assigned", "ids"),
)
USER_ROW = (
    Field("id", "id", "int"),
    Field("prob", "prob", "float"),
    Field("z", "z", "bool"),
)
DEPLOYMENT = (
    _FORMAT_VERSION,
    Field("selected", "selected", PLACED_AP),
    Field("coverage", "coverage", "float"),
    Field("normalized_coverage", "normalized_coverage", "float"),
    Field("per_gp", "per_gp", USER_ROW),
)

# not a file: the Monte Carlo settings, held to the same rules
MC_CONFIG = (
    Field("n_samples", "n_samples", "int", 1),
    # the Philox key holds 64 bits; a seed outside them would alias
    Field("seed", "seed", "int", 0, (1 << 64) - 1),
    Field("sample_shadowing", "sample_shadowing", "bool"),
    Field("fade_margin_db", "fade_margin_db", "float"),
)
