"""Reference results: parsing op outputs and comparing them.

A reference holds, for one (workload, variant), the op's exit code, the
SHA-256 of its input files and its parsed output files. Discrete fields
(ids, assignments, steering angles, flags, AP counts) must match exactly;
other floats must agree within ``FLOAT_TOL``, relative to their size when
that exceeds 1.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os

FLOAT_TOL = 1e-9

# Float fields that name a discrete choice: the beam steering angles.
DISCRETE_FLOATS = frozenset({"theta", "phi"})

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
COSTS = os.path.join(REF_DIR, "costs.json")


def ref_path(workload: str) -> str:
    return os.path.join(REF_DIR, f"{workload}.json.gz")


def load_refs(workload: str) -> dict:
    with gzip.open(ref_path(workload), "rt") as fh:
        return json.load(fh)


def save_refs(workload: str, refs: dict) -> None:
    os.makedirs(REF_DIR, exist_ok=True)
    # mtime=0 keeps the archive bytes a function of its content
    with open(ref_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(refs, sort_keys=True).encode())


def load_costs(workload: str) -> list:
    """Op seconds by variant id, as measured when the references were made."""
    with open(COSTS) as fh:
        return json.load(fh)[workload]


def save_costs(workload: str, seconds: list) -> None:
    costs = {}
    if os.path.exists(COSTS):
        with open(COSTS) as fh:
            costs = json.load(fh)
    costs[workload] = seconds
    with open(COSTS, "w") as fh:
        json.dump(costs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def inputs_digest(d: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        h.update(name.encode())
        with open(os.path.join(d, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _csv_cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_output(name: str, data: bytes):
    """The comparable content of one output file."""
    text = data.decode()
    if name.endswith(".json"):
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(_csv_cell, ln.split(",")))) for ln in lines[1:]]


def record(exit_code: int, digest: str, outputs: dict) -> dict:
    """A reference entry from an op's exit code, input digest and output
    bytes by file name."""
    return {
        "exit": exit_code,
        "inputs": digest,
        "outputs": {n: parse_output(n, b) for n, b in outputs.items()},
    }


def _floats_agree(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def diff(ref, got, path: str = "", key: str = ""):
    """The first path where ``got`` departs from ``ref``, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or ref.keys() != got.keys():
            return path or "/"
        for k in ref:
            where = diff(ref[k], got[k], f"{path}/{k}", k)
            if where:
                return where
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return path or "/"
        for i, (r, g) in enumerate(zip(ref, got)):
            where = diff(r, g, f"{path}/{i}", key)
            if where:
                return where
        return None
    if type(ref) is float and type(got) is float and key not in DISCRETE_FLOATS:
        return None if _floats_agree(ref, got) else path
    if type(ref) is not type(got) or ref != got:
        return path or "/"
    return None


def check(ref: dict, exit_code: int, digest: str, outputs: dict):
    """Why an op's result fails its reference, or None when it passes."""
    if ref["inputs"] != digest:
        return "input files differ from the reference inputs"
    if ref["exit"] != exit_code:
        return f"exit code {exit_code}, reference {ref['exit']}"
    if set(ref["outputs"]) != set(outputs):
        return f"wrote {sorted(outputs)}, reference {sorted(ref['outputs'])}"
    for name, data in outputs.items():
        try:
            got = parse_output(name, data)
        except (ValueError, UnicodeDecodeError) as exc:
            return f"{name}: unreadable ({exc})"
        where = diff(ref["outputs"][name], got)
        if where:
            return f"{name}{where} differs from the reference"
    return None
