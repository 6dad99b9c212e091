"""Byte-identity of the command line's outputs.

Each case runs ``mmwplan.cli.main`` in-process and hashes what it writes:
stdout with its ``runtime=`` field removed, then every output file in
order. The digests pin deployments, traces, the compare CSV and Monte
Carlo reports, so a refactor that promises identical outputs is checked
here rather than by hand. A change that means to alter an output updates
that digest and says why.
"""

import hashlib
import json
import re

import pytest

from mmwplan.cli import main

_RUNTIME = re.compile(r" runtime=\S+")

# name -> (argv, output files); {toy}, {hall} and {airport} are venue
# files, {hall_dep} is a greedy hall plan, {cap3} a params file with
# capacity_per_beam 3, and the output names are paths in a per-test
# directory; a path that a case prints is hashed as its name
CASES = {
    "toy-greedy": (
        "plan --venue {toy} --alpha 0.9 --beta 0.7 --out {dep} "
        "--trace-out {trace}", ("dep", "trace"),
    ),
    "hall-greedy": (
        "plan --venue {hall} --alpha 0.75 --beta 0.9 --out {dep} "
        "--trace-out {trace}", ("dep", "trace"),
    ),
    "airport-greedy": (
        "plan --venue {airport} --alpha 0.8 --beta 0.7 --out {dep} "
        "--trace-out {trace}", ("dep", "trace"),
    ),
    "toy-exact": (
        "plan --venue {toy} --alpha 0.9 --beta 0.7 --solver exact "
        "--out {dep}", ("dep",),
    ),
    "airport-uniform": (
        "plan --venue {airport} --alpha 0.5 --beta 0.7 --solver uniform "
        "--uniform-n 8 --out {dep}", ("dep",),
    ),
    "toy-exact-cap3": (
        "plan --venue {toy} --alpha 0.9 --beta 0.7 --solver exact "
        "--params {cap3} --out {dep}", ("dep",),
    ),
    "toy-compare": (
        "compare --venue {toy} --alpha 0.6,0.9 --beta 0.7 "
        "--beamwidth-ap 1.5,2.0943951", (),
    ),
    "toy-compare-cap3": (
        "compare --venue {toy} --alpha 0.6,0.9 --beta 0.7 --params {cap3}",
        (),
    ),
    "hall-render": (
        "render --venue {hall} --deployment {hall_dep} --out {svg}",
        ("svg",),
    ),
    "hall-mc": (
        "validate --venue {hall} --deployment {hall_dep} --alpha 0.75 "
        "--beta 0.9 --mc --samples 20000 --seed 3 --out {mc}", ("mc",),
    ),
    "hall-mc-shadowing": (
        "validate --venue {hall} --deployment {hall_dep} --alpha 0.75 "
        "--beta 0.9 --mc --samples 20000 --seed 3 --shadowing --out {mc}",
        ("mc",),
    ),
}

DIGESTS = {
    "airport-greedy":
        "6af47a50a50c077035efa438380a71826d9c3ec555c7f2747aedb9d3d10bcf4c",
    "airport-uniform":
        "b0100990c4b7b234b3c59e4dc4a8e11de42a1710dd84039d2bfac89520bba74e",
    "hall-greedy":
        "2e4cf039b9a2396439b2ea0772ba0b594c139e4d38a135b113badf5d5b2947b1",
    "hall-render":
        "4b7f39b33f596ace1390aeb6d25259fc2f655fc3107e4eb5d42ed892b5211896",
    "hall-mc":
        "8479f07626570e08b82180c0b12a27810c2c700de9c591f8c425e412a9fc206d",
    "hall-mc-shadowing":
        "295543134a315d9fdb62593c7f68e5888f59d6160cfae256d4ff282bf359b996",
    "toy-compare":
        "a836e2d8b54f1af21ae6d539637b4b6444de610c0f4e6770649242e582e2f341",
    "toy-compare-cap3":
        "1a86a3975d3886d320d8ffed14409f44e8c811f5d1e2ce4679d7e2149b390168",
    "toy-exact":
        "b24ac806b162ac75aee6a12124c82cf19f2dcb14ffa768a9877458ea71e76b1e",
    "toy-exact-cap3":
        "53d792539055abbf883f992ca5170e626fdc7a92548293a06b8dcaab1005a3b5",
    "toy-greedy":
        "6758b3125cf8e3e90af76eecd9b87a2f4193d66f5f7aca7422e75873282a01dc",
}


@pytest.fixture(scope="module")
def venues(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for kind in ("toy", "hall", "airport"):
        paths[kind] = str(root / f"{kind}.json")
        assert main(["generate", kind, "--out", paths[kind]]) == 0
    paths["cap3"] = str(root / "cap3.json")
    with open(paths["cap3"], "w") as fh:
        json.dump({"capacity_per_beam": 3}, fh)
    paths["hall_dep"] = str(root / "hall_dep.json")
    assert main(["plan", "--venue", paths["hall"], "--alpha", "0.75",
                 "--beta", "0.9", "--out", paths["hall_dep"]]) == 0
    return paths


def digest(capsys, tmp_path, venues, name):
    template, outputs = CASES[name]
    files = {out: str(tmp_path / out) for out in outputs}
    argv = template.format(**venues, **files).split()
    capsys.readouterr()
    assert main(argv) == 0
    out = _RUNTIME.sub("", capsys.readouterr().out)
    for key, path in {**venues, **files}.items():
        out = out.replace(path, "{%s}" % key)
    h = hashlib.sha256(out.encode())
    for out in outputs:
        with open(files[out], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digest(capsys, tmp_path, venues, name):
    assert digest(capsys, tmp_path, venues, name) == DIGESTS[name]
