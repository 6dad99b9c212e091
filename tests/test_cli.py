"""End-to-end command line flows on temporary files."""

import json
import math
import xml.etree.ElementTree as ET

import pytest

from mmwplan import Deployment, Venue, evaluate_coverage
from mmwplan.cli import main


def run(capsys, *argv):
    capsys.readouterr()  # drop output from fixture-driven commands
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def toy_path(tmp_path):
    p = tmp_path / "toy.json"
    assert main(["generate", "toy", "--out", str(p)]) == 0
    return str(p)


# -- generate ---------------------------------------------------------------


def test_generate_counts(capsys, tmp_path):
    for kind, n_gp, n_cand in (
        ("toy", 6, 4), ("hall", 135, 20), ("airport", 160, 16)
    ):
        out = tmp_path / f"{kind}.json"
        code, stdout, _ = run(capsys, "generate", kind, "--out", str(out))
        assert code == 0
        assert f"{n_gp} grid positions" in stdout
        v = Venue.load(str(out))
        assert v.n_grid == n_gp
        assert v.n_candidates == n_cand


def test_generate_overrides(capsys, tmp_path):
    out = tmp_path / "t.json"
    code, _, _ = run(capsys, "generate", "toy", "--out", str(out),
                     "--presence-prob", "0.6", "--name", "demo")
    assert code == 0
    v = Venue.load(str(out))
    assert v.name == "demo"
    assert all(gp.presence_prob == 0.6 for gp in v.grid_positions)


# -- plan -------------------------------------------------------------------


def test_plan_greedy_round_trip(capsys, tmp_path, toy_path):
    dep_path = tmp_path / "dep.json"
    trace_path = tmp_path / "trace.json"
    code, stdout, _ = run(
        capsys, "plan", "--venue", toy_path, "--alpha", "0.9",
        "--beta", "0.7", "--out", str(dep_path),
        "--trace-out", str(trace_path),
    )
    assert code == 0
    assert "solver=greedy" in stdout
    dep = Deployment.from_dict(json.loads(dep_path.read_text()))
    venue = Venue.load(toy_path)
    from mmwplan import ChannelParams
    rep = evaluate_coverage(venue, ChannelParams(), dep, 0.7)
    assert rep.normalized_coverage >= 0.9
    trace = json.loads(trace_path.read_text())
    assert trace["format_version"] == 1
    assert len(trace["iterations"]) == len(dep.selected)


def test_plan_zero_alpha_places_nothing(capsys, tmp_path, toy_path):
    dep_path = tmp_path / "dep.json"
    code, stdout, _ = run(
        capsys, "plan", "--venue", toy_path, "--alpha", "0",
        "--beta", "0.7", "--out", str(dep_path),
    )
    assert code == 0
    assert "aps=0" in stdout
    assert json.loads(dep_path.read_text())["selected"] == []


def test_plan_reruns_are_byte_identical(capsys, tmp_path, toy_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        code, _, _ = run(
            capsys, "plan", "--venue", toy_path, "--alpha", "0.9",
            "--beta", "0.7", "--out", str(p),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_plan_exact_refuses_hall(capsys, tmp_path):
    hall = tmp_path / "hall.json"
    assert main(["generate", "hall", "--out", str(hall)]) == 0
    capsys.readouterr()
    code, _, stderr = run(
        capsys, "plan", "--venue", str(hall), "--solver", "exact",
        "--alpha", "0.75", "--beta", "0.9",
    )
    assert code == 4
    assert "refused" in stderr
    assert "6" in stderr and "12" in stderr


def test_plan_accepts_200_mounts(capsys, tmp_path, toy_path):
    with open(toy_path) as fh:
        data = json.load(fh)
    data["candidates"] = [{"id": j, "pos": [0.5 * (j % 20), j // 20, 5.0]}
                          for j in range(200)]
    big = tmp_path / "200.json"
    big.write_text(json.dumps(data))
    dep_path = tmp_path / "dep.json"
    code, stdout, stderr = run(
        capsys, "plan", "--venue", str(big), "--alpha", "0.5",
        "--beta", "0.5", "--out", str(dep_path),
    )
    assert code == 0, stderr
    assert "solver=greedy" in stdout
    dep = json.loads(dep_path.read_text())
    assert dep["normalized_coverage"] >= 0.5
    assert all(0 <= ap["loc"] < 200 for ap in dep["selected"])


@pytest.mark.parametrize("extra", [
    ["--alpha", "0.5", "--parallel"],
    ["--alpha", "abc"],
])
def test_usage_errors_exit_as_invalid_input(capsys, toy_path, extra):
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["plan", "--venue", toy_path, "--beta", "0.7", *extra])
    assert e.value.code == 3
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert captured.out == ""


def test_plan_infeasible_writes_partial(capsys, tmp_path, toy_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"snr_threshold_db": 60.0}))
    dep_path = tmp_path / "partial.json"
    code, stdout, stderr = run(
        capsys, "plan", "--venue", toy_path, "--alpha", "0.5",
        "--beta", "0.7", "--params", str(params), "--out", str(dep_path),
    )
    assert code == 2
    assert "infeasible" in stderr
    assert "infeasible" in stdout
    assert json.loads(dep_path.read_text())["selected"] == []


def test_plan_uniform(capsys, toy_path):
    code, stdout, _ = run(
        capsys, "plan", "--venue", toy_path, "--solver", "uniform",
        "--uniform-n", "2", "--alpha", "0.5", "--beta", "0.7",
    )
    assert code == 0
    assert "aps=2" in stdout


@pytest.mark.parametrize("command, n", [
    ("plan", "0"), ("compare", "0"), ("compare", "-2"), ("compare", "99"),
])
def test_uniform_n_out_of_range_is_invalid_input(capsys, toy_path, command,
                                                 n):
    extra = ["--solver", "uniform"] if command == "plan" else []
    code, stdout, stderr = run(
        capsys, command, "--venue", toy_path, "--alpha", "0.5",
        "--beta", "0.7", "--uniform-n", n, *extra,
    )
    assert code == 3
    assert stdout == ""
    assert "count must lie in [1, 4]" in stderr


# -- validate ---------------------------------------------------------------


def test_validate_pass_and_fail(capsys, tmp_path, toy_path):
    dep_path = tmp_path / "dep.json"
    assert main(["plan", "--venue", toy_path, "--alpha", "0.9",
                 "--beta", "0.7", "--out", str(dep_path)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "validate", "--venue", toy_path, "--deployment",
        str(dep_path), "--alpha", "0.9", "--beta", "0.7",
    )
    assert code == 0
    assert "ok" in stdout
    # an empty deployment cannot hit a positive target
    empty = tmp_path / "empty.json"
    assert main(["plan", "--venue", toy_path, "--alpha", "0",
                 "--beta", "0.7", "--out", str(empty)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "validate", "--venue", toy_path, "--deployment",
        str(empty), "--alpha", "0.5", "--beta", "0.7",
    )
    assert code == 2
    assert "below target" in stdout


def test_validate_with_monte_carlo(capsys, tmp_path, toy_path):
    dep_path = tmp_path / "dep.json"
    mc_path = tmp_path / "mc.json"
    assert main(["plan", "--venue", toy_path, "--alpha", "0.9",
                 "--beta", "0.7", "--out", str(dep_path)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "validate", "--venue", toy_path, "--deployment",
        str(dep_path), "--alpha", "0.9", "--beta", "0.7", "--mc",
        "--samples", "5000", "--seed", "3", "--out", str(mc_path),
    )
    assert code == 0
    assert "outside_3sigma=0" in stdout
    report = json.loads(mc_path.read_text())
    assert report["generator"] == "philox4x64"
    assert report["n_samples"] == 5000


def test_validate_rejects_garbage(capsys, tmp_path, toy_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, stderr = run(
        capsys, "validate", "--venue", toy_path, "--deployment", str(bad),
        "--alpha", "0.5", "--beta", "0.7",
    )
    assert code == 3
    assert "error" in stderr


def test_plan_rejects_nan_mount_height(capsys, tmp_path, toy_path):
    with open(toy_path) as fh:
        data = json.load(fh)
    data["candidates"][0]["pos"][2] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run(
        capsys, "plan", "--venue", str(bad), "--alpha", "0.9",
        "--beta", "0.7",
    )
    assert code == 3
    assert "not finite" in stderr
    assert stdout == ""


def test_plan_rejects_two_coordinate_seats(capsys, tmp_path, toy_path):
    with open(toy_path) as fh:
        data = json.load(fh)
    for gp in data["grid_positions"]:
        gp["pos"] = gp["pos"][:2]
    bad = tmp_path / "flat.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run(
        capsys, "plan", "--venue", str(bad), "--alpha", "0.9",
        "--beta", "0.7",
    )
    assert code == 3
    assert "pos" in stderr and "expected 3" in stderr
    assert stdout == ""


@pytest.mark.parametrize("solver", ["greedy", "exact"])
def test_plan_rejects_nan_beta(capsys, toy_path, solver):
    code, stdout, stderr = run(
        capsys, "plan", "--venue", toy_path, "--solver", solver,
        "--alpha", "0.5", "--beta", "nan",
    )
    assert code == 3
    assert "targets" in stderr
    assert stdout == ""


@pytest.mark.parametrize("grids", [
    {"elevation_grid": [5.0]},
    {"azimuth_grid": [float("nan")]},
])
def test_plan_rejects_bad_steering_grid(capsys, tmp_path, toy_path, grids):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(grids))
    code, stdout, stderr = run(
        capsys, "plan", "--venue", toy_path, "--params", str(params),
        "--alpha", "0.9", "--beta", "0.7",
    )
    assert code == 3
    assert "steering" in stderr
    assert stdout == ""


def test_validate_flags_malformed_deployment(capsys, tmp_path, toy_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format_version": 1,
        "selected": [
            {"loc": 99, "theta": 0.0, "phi": 0.0, "assigned": []}
        ],
        "coverage": 0.0, "normalized_coverage": 0.0, "per_gp": [],
    }))
    code, _, stderr = run(
        capsys, "validate", "--venue", toy_path, "--deployment", str(bad),
        "--alpha", "0.5", "--beta", "0.7",
    )
    assert code == 3
    assert "violation" in stderr


# -- render -----------------------------------------------------------------


def test_render_round_trip(capsys, tmp_path, toy_path):
    dep_path = tmp_path / "dep.json"
    svg_path = tmp_path / "plan.svg"
    assert main(["plan", "--venue", toy_path, "--alpha", "0.9",
                 "--beta", "0.7", "--out", str(dep_path)]) == 0
    capsys.readouterr()
    code, stdout, _ = run(
        capsys, "render", "--venue", toy_path, "--deployment",
        str(dep_path), "--out", str(svg_path),
    )
    assert code == 0
    root = ET.fromstring(svg_path.read_text())
    classes = [el.get("class") for el in root.iter()]
    assert "access-point" in classes
    assert "grid-position" in classes


def _tampered_deployment(tmp_path, toy_path, edit):
    dep_path = tmp_path / "dep.json"
    assert main(["plan", "--venue", toy_path, "--alpha", "0.9",
                 "--beta", "0.7", "--out", str(dep_path)]) == 0
    data = json.loads(dep_path.read_text())
    edit(data)
    dep_path.write_text(json.dumps(data))
    return dep_path


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["selected"][0].update(loc=99), "candidate 99"),
    (lambda d: d["selected"][0].update(loc=-1), "candidate -1"),
    (lambda d: d.update(per_gp=d["per_gp"][:3]), "3 per-user"),
], ids=["loc-99", "loc-minus-1", "short-per-gp"])
def test_render_rejects_deployment_outside_venue(capsys, tmp_path, toy_path,
                                                 edit, message):
    dep_path = _tampered_deployment(tmp_path, toy_path, edit)
    svg_path = tmp_path / "plan.svg"
    code, stdout, stderr = run(
        capsys, "render", "--venue", toy_path, "--deployment",
        str(dep_path), "--out", str(svg_path),
    )
    assert code == 3
    assert message in stderr
    assert "Traceback" not in stderr
    assert stdout == ""
    assert not svg_path.exists()


def test_render_venue_only(capsys, tmp_path, toy_path):
    svg_path = tmp_path / "venue.svg"
    code, _, _ = run(
        capsys, "render", "--venue", toy_path, "--out", str(svg_path)
    )
    assert code == 0
    root = ET.fromstring(svg_path.read_text())
    classes = [el.get("class") for el in root.iter()]
    assert "access-point" not in classes


# -- compare ----------------------------------------------------------------


def test_compare_sweep_csv(capsys, tmp_path, toy_path):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "compare", "--venue", toy_path,
        "--alpha", "0.2,0.4,0.6,0.8,0.95", "--beta", "0.7",
        "--beamwidth-ap", f"{2.0 * math.pi / 3.0},{math.pi / 2.0}",
        "--out", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "W", "alpha", "beta", "L_greedy", "L_exact", "coverage_greedy",
        "coverage_exact", "coverage_uniform", "analytic_ratio",
        "observed_ratio", "location_diff_pct",
    ]
    assert len(lines) == 1 + 2 * 5
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        if cells["L_greedy"] and cells["L_exact"]:
            assert int(cells["L_exact"]) <= int(cells["L_greedy"])
        if cells["observed_ratio"] and cells["analytic_ratio"]:
            assert (float(cells["observed_ratio"])
                    <= float(cells["analytic_ratio"]) + 1e-9)
        if cells["L_greedy"]:
            assert cells["coverage_uniform"] != ""


def test_compare_stdout_when_no_out(capsys, toy_path):
    code, stdout, _ = run(
        capsys, "compare", "--venue", toy_path, "--alpha", "0.5",
        "--beta", "0.7",
    )
    assert code == 0
    assert stdout.startswith("W,alpha,beta,")
