"""End-to-end command line flows on temporary files."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

import mmwplan.montecarlo
import oracles
from mmwplan import (
    ChannelParams,
    Deployment,
    PlanningModel,
    Venue,
    evaluate_coverage,
    generate_venue,
    greedy_place,
)
from mmwplan.cli import build_parser, main
from mmwplan.montecarlo import McConfig
from mmwplan.solver import EXACT_LIMITS


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
    rep = evaluate_coverage(PlanningModel(venue, ChannelParams(), 0.7), dep)
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


@pytest.mark.parametrize("kind, size", [("hall", "20 candidates x 135"),
                                        ("stadium", "16 candidates x 1040")])
def test_plan_exact_refuses_before_building_the_model(capsys, tmp_path,
                                                      model_builds, kind,
                                                      size):
    venue = tmp_path / f"{kind}.json"
    assert main(["generate", kind, "--out", str(venue)]) == 0
    code, stdout, stderr = run(
        capsys, "plan", "--venue", str(venue), "--solver", "exact",
        "--alpha", "0.75", "--beta", "0.9",
    )
    assert code == 4
    assert stdout == ""
    assert stderr == (
        f"refused: instance size {size} users exceeds exact solver limits "
        f"(6 x 12); use the greedy solver or raise the limits explicitly\n"
    )
    assert model_builds == []


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
    ["--alpha", "inf"],
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


def test_plan_infeasible_names_unreachable_seats(capsys, tmp_path):
    venue = str(tmp_path / "stadium.json")
    dep_path = tmp_path / "partial.json"
    assert main(["generate", "stadium", "--out", venue]) == 0
    code, stdout, stderr = run(
        capsys, "plan", "--venue", venue, "--alpha", "0.75", "--beta",
        "0.9", "--out", str(dep_path),
    )
    assert code == 2
    assert "; 319 seats unreachable: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...\n" in (
        stderr
    )
    # stdout and the partial deployment carry no seat list
    assert "unreachable" not in stdout
    assert "unreachable" not in dep_path.read_text()


def test_plan_exact_infeasible_names_unreachable_seats(capsys, tmp_path,
                                                      toy_path):
    params = tmp_path / "deaf.json"
    params.write_text('{"snr_threshold_db": 60.0}')
    code, _, stderr = run(
        capsys, "plan", "--venue", toy_path, "--params", str(params),
        "--solver", "exact", "--alpha", "0.5", "--beta", "0.7",
    )
    assert code == 2
    assert stderr.endswith("; 6 seats unreachable: 0, 1, 2, 3, 4, 5\n")


def test_seat_closer_than_1m_to_a_mount_is_invalid_input(capsys, tmp_path):
    seat = {"id": 0, "pos": [0.0, 0.0, 1.0], "facing": 0.0,
            "elevation": 0.5, "q": 1.0, "orientation_std": 0.5}
    venue = tmp_path / "close.json"
    venue.write_text(json.dumps({
        "name": "close", "grid_positions": [seat],
        "candidates": [{"id": 0, "pos": [0.3, 0.0, 1.4]}],
    }))
    dep = tmp_path / "dep.json"
    dep.write_text(json.dumps({
        "selected": [], "coverage": 0.0, "normalized_coverage": 0.0,
        "per_gp": [{"id": 0, "prob": 0.0, "z": False}],
    }))
    target = ["--venue", str(venue), "--beta", "0.9"]
    for argv in (["plan", "--alpha", "0.5"],
                 ["compare", "--alpha", "0.5"],
                 ["validate", "--alpha", "0.5", "--deployment", str(dep)]):
        code, stdout, stderr = run(capsys, *argv, *target)
        assert code == 3
        assert stdout == ""
        assert "seat 0 is 0.5 m from mount 0" in stderr


def test_plan_uniform(capsys, toy_path):
    code, stdout, _ = run(
        capsys, "plan", "--venue", toy_path, "--solver", "uniform",
        "--uniform-n", "2", "--alpha", "0.5", "--beta", "0.7",
    )
    assert code == 0
    assert "aps=2" in stdout


@pytest.mark.parametrize("solver, flag, value, reader", [
    ("exact", "--trace-out", "t.json", "greedy"),
    ("uniform", "--trace-out", "t.json", "greedy"),
    ("greedy", "--uniform-n", "0", "uniform"),
    ("exact", "--uniform-n", "2", "uniform"),
    ("greedy", "--max-exact-l", "9", "exact"),
    ("uniform", "--max-exact-m", "1", "exact"),
], ids=["exact-trace-out", "uniform-trace-out", "greedy-uniform-n",
        "exact-uniform-n", "greedy-max-exact-l", "uniform-max-exact-m"])
def test_plan_rejects_options_its_solver_never_reads(capsys, tmp_path,
                                                     solver, flag, value,
                                                     reader):
    """Refused before the venue loads: the venue file does not exist."""
    if value.endswith(".json"):
        value = str(tmp_path / value)
    code, stdout, stderr = run(
        capsys, "plan", "--venue", str(tmp_path / "absent.json"),
        "--solver", solver, "--alpha", "0.5", "--beta", "0.7",
        "--out", str(tmp_path / "dep.json"), flag, value,
    )
    assert code == 3
    assert stdout == ""
    assert stderr == (
        f"error: {flag} is read by --solver {reader} only, not by "
        f"--solver {solver}\n"
    )
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("shadowing", [[], ["--shadowing"]])
def test_validate_mc_matches_per_sample_replay(capsys, tmp_path, monkeypatch,
                                               shadowing):
    # the report must not change by a byte when each seat's rate comes from
    # the one-expression sampler and the every-sample replay oracles
    hall = tmp_path / "hall.json"
    dep_path = tmp_path / "dep.json"
    assert main(["generate", "hall", "--out", str(hall)]) == 0
    assert main(["plan", "--venue", str(hall), "--alpha", "0.75",
                 "--beta", "0.9", "--out", str(dep_path)]) == 0

    def validate(out):
        code, stdout, _ = run(
            capsys, "validate", "--venue", str(hall), "--deployment",
            str(dep_path), "--alpha", "0.75", "--beta", "0.9", "--mc",
            "--samples", "20000", "--seed", "3", "--out", str(out),
            *shadowing,
        )
        assert code == 0
        return stdout, out.read_bytes()

    got = validate(tmp_path / "mc.json")
    monkeypatch.setattr(mmwplan.montecarlo, "_seat_rate", oracles.seat_rate)
    assert got == validate(tmp_path / "mc_oracle.json")


@pytest.mark.parametrize("shadowing", [[], ["--shadowing"]])
def test_validate_mc_sample_count_too_large_to_draw(capsys, tmp_path,
                                                   toy_path, shadowing):
    # 10**13 uniforms (80 TB) fail to allocate at once and touch no memory;
    # that used to end in numpy's memory-error traceback
    dep_path = tmp_path / "dep.json"
    assert main(["plan", "--venue", toy_path, "--alpha", "0.9",
                 "--beta", "0.7", "--out", str(dep_path)]) == 0
    mc_path = tmp_path / "mc.json"
    code, stdout, stderr = run(
        capsys, "validate", "--venue", toy_path, "--deployment",
        str(dep_path), "--alpha", "0.9", "--beta", "0.7", "--mc",
        "--samples", str(10 ** 13), "--out", str(mc_path), *shadowing,
    )
    assert code == 3
    assert stdout == ""
    assert "--samples" in stderr and "n_samples" in stderr
    assert "Traceback" not in stderr
    assert not mc_path.exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_validate_mc_rejects_seed_outside_64_bits(capsys, tmp_path, toy_path,
                                                  seed):
    # -1 and 2**64 used to replay the streams of 2**64 - 1 and 0
    dep_path = tmp_path / "dep.json"
    assert main(["plan", "--venue", toy_path, "--alpha", "0.9",
                 "--beta", "0.7", "--out", str(dep_path)]) == 0
    mc_path = tmp_path / "mc.json"
    code, stdout, stderr = run(
        capsys, "validate", "--venue", toy_path, "--deployment",
        str(dep_path), "--alpha", "0.9", "--beta", "0.7", "--mc",
        "--samples", "100", "--seed", seed, "--out", str(mc_path),
    )
    assert code == 3
    assert stdout == ""
    assert "seed" in stderr
    assert not mc_path.exists()


@pytest.mark.parametrize("flag, value", [
    ("--samples", ["5"]), ("--seed", ["0"]), ("--shadowing", []),
    ("--out", ["mc.json"]),
], ids=["samples", "seed", "shadowing", "out"])
def test_validate_rejects_mc_options_without_mc(capsys, tmp_path, flag,
                                                value):
    """Refused before the venue loads: the venue file does not exist."""
    value = [str(tmp_path / v) if v.endswith(".json") else v for v in value]
    code, stdout, stderr = run(
        capsys, "validate", "--venue", str(tmp_path / "absent.json"),
        "--deployment", str(tmp_path / "dep.json"), "--alpha", "0.5",
        "--beta", "0.7", flag, *value,
    )
    assert code == 3
    assert stdout == ""
    assert stderr == f"error: {flag} is read by --mc only\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_imports_without_scipy():
    # only the Monte Carlo replay needs scipy; it imports it on first use
    src = os.path.dirname(os.path.dirname(mmwplan.montecarlo.__file__))
    code = ("import sys, mmwplan.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


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


@pytest.mark.parametrize("std", [1e17, 1e30])
def test_plan_rejects_orientation_spread_past_bound(capsys, tmp_path,
                                                    toy_path, std):
    # such a spread gave NaN cell masses and still planned with exit 0
    with open(toy_path) as fh:
        data = json.load(fh)
    data["grid_positions"][0]["orientation_std"] = std
    bad = tmp_path / "wide.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run(
        capsys, "plan", "--venue", str(bad), "--alpha", "0.9",
        "--beta", "0.7",
    )
    assert code == 3
    assert "grid_positions[0].orientation_std" in stderr
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


def _hall_with_seat_betas(path, beta, seats):
    """The hall with its own ``beta`` on the given seats, saved to path."""
    hall = generate_venue("hall")
    gps = [replace(gp, beta=beta) if gp.id in seats else gp
           for gp in hall.grid_positions]
    replace(hall, grid_positions=gps).save(str(path))
    return Venue.load(str(path))


def test_library_model_applies_per_seat_targets(capsys, tmp_path):
    # the per-seat value wins over the venue-wide beta in the library as
    # on the command line
    path = tmp_path / "hall.json"
    venue = _hall_with_seat_betas(path, 0.5, range(15))
    dep, _ = greedy_place(PlanningModel(venue, ChannelParams(), 0.9), 0.75)
    code, stdout, _ = run(capsys, "plan", "--venue", str(path),
                          "--alpha", "0.75", "--beta", "0.9")
    assert code == 0
    assert (len(dep.selected), round(dep.coverage, 4),
            round(dep.normalized_coverage, 4)) == (4, 119.0, 0.8815)
    assert stdout.startswith("solver=greedy aps=4 coverage=119.0000 "
                             "normalized=0.8815 ")


def test_out_of_range_beta_is_invalid_even_when_every_seat_has_its_own(
        capsys, tmp_path):
    path = tmp_path / "hall.json"
    _hall_with_seat_betas(path, 0.5, range(135))
    code, stdout, stderr = run(capsys, "plan", "--venue", str(path),
                               "--alpha", "0.75", "--beta", "1.5")
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


# every scalar ChannelParams field, each set to a value that is not a
# finite number of its type
PARAM_FIELDS = (
    "kappa_db", "alpha_los", "alpha_nlos", "sigma_los_db", "sigma_nlos_db",
    "tx_power_dbm", "noise_power_dbm", "snr_threshold_db", "ap_beamwidth",
    "md_beamwidth", "side_lobe_gain_db", "capacity_per_beam",
    "self_block_half_angle", "fade_margin_db",
)
BAD_NUMBERS = ("NaN", "Infinity", "-Infinity", "null", '"x"', "[]", "true")


@pytest.mark.parametrize("field, value", [
    *((f, v) for f in PARAM_FIELDS for v in BAD_NUMBERS),
    ("capacity_per_beam", "2.5"),
])
def test_plan_rejects_bad_param_value(capsys, tmp_path, toy_path, field,
                                      value):
    params = tmp_path / "params.json"
    params.write_text(f'{{"{field}": {value}}}')
    code, stdout, stderr = run(
        capsys, "plan", "--venue", toy_path, "--params", str(params),
        "--alpha", "0.9", "--beta", "0.7",
    )
    assert code == 3
    assert stdout == ""
    assert field in stderr
    assert "Traceback" not in stderr


def test_plan_rejects_side_lobe_above_device_main_lobe(capsys, tmp_path,
                                                     toy_path):
    # the default device beam (pi / 2) has an 8.3 dB main lobe, a 5.0 rad
    # one 0.45 dB
    cases = [({"side_lobe_gain_db": 1e30}, 3),
             ({"side_lobe_gain_db": 3.0}, 0),
             ({"side_lobe_gain_db": 3.0, "md_beamwidth": 5.0}, 3)]
    for params, want in cases:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code, stdout, stderr = run(
            capsys, "plan", "--venue", toy_path, "--params", str(path),
            "--alpha", "0.9", "--beta", "0.7",
        )
        assert code == want, params
        if want == 3:
            assert stdout == ""
            assert "side_lobe_gain_db" in stderr
            assert "Traceback" not in stderr


@pytest.mark.parametrize("field, width", [("ap_beamwidth", 2e-8),
                                          ("md_beamwidth", 1e-12)])
def test_plan_rejects_beamwidth_without_finite_gain(capsys, tmp_path,
                                                    toy_path, field, width):
    # cos(W/2) rounds to 1 below about 2.1e-8 rad, so the main-lobe gain
    # 2 / (1 - cos(W/2)) would divide by zero
    params = tmp_path / "params.json"
    params.write_text(json.dumps({field: width}))
    code, stdout, stderr = run(
        capsys, "plan", "--venue", toy_path, "--params", str(params),
        "--alpha", "0.9", "--beta", "0.7",
    )
    assert code == 3
    assert stdout == ""
    assert field in stderr and str(params) in stderr


def test_compare_rejects_beamwidth_without_finite_gain(capsys, toy_path):
    # --max-exact-l 1 makes exact print a refusal for any width it runs,
    # so a stderr without one shows no width ran before the bad one exited
    code, stdout, stderr = run(
        capsys, "compare", "--venue", toy_path, "--alpha", "0.5",
        "--beta", "0.7", "--beamwidth-ap", "2.0,1e-12", "--max-exact-l", "1",
    )
    assert code == 3
    assert stdout == ""
    assert "ap_beamwidth 1e-12" in stderr
    assert "greedy" not in stderr and "exact" not in stderr


def test_compare_rejects_uniform_n_before_any_solver(capsys, toy_path):
    code, stdout, stderr = run(
        capsys, "compare", "--venue", toy_path, "--alpha", "0.5",
        "--beta", "0.7", "--uniform-n", "9", "--max-exact-l", "1",
    )
    assert code == 3
    assert stdout == ""
    assert "count must lie in [1, 4], got 9" in stderr
    assert "greedy" not in stderr and "exact" not in stderr


@pytest.mark.parametrize("section, key", [
    ("grid_positions", "id"), ("blockers", "owner"),
])
def test_plan_rejects_infinite_venue_id(capsys, tmp_path, toy_path, section,
                                        key):
    with open(toy_path) as fh:
        data = json.load(fh)
    data[section][0][key] = float("inf")
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(data))
    code, stdout, stderr = run(
        capsys, "plan", "--venue", str(bad), "--alpha", "0.9",
        "--beta", "0.7",
    )
    assert code == 3
    assert stdout == ""
    assert "malformed venue data" in stderr


def test_validate_rejects_infinite_deployment_loc(capsys, tmp_path,
                                                  toy_path):
    dep_path = _tampered_deployment(
        tmp_path, toy_path,
        lambda d: d["selected"][0].update(loc=float("inf")))
    code, stdout, stderr = run(
        capsys, "validate", "--venue", toy_path, "--deployment",
        str(dep_path), "--alpha", "0.5", "--beta", "0.7",
    )
    assert code == 3
    assert stdout == ""
    assert "cannot read deployment file" in stderr


@pytest.mark.parametrize("key", ["theta", "phi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_flags_non_finite_steering(capsys, tmp_path, toy_path, key,
                                            value):
    dep_path = _tampered_deployment(
        tmp_path, toy_path, lambda d: d["selected"][0].update({key: value}))
    code, stdout, stderr = run(
        capsys, "validate", "--venue", toy_path, "--deployment",
        str(dep_path), "--alpha", "0.5", "--beta", "0.7", "--mc",
    )
    assert code == 3
    assert stdout == ""
    assert f"selected[0].{key}" in stderr


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


# -- channel settings -------------------------------------------------------


@pytest.mark.parametrize("command, flag", [
    ("plan", "--beamwidth-ap"),
    ("plan", "--beamwidth-md"),
    ("validate", "--beamwidth-ap"),
    ("validate", "--beamwidth-md"),
    ("render", "--beamwidth-ap"),
    ("render", "--beamwidth-md"),
    ("compare", "--beamwidth-md"),
])
def test_channel_flags_are_usage_errors(capsys, tmp_path, toy_path, command,
                                        flag):
    # channel settings come from the --params file alone
    argv = {
        "plan": ["--alpha", "0.9", "--beta", "0.7"],
        "validate": ["--alpha", "0.9", "--beta", "0.7",
                     "--deployment", str(tmp_path / "dep.json")],
        "render": ["--out", str(tmp_path / "v.svg")],
        "compare": ["--alpha", "0.9", "--beta", "0.7"],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main([command, "--venue", toy_path, *argv, flag, "1.0"])
    assert e.value.code == 3
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("margin, want", [(0.0, 0), (3.0, 3)])
def test_fade_margin_key_reads_only_at_zero(capsys, tmp_path, toy_path,
                                            margin, want):
    # a fade margin is a higher snr_threshold_db; files that still carry
    # the key at its old default read as before
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"fade_margin_db": margin}))
    code, stdout, stderr = run(
        capsys, "plan", "--venue", toy_path, "--params", str(path),
        "--alpha", "0.9", "--beta", "0.7",
    )
    assert code == want
    if want == 3:
        assert stdout == ""
        assert "fade_margin_db" in stderr
        assert "Traceback" not in stderr


def test_parser_defaults_read_their_owners(capsys, tmp_path, toy_path):
    # compare always runs exact and holds the limits' defaults; plan and
    # validate leave their one-reader options unset, so they can refuse
    # them, and take the defaults from their owners
    parser = build_parser()
    common = ["--venue", toy_path, "--alpha", "0.9", "--beta", "0.7"]
    args = parser.parse_args(["compare", *common])
    assert (args.max_exact_l, args.max_exact_m) == EXACT_LIMITS
    args = parser.parse_args(["plan", *common])
    assert (args.max_exact_l, args.max_exact_m) == (None, None)
    args = parser.parse_args(["validate", *common, "--deployment", "d"])
    assert (args.samples, args.seed, args.shadowing, args.out) == (
        None, None, None, None
    )
    dep_path, mc_path = tmp_path / "dep.json", tmp_path / "mc.json"
    assert main(["plan", *common, "--out", str(dep_path)]) == 0
    assert main(["validate", *common, "--deployment", str(dep_path),
                 "--mc", "--out", str(mc_path)]) == 0
    report = json.loads(mc_path.read_text())
    assert (report["n_samples"], report["seed"]) == (
        McConfig.n_samples, McConfig.seed
    )


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


@pytest.mark.parametrize("ids", [[0, 77, 2, 3, 4, 5], [0, 0, 2, 3, 4, 5]],
                         ids=["unknown", "repeated"])
@pytest.mark.parametrize("command", ["render", "validate"])
def test_per_gp_ids_must_name_each_seat_once(capsys, tmp_path, toy_path,
                                             command, ids):
    def renumber(d):
        for row, i in zip(d["per_gp"], ids):
            row["id"] = i

    dep_path = _tampered_deployment(tmp_path, toy_path, renumber)
    out = {"render": ["--out", str(tmp_path / "plan.svg")],
           "validate": ["--alpha", "0.9", "--beta", "0.7"]}[command]
    code, stdout, stderr = run(
        capsys, command, "--venue", toy_path, "--deployment", str(dep_path),
        *out,
    )
    assert code == 3
    assert stdout == ""
    assert "per_gp" in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "plan.svg").exists()


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


def test_compare_uniform_gets_one_ap_when_greedy_chose_none(capsys,
                                                           toy_path):
    rows = {}
    for extra in ((), ("--uniform-n", "1")):
        code, stdout, _ = run(
            capsys, "compare", "--venue", toy_path, "--alpha", "0",
            "--beta", "0.9", *extra,
        )
        assert code == 0
        header, line = stdout.strip().split("\n")
        rows[extra] = dict(zip(header.split(","), line.split(",")))
    row = rows[()]
    assert row["L_greedy"] == "0"
    assert row["coverage_uniform"] == "0.166667"
    # exact needs no AP either, and a ratio to zero APs is left blank
    assert row["L_exact"] == "0"
    assert row["observed_ratio"] == ""
    assert rows[("--uniform-n", "1")] == row


def test_compare_stdout_when_no_out(capsys, toy_path):
    code, stdout, _ = run(
        capsys, "compare", "--venue", toy_path, "--alpha", "0.5",
        "--beta", "0.7",
    )
    assert code == 0
    assert stdout.startswith("W,alpha,beta,")


def test_compare_says_why_exact_is_blank(capsys, tmp_path, toy_path):
    hall = tmp_path / "hall.json"
    assert main(["generate", "hall", "--out", str(hall)]) == 0
    code, stdout, stderr = run(
        capsys, "compare", "--venue", str(hall), "--alpha", "0.5,0.75",
        "--beta", "0.9",
    )
    assert code == 0
    rows = [dict(zip(stdout.splitlines()[0].split(","), line.split(",")))
            for line in stdout.splitlines()[1:]]
    assert [r["L_exact"] for r in rows] == ["", ""]
    assert all(r["L_greedy"] for r in rows)
    assert stderr.splitlines() == [
        f"W=2.0944 alpha={a}: exact refused (instance size 20 candidates x "
        f"135 users exceeds exact solver limits (6 x 12); use the greedy "
        f"solver or raise the limits explicitly)"
        for a in ("0.50", "0.75")
    ]
    params = tmp_path / "deaf.json"
    params.write_text('{"snr_threshold_db": 60.0}')
    code, stdout, stderr = run(
        capsys, "compare", "--venue", toy_path, "--params", str(params),
        "--alpha", "0.5", "--beta", "0.7",
    )
    assert code == 0
    assert stdout.splitlines()[1] == "2.094395,0.500000,0.700000" + "," * 8
    assert stderr.splitlines()[1] == (
        "W=2.0944 alpha=0.50: exact infeasible (target coverage unreachable "
        "even with every candidate active)"
    )


# -- argument checks ----------------------------------------------------------


@pytest.mark.parametrize("command, extra", [
    ("validate", ["--alpha", "nan"]),
    ("validate", ["--alpha", "1.5"]),
    ("validate", ["--alpha", "-1"]),
    ("compare", ["--alpha", ","]),
    ("compare", ["--alpha", "0.5,nan"]),
    ("compare", ["--alpha", "0.5,1.5"]),
    ("compare", ["--alpha", "0.5", "--beamwidth-ap", ","]),
    ("plan", ["--alpha", "0.5", "--solver", "exact", "--max-exact-l", "-1"]),
    ("plan", ["--alpha", "0.5", "--solver", "exact", "--max-exact-m", "0"]),
    ("compare", ["--alpha", "0.5", "--max-exact-l", "0"]),
], ids=["validate-nan", "validate-1.5", "validate-minus-1",
        "compare-empty", "compare-nan", "compare-1.5",
        "compare-empty-widths", "plan-exact-l-minus-1", "plan-exact-m-0",
        "compare-exact-l-0"])
def test_bad_alpha_and_empty_lists_are_usage_errors(capsys, tmp_path,
                                                    toy_path, command,
                                                    extra):
    # these used to exit 2 "below target", 0 "ok", write a header-only
    # CSV or fall back to the default width
    dep_path = tmp_path / "dep.json"
    assert main(["plan", "--venue", toy_path, "--alpha", "0.9",
                 "--beta", "0.7", "--out", str(dep_path)]) == 0
    capsys.readouterr()
    if command == "validate":
        extra = ["--deployment", str(dep_path), *extra]
    with pytest.raises(SystemExit) as e:
        main([command, "--venue", toy_path, "--beta", "0.7", *extra])
    assert e.value.code == 3
    captured = capsys.readouterr()
    assert "error: argument" in captured.err
    assert captured.out == ""


# -- one planning model per op ----------------------------------------------


@pytest.fixture()
def model_builds(monkeypatch):
    """Counts PlanningModel constructions."""
    builds = []
    init = PlanningModel.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlanningModel, "__init__", counting)
    return builds


@pytest.mark.parametrize("solver", ["greedy", "exact", "uniform"])
def test_plan_builds_one_model(capsys, toy_path, model_builds, solver):
    code, _, _ = run(capsys, "plan", "--venue", toy_path, "--solver",
                     solver, "--alpha", "0.9", "--beta", "0.7")
    assert code == 0
    assert len(model_builds) == 1


def test_validate_mc_builds_one_model(capsys, tmp_path, toy_path,
                                      model_builds):
    dep_path = tmp_path / "dep.json"
    assert main(["plan", "--venue", toy_path, "--alpha", "0.9",
                 "--beta", "0.7", "--out", str(dep_path)]) == 0
    model_builds.clear()
    code, _, _ = run(
        capsys, "validate", "--venue", toy_path, "--deployment",
        str(dep_path), "--alpha", "0.9", "--beta", "0.7", "--mc",
        "--samples", "1000",
    )
    assert code == 0
    assert len(model_builds) == 1


@pytest.mark.parametrize("widths, builds", [
    ([], 1),
    (["--beamwidth-ap", f"{2.0 * math.pi / 3.0}"], 1),
    (["--beamwidth-ap", f"{2.0 * math.pi / 3.0},{math.pi / 2.0}"], 2),
])
def test_compare_builds_one_model_per_width(capsys, toy_path, model_builds,
                                            widths, builds):
    code, stdout, _ = run(capsys, "compare", "--venue", toy_path,
                          "--alpha", "0.5,0.9", "--beta", "0.7", *widths)
    assert code == 0
    assert len(stdout.strip().split("\n")) == 1 + 2 * builds
    assert len(model_builds) == builds
