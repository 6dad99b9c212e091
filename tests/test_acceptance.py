"""Release gate: eight checks, one verdict line each.

Every test prints a single PASS/FAIL line through ``_verdict``; the
conftest terminal-summary hook repeats the collected lines after the run
so the verdicts are visible without -s.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from conftest import random_toy
from mmwplan import (
    ChannelParams,
    InfeasibleError,
    McConfig,
    approximation_bound,
    audit_greedy_prices,
    build_scenarios,
    connectivity_probability,
    exact_place,
    generate_venue,
    greedy_place,
    link_profile,
    main_lobe_gain,
    monte_carlo_connectivity,
    monte_carlo_coverage,
    path_loss_db,
)

ACCEPTANCE_LINES = []

TIGHT = ChannelParams(capacity_per_beam=3)


def _verdict(num, label, ok, detail):
    line = f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _ids(bits):
    return [l for l in range(4) if bits >> l & 1]


def _partition(venue, params, m):
    profiles = [link_profile(venue, params, m, l)
                for l in range(venue.n_candidates)]
    return build_scenarios(venue, m, profiles)


# -- 1: exact solver vs unpruned enumeration --------------------------------


def test_criterion_1_exact_matches_flat_enumeration():
    matches = 0
    slowest = 0.0
    for i in range(30):
        venue = random_toy(1000 + i)
        alpha = 0.55 if i % 3 == 0 else 0.70
        t0 = time.perf_counter()
        try:
            dep = exact_place(venue, TIGHT, alpha, 0.65)
            got = (len(dep.selected), dep.normalized_coverage)
        except InfeasibleError:
            got = None
        slowest = max(slowest, time.perf_counter() - t0)
        want = oracles.flat_minimum_count(venue, TIGHT, alpha, 0.65)
        if want is None:
            matches += got is None
        else:
            matches += (
                got is not None
                and got[0] == want[0]
                and abs(got[1] - want[1]) < 1e-9
            )
    _verdict(
        1, "minimum count vs flat enumeration",
        matches == 30 and slowest < 10.0,
        f"({matches}/30 randomized rooms agree, slowest solve "
        f"{slowest:.2f}s < 10s)",
    )


# -- 2: connectivity vs pattern enumeration and sampling --------------------


def test_criterion_2_connectivity_probabilities():
    rng = np.random.default_rng(424)
    enum_ok = 0
    sampled_ok = 0
    for j in range(20):
        venue = random_toy(2000 + j)
        m = int(rng.integers(0, venue.n_grid))
        size = int(rng.integers(1, venue.n_candidates + 1))
        s = sorted(
            rng.choice(venue.n_candidates, size=size, replace=False)
            .tolist()
        )
        part = _partition(venue, TIGHT, m)
        got = connectivity_probability(part, s)
        want = oracles.pattern_connectivity(part, s)
        enum_ok += abs(got - want) < 1e-12
        mc = monte_carlo_connectivity(
            venue, TIGHT, m, s, McConfig(n_samples=100000, seed=900 + j)
        )
        sampled_ok += bool(mc["within_3sigma"])
    _verdict(
        2, "closed-form connectivity",
        enum_ok == 20 and sampled_ok >= 19,
        f"({enum_ok}/20 match pattern enumeration at 1e-12, "
        f"{sampled_ok}/20 sampled runs within 3 sigma, need 19)",
    )


# -- 3 and 4 share one sweep ------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    venues = [generate_venue("toy"), random_toy(77)]
    rows = []
    for alpha in (0.55, 0.65, 0.75, 0.85, 0.95):
        for beta in (0.7, 0.9):
            for wi in (8, 10, 12):
                params = ChannelParams().with_beamwidths(
                    ap_beamwidth=wi * math.pi / 15.0
                )
                for venue in venues:
                    try:
                        greedy, trace = greedy_place(
                            venue, params, alpha, beta
                        )
                    except InfeasibleError:
                        greedy = trace = None
                    try:
                        exact = exact_place(venue, params, alpha, beta)
                    except InfeasibleError:
                        exact = None
                    rows.append((venue, greedy, trace, exact))
    return rows


def test_criterion_3_bound_and_audit_hold(sweep):
    paired = comparable = th1_ok = audit_ok = 0
    for venue, greedy, trace, exact in sweep:
        if greedy is None or exact is None:
            continue
        paired += 1
        bound = approximation_bound(trace, exact, venue)
        if bound["comparable"]:
            comparable += 1
            th1_ok += (
                bound["observed_ratio"]
                <= bound["analytic_ratio"] + 1e-9
            )
        audit_ok += audit_greedy_prices(trace, exact, venue)["ok"]
    _verdict(
        3, "worst-case bound and price audit",
        paired >= 50 and th1_ok == comparable and audit_ok == paired,
        f"({len(sweep)} runs, {paired} paired, bound holds "
        f"{th1_ok}/{comparable} comparable, audit clean "
        f"{audit_ok}/{paired})",
    )


def test_criterion_4_greedy_stays_close(sweep):
    paired = close = more_ap = cov_ge = 0
    for venue, greedy, trace, exact in sweep:
        if greedy is None or exact is None:
            continue
        paired += 1
        gap = len(greedy.selected) - len(exact.selected)
        close += 0 <= gap <= 3
        if gap > 0:
            more_ap += 1
            cov_ge += (
                greedy.normalized_coverage
                >= exact.normalized_coverage - 1e-9
            )
    second = (
        "no runs with extra APs, coverage clause vacuous"
        if more_ap == 0
        else f"coverage at least exact's in {cov_ge}/{more_ap} "
        f"extra-AP runs, need 80%"
    )
    second_ok = more_ap == 0 or cov_ge >= 0.8 * more_ap
    _verdict(
        4, "greedy count gap",
        paired > 0 and close >= 0.9 * paired and second_ok,
        f"(gap in 0..3 for {close}/{paired} paired runs, need 90%; "
        f"{second})",
    )


# -- 5: monotonicity --------------------------------------------------------


def test_criterion_5_monotone_in_targets():
    alphas = (0.2, 0.4, 0.6, 0.75, 0.9)
    rooms_ok = 0
    for i in range(10):
        venue = random_toy(3000 + i)
        counts = []
        for alpha in alphas:
            try:
                counts.append(
                    len(exact_place(venue, TIGHT, alpha, 0.65).selected)
                )
            except InfeasibleError:
                counts.append(None)
        ok = True
        for a, b in zip(counts, counts[1:]):
            if a is None:
                ok &= b is None
            elif b is not None:
                ok &= b >= a
        rooms_ok += ok

    rng = np.random.default_rng(55)
    cases = grew = 0
    parts = []
    for seed in range(4000, 4005):
        venue = random_toy(seed)
        for m in range(venue.n_grid):
            parts.append(_partition(venue, TIGHT, m))
    # random subsets of the 4 toy mounts: bit l of an integer picks id l
    full = (1 << 4) - 1
    while cases < 10000:
        part = parts[int(rng.integers(0, len(parts)))]
        small = int(rng.integers(0, full + 1))
        big = small | int(rng.integers(0, full + 1))
        grew += (
            connectivity_probability(part, _ids(small))
            <= connectivity_probability(part, _ids(big)) + 1e-15
        )
        cases += 1
    _verdict(
        5, "monotone targets and unions",
        rooms_ok == 10 and grew == cases,
        f"(count non-decreasing in alpha for {rooms_ok}/10 rooms; "
        f"union probability monotone in {grew}/{cases} sampled pairs)",
    )


# -- 6: radiation and loss anchors ------------------------------------------


def test_criterion_6_channel_anchors():
    rng = np.random.default_rng(606)
    normed = 0
    for w in rng.uniform(0.05, 2.0 * math.pi - 0.05, 100):
        g = main_lobe_gain(float(w))
        normed += abs(g * (1.0 - math.cos(w / 2.0)) / 2.0 - 1.0) < 1e-12
    reference = path_loss_db(ChannelParams(), 1.0, True)
    _verdict(
        6, "gain normalization and loss reference",
        normed == 100 and reference == 70.0,
        f"(solid-angle normalization exact for {normed}/100 widths; "
        f"1 m line-of-sight loss {reference} dB)",
    )


# -- 7: built-in venues end to end ------------------------------------------


def test_criterion_7_builtin_venues():
    params = ChannelParams()
    outcomes = []
    ok = True
    for kind in ("hall", "airport", "stadium"):
        venue = generate_venue(kind)

        def attempt():
            try:
                dep, _ = greedy_place(venue, params, 0.75, 0.9)
                return dep, None
            except InfeasibleError as exc:
                return exc.partial, exc

        t0 = time.perf_counter()
        dep, err = attempt()
        elapsed = time.perf_counter() - t0
        dep2, _ = attempt()
        stable = (
            json.dumps(dep.to_dict(), sort_keys=True)
            == json.dumps(dep2.to_dict(), sort_keys=True)
        )
        if err is None:
            good = dep.normalized_coverage >= 0.75
            outcomes.append(
                f"{kind} {len(dep.selected)} aps "
                f"{dep.normalized_coverage:.2f} in {elapsed:.1f}s"
            )
        else:
            # an honest refusal needs actionable diagnostics
            good = (
                err.diagnostics.get("achieved_normalized") is not None
                and err.partial is not None
            )
            outcomes.append(
                f"{kind} infeasible at "
                f"{err.diagnostics['achieved_normalized']:.2f} "
                f"in {elapsed:.1f}s"
            )
        ok &= good and stable and elapsed < 60.0
    _verdict(
        7, "built-in venues", ok,
        "(" + "; ".join(outcomes) + "; reruns byte-identical)",
    )


# -- 8: determinism ---------------------------------------------------------


def test_criterion_8_determinism():
    params = ChannelParams()
    toy = random_toy(77)
    blobs = set()
    for _ in range(5):
        dep, trace = greedy_place(toy, params, 0.75, 0.7)
        blobs.add(json.dumps(
            {"dep": dep.to_dict(), "trace": trace.to_dict()},
            sort_keys=True,
        ))
    repeats_ok = len(blobs) == 1

    mc = McConfig(n_samples=30000, seed=13)
    mc_a = monte_carlo_connectivity(toy, params, 1, [0, 2], mc)
    mc_b = monte_carlo_connectivity(toy, params, 1, [0, 2], mc)
    dep, _ = greedy_place(toy, params, 0.75, 0.7)
    cov_a = monte_carlo_coverage(toy, params, dep, 0.7, mc)
    cov_b = monte_carlo_coverage(toy, params, dep, 0.7, mc)
    mc_ok = mc_a == mc_b and cov_a == cov_b

    _verdict(
        8, "bit-exact reproducibility",
        repeats_ok and mc_ok,
        f"(5 repeats identical {repeats_ok}, sampled reports {mc_ok})",
    )
