"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with its runtime.  Tolerances are pinned here, not deferred.
"""

import random
import time

from freefactor import (
    AxesEqualError,
    Classification,
    FareyGraph,
    b_index,
    boundary_word,
    classify,
    exp_basis_change,
    exp_cancellation,
    exp_fzero_fiber,
    exp_lipschitz,
    exp_quasiflat,
    exp_twist_stability,
    factor_invariant,
    farey_distance,
    geometric_index,
    minimize_cyclic_length,
    random_word,
    run_experiment,
)

from conftest import deep_factor, oracle_quasiflat_pairs, random_element


def _verdict(num: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({elapsed:.1f}s) {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_boundary_words_minimize_to_twice_rank():
    t0 = time.perf_counter()
    ok = True
    for rank in (2, 3, 4):
        w = boundary_word(rank)
        cert = minimize_cyclic_length(w)
        ok &= len(cert.minimized) == 2 * rank
        ok &= classify(w) == Classification.FILLING
    elapsed = time.perf_counter() - t0
    _verdict(1, "boundary words minimize to 2N and fill (N=2,3,4)", ok, elapsed)
    assert elapsed < 60


def test_criterion_02_edge_difference_bound():
    t0 = time.perf_counter()
    r3 = exp_lipschitz(3, trials=1000, seed=20)
    r2 = exp_lipschitz(2, trials=1000, seed=20)
    ok = r3.violations == 0 and r2.violations == 0
    # the invariants are exact, so every edge meets the unwidened bound
    for report, bound in ((r3, 1), (r2, 2)):
        for trial in report.trials:
            ok &= trial["delta"] == abs(trial["value_a"] - trial["value_b"])
            ok &= trial["delta"] <= bound
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "invariant differs by <=1 (N=3) / <=2 (N=2) across 1000 sampled edges",
        ok,
        elapsed,
    )
    assert elapsed < 120


def test_criterion_03_triple_conjugation_retention():
    t0 = time.perf_counter()
    report = exp_cancellation(2, trials=1000, seed=21)
    ok = report.violations == 0
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        "b^3 a b^-3 keeps its first/last |b|+1 letters and has exponent >= 1",
        ok,
        elapsed,
    )
    assert elapsed < 60


def test_criterion_04_exponent_spread_within_factor():
    t0 = time.perf_counter()
    violations = 0
    for rank in (2, 3):
        b = boundary_word(rank)
        rng = random.Random(1000 + rank)
        for _ in range(500):
            factor = deep_factor(rng, rank, b)
            # exact exponent range over all of the factor; the minimum is
            # minus the invariant along b^-1
            hi = factor_invariant(factor, b).value
            lo = -factor_invariant(factor, b.inverse()).value
            samples = (random_element(factor, rng), random_element(factor, rng))
            if hi - lo > 1 or not all(lo <= b_index(a, b) <= hi for a in samples):
                violations += 1
    ok = violations == 0
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        "exponents over every element of one proper factor span <= 1, "
        "sampled elements inside (1000 factors)",
        ok,
        elapsed,
    )


def test_criterion_05_zero_fiber():
    t0 = time.perf_counter()
    report = exp_fzero_fiber(2, k_lo=-10, k_hi=10)
    ok = (
        report.violations == 0
        and report.summary["zero_fiber_size"] <= 3
        and report.summary["injective_off_fiber"]
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        5, "zero fiber of k -> [b^k x b^-k] has size <= 3, injective off it",
        ok, elapsed,
    )


def test_criterion_06_geometric_equals_combinatorial():
    t0 = time.perf_counter()
    ok = True
    for rank in (2, 3):
        b = boundary_word(rank)
        rng = random.Random(2000 + rank)
        checked = 0
        while checked < 500:
            a = random_word(rng.randint(1, 40), rank, rng)
            if a.is_identity():
                continue
            try:
                geo = geometric_index(a, b)
            except AxesEqualError:
                continue
            ok &= geo == b_index(a, b)
            checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        6, "axis-projection index equals the combinatorial exponent "
        "(1000 random words, N in {2,3})", ok, elapsed,
    )


def test_criterion_07_farey_distance_exhaustive():
    t0 = time.perf_counter()
    graph = FareyGraph(128)
    inner = [s for s in graph.slopes if abs(s.p) <= 50 and s.q <= 50]
    index = graph.index
    mismatches = []
    for s in inner:
        dist = graph.bfs(s).tolist()
        for t in inner:
            if t.q > s.q or (t.q == s.q and t.p >= s.p):
                continue  # each unordered pair once
            if farey_distance(s, t) != dist[index[t]]:
                mismatches.append((s, t))
    if mismatches:
        # distances in a truncated graph can only overshoot; recheck wider
        wide = FareyGraph(256)
        mismatches = [
            (s, t)
            for s, t in mismatches
            if farey_distance(s, t) != wide.distance(s, t)
        ]
    ok = not mismatches
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        f"continued-fraction distance equals BFS for all {len(inner)} slopes "
        "with |p|,|q| <= 50",
        ok,
        elapsed,
    )
    assert elapsed < 60


def test_criterion_08_quasiflat_grid():
    t0 = time.perf_counter()
    quasi = exp_quasiflat(8)
    stab = exp_twist_stability(8)
    # every pair, counted one by one, on or above the line that the
    # report's lower envelope certifies
    pairs = oracle_quasiflat_pairs(quasi, quasi.summary["upper_bound_unit"])
    ok_fit = quasi.summary["fit_slope"] > 0 and pairs["pairs_below_line"] == 0
    ok_psi = quasi.summary["pure_psi_strictly_increasing"]
    ok_stab = stab.violations == 0 and stab.summary["sup_displacement"] == 0
    ok = ok_fit and ok_psi and ok_stab and quasi.violations == 0
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        "radius-8 orbit grid: positive fitted slope with no pair below the "
        "line, strictly growing pure-psi displacement, zero psi-displacement "
        "over every r >= 0 and k",
        ok,
        elapsed,
    )
    assert elapsed < 600


def test_criterion_09_basis_change_stabilizes():
    t0 = time.perf_counter()
    report = exp_basis_change(2, trials=1000, seed=22)
    ok = (
        report.violations == 0
        and report.summary["stabilized"]
        and report.summary["checkpoint"] == 100
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        "basis-change spread: running max constant from 100 to 1000 trials",
        ok,
        elapsed,
    )


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    runs = [
        ("lipschitz", {"trials": 50, "seed": 9}),
        ("cancellation", {"trials": 50, "seed": 9}),
        ("zero-fiber", {"k_lo": -6, "k_hi": 6}),
        ("basis-change", {"trials": 50, "seed": 9}),
        ("quasiflat", {"radius": 3}),
        ("boundary-length", {}),
        ("twist-stability", {"radius": 3}),
    ]
    ok = True
    for name, kwargs in runs:
        first = run_experiment(name, **kwargs).to_json()
        second = run_experiment(name, **kwargs).to_json()
        ok &= first == second
    elapsed = time.perf_counter() - t0
    _verdict(10, "every experiment is byte-identical under a fixed seed", ok, elapsed)
