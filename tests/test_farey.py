import itertools
import math
import random
import tracemalloc

import pytest

from freefactor import (
    DomainError,
    FareyGraph,
    FreeFactorVertex,
    PreconditionError,
    RankError,
    Slope,
    apply_automorphism,
    closest_orbit_point,
    enumerate_whitehead_automorphisms,
    farey_adjacent,
    farey_distance,
    is_basis_pair,
    of2_project,
    slope_of,
)
from freefactor.experiments import build_boundary_pA
from freefactor.farey import _dist_to_infinity

from conftest import W


def oracle_dist_to_infinity(p: int, q: int, cache: dict | None = None) -> int:
    """Reference for ``_dist_to_infinity``: the memoized floor/ceil walk.

    d(1/0, x) = 1 + min over the two flanking integers n of d(n, x), and
    moving n to 1/0 turns d(n, x) into a subproblem with a strictly smaller
    denominator.  Iterative over ``cache``; one state per step of each
    partial quotient, so O(sum of partial quotients) time and memory.
    """
    if cache is None:
        cache = {}
    if q == 0:
        return 0
    if q == 1:
        return 1
    p %= q
    stack = [(p, q)]
    while stack:
        r, den = stack[-1]
        if (r, den) in cache:
            stack.pop()
            continue
        children = []
        for d2 in (r, den - r):
            if d2 == 1:
                children.append(1)
            else:
                key = (den % d2, d2)
                val = cache.get(key)
                if val is None:
                    stack.append(key)
                    children = None
                    break
                children.append(val)
        if children is not None:
            cache[(r, den)] = 1 + min(children)
            stack.pop()
    return cache[(p, q)]


def random_slope(rng, bound: int) -> Slope:
    return Slope(rng.randint(-bound, bound), rng.randint(1, bound))


class TestSlope:
    def test_normalization(self):
        assert Slope(2, 4) == Slope(1, 2)
        assert Slope(-1, -2) == Slope(1, 2)
        assert Slope(-3, 0) == Slope(1, 0)
        assert Slope(0, -5) == Slope(0, 1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            Slope(0, 0)

    def test_parsing(self):
        assert Slope.from_string("1/0") == Slope(1, 0)
        assert Slope.from_string("-3/5") == Slope(-3, 5)
        with pytest.raises(DomainError):
            Slope.from_string("3")


class TestSlopeOf:
    def test_generator(self):
        assert slope_of(W("x")) == Slope(1, 0)

    def test_conjugation_invariant(self):
        assert slope_of(W("yxY")) == Slope(1, 0)

    def test_twisted(self):
        assert slope_of(W("xy")) == Slope(1, 1)

    def test_non_primitive_rejected(self):
        with pytest.raises(PreconditionError):
            slope_of(W("xx"))

    def test_rank_guard(self):
        with pytest.raises(RankError):
            slope_of(W("x", 3))


class TestAdjacency:
    def test_standard_edge(self):
        assert farey_adjacent(Slope(1, 0), Slope(0, 1))

    def test_determinant_two(self):
        assert not farey_adjacent(Slope(1, 0), Slope(1, 2))

    def test_basis_pairs_project_to_edges(self):
        rng = random.Random(13)
        table = enumerate_whitehead_automorphisms(2)
        for _ in range(25):
            chain = [rng.choice(table) for _ in range(rng.randint(0, 5))]
            u = apply_automorphism(chain, W("x"))
            v = apply_automorphism(chain, W("y"))
            assert is_basis_pair(u, v)
            su = slope_of(u, assume_primitive=True)
            sv = slope_of(v, assume_primitive=True)
            assert farey_adjacent(su, sv)
            assert farey_distance(su, sv) == 1


class TestDistance:
    def test_same_slope(self):
        assert farey_distance(Slope(3, 5), Slope(3, 5)) == 0

    def test_adjacent(self):
        assert farey_distance(Slope(1, 0), Slope(0, 1)) == 1

    def test_known_values_from_infinity(self):
        expected = {(0, 1): 1, (1, 2): 2, (2, 3): 2, (2, 5): 3, (3, 5): 3,
                    (5, 8): 3, (5, 12): 4, (13, 21): 4}
        for (p, q), d in expected.items():
            assert farey_distance(Slope(1, 0), Slope(p, q)) == d

    def test_exhaustive_against_bfs_small_box(self):
        graph = FareyGraph(24)
        inner = [s for s in graph.slopes if abs(s.p) <= 8 and s.q <= 8]
        for s in inner:
            dist = graph.bfs(s)
            for t in inner:
                assert farey_distance(s, t) == dist[graph.index[t]], (s, t)

    def test_metric_properties_sampled(self):
        rng = random.Random(3)
        slopes = [Slope(rng.randint(-20, 20), rng.randint(0, 20) or 1) for _ in range(25)]
        for s, t in itertools.combinations(slopes, 2):
            assert farey_distance(s, t) == farey_distance(t, s)
            assert (farey_distance(s, t) == 0) == (s == t)
        for s, t, u in itertools.combinations(slopes[:12], 3):
            assert farey_distance(s, u) <= farey_distance(s, t) + farey_distance(t, u)


class TestContinuedFractionFold:
    def test_matches_oracle_on_box(self):
        cache = {}
        for q in range(401):
            for p in range(-400, 401):
                if math.gcd(p, q) == 1:
                    assert _dist_to_infinity(p, q) == oracle_dist_to_infinity(
                        p, q, cache
                    ), (p, q)

    def test_matches_oracle_on_random_slopes(self):
        rng = random.Random(7)
        for _ in range(10**5):
            s = random_slope(rng, 10**6)
            assert _dist_to_infinity(s.p, s.q) == oracle_dist_to_infinity(
                s.p, s.q
            ), s

    def test_huge_partial_quotient(self):
        assert farey_distance(Slope(1, 0), Slope(1, 10**12)) == 2
        assert farey_distance(Slope(1, 10**12), Slope(1, 0)) == 2

    def test_automorphism_invariance_and_symmetry_large(self):
        rng = random.Random(11)
        for _ in range(2000):
            s, t = random_slope(rng, 10**18), random_slope(rng, 10**18)
            d = farey_distance(s, t)
            assert d == farey_distance(t, s)
            shifted = farey_distance(Slope(s.p + s.q, s.q), Slope(t.p + t.q, t.q))
            inverted = farey_distance(Slope(-s.q, s.p), Slope(-t.q, t.p))
            assert d == shifted == inverted, (s, t)

    def test_memory_stays_bounded(self):
        rng = random.Random(5)
        pairs = [(random_slope(rng, 10**6), random_slope(rng, 10**6)) for _ in range(500)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for s, t in pairs:
                farey_distance(s, t)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20, retained


class TestFareyGraph:
    def test_target_outside_box_is_a_domain_error(self):
        graph = FareyGraph(4)
        assert graph.distance(Slope(1, 0), Slope(4, 1)) == 1
        with pytest.raises(DomainError):
            graph.distance(Slope(1, 0), Slope(9, 1))
        with pytest.raises(DomainError):
            graph.distance(Slope(9, 1), Slope(1, 0))


class TestProjection:
    def test_standard_factor(self):
        assert of2_project(FreeFactorVertex((W("x"),), 2)) == Slope(1, 0)

    def test_inner_automorphisms_act_trivially(self, b2):
        for k in (-2, 1, 3):
            gen = (b2**k) * W("x") * (b2**-k)
            assert of2_project(FreeFactorVertex((gen,), 2)) == Slope(1, 0)

    def test_twisted_factor(self):
        psi = build_boundary_pA()
        assert of2_project(FreeFactorVertex((psi.apply(W("x")),), 2)) == Slope(1, 1)


class TestClosestOrbitPoint:
    def test_exact_hit(self):
        orbit = [Slope(1, 0), Slope(1, 1), Slope(2, 3), Slope(5, 8), Slope(13, 21)]
        assert closest_orbit_point(Slope(2, 3), orbit) == 2

    def test_adjacent_target(self):
        orbit = [Slope(5, 8), Slope(1, 0)]
        assert closest_orbit_point(Slope(0, 1), orbit) == 1

    def test_empty_window(self):
        with pytest.raises(DomainError):
            closest_orbit_point(Slope(1, 0), [])

    def test_matches_scan_and_window_is_sufficient(self):
        psi = build_boundary_pA()
        x = W("x")
        images = {0: x}
        for j in range(1, 9):
            images[j] = psi.apply(images[j - 1], 1)
            images[-j] = psi.apply(images[-(j - 1)], -1)
        slopes = {j: slope_of(w, assume_primitive=True) for j, w in images.items()}
        window = [slopes[j] for j in range(-6, 7)]
        widened = [slopes[j] for j in range(-8, 9)]
        rng = random.Random(4)
        for _ in range(25):
            target = Slope(rng.randint(-30, 30), rng.randint(0, 30) or 1)
            j = closest_orbit_point(target, window)
            distances = [farey_distance(target, s) for s in window]
            assert distances[j] == min(distances)
            assert j == distances.index(min(distances))
            j_wide = closest_orbit_point(target, widened)
            wide_distances = [farey_distance(target, s) for s in widened]
            assert wide_distances[j_wide] == min(distances)  # window sufficed


class TestLoxodromicOrbit:
    def test_growth_along_orbit(self):
        psi = build_boundary_pA()
        x = W("x")
        word = x
        distances = []
        for j in range(13):
            distances.append(
                farey_distance(Slope(1, 0), slope_of(word, assume_primitive=True))
            )
            word = psi.apply(word, 1)
        assert distances[0] == 0
        # strictly increasing start, linear lower bound over the window
        assert all(distances[j] < distances[j + 1] for j in range(8))
        assert all(distances[j] >= (j + 2) // 3 for j in range(13))
        assert distances[12] >= 4
