import copy
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freefactor import (
    DomainError,
    FareyGraph,
    PreconditionError,
    RankError,
    Slope,
    Word,
    apply_automorphism,
    enumerate_whitehead_automorphisms,
    farey_distance,
    is_basis_pair,
    slope_of,
)
from freefactor import farey
from freefactor.orbit import build_boundary_pA
from freefactor.farey import exponent_sums
from freefactor.farey_graph import _inverse_mod

from conftest import W, psi_power


def oracle_dist_to_infinity(p: int, q: int, cache: dict | None = None) -> int:
    """Reference for the distance from p/q to 1/0: the memoized floor/ceil walk.

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


def farey_adjacent(s: Slope, t: Slope) -> bool:
    """Reference edge test: the determinant of the two slopes is +-1."""
    return abs(s.p * t.q - s.q * t.p) == 1


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def oracle_farey_distance(s: Slope, t: Slope) -> int:
    """Reference for ``farey_distance``: the Bezout pair from Euclid's loop."""
    if s == t:
        return 0
    g, u, v = _extended_gcd(t.p, t.q)
    p2 = u * s.p + v * s.q
    q2 = t.p * s.q - t.q * s.p
    # the matrix [[u, v], [-t.q, t.p]] has determinant 1, so p2/q2 is primitive
    return farey_distance(Slope(p2, q2), Slope(1, 0))


def oracle_target_fold(s, t) -> int:
    """Reference for ``farey_distance``: the stateless fold it replaced.

    Completes the *second* slope t to a determinant-one matrix sending it
    to 1/0, with the Bezout pair from ``pow(tp, -1, tq)`` on every call
    (t = 1/0 and integers t need none), applies it to s and folds the
    regular continued fraction of the image.
    """
    sp, sq = s[0], s[1]
    tp, tq = t[0], t[1]
    q = tp * sq - tq * sp
    if q == 0:
        return 0
    if tq == 0:
        p = sp
    elif tq == 1:
        p = sq
    else:
        u = pow(tp, -1, tq)
        p = u * sp + (1 - u * tp) // tq * sq
    if q < 0:
        q = -q
    p %= q
    if not p:
        return 1
    u, v = 1, q // p
    q, p = p, q % p
    while p:
        u, v = (u + 1 if u < v else v), u + q // p
        q, p = p, q % p
    return u + 1 if u < v else v


def oracle_held_fold(s, t) -> int:
    """Reference for ``farey_distance``: the fold it replaced, with Euclid's
    loop run to the end and no table.

    Completes the *first* slope s to a determinant-one matrix sending it to
    1/0 (s = 1/0 and integers s need no inverse, any other s the Bezout
    pair from ``pow(sp, -1, sq)``), applies it to t and folds the regular
    continued fraction of the image; stateless, so no slot.
    """
    sp, sq = s[0], s[1]
    tp, tq = t[0], t[1]
    q = sp * tq - sq * tp
    if q == 0:
        return 0
    if sq == 0:
        p = tp
    elif sq == 1:
        p = tq
    else:
        a = pow(sp, -1, sq)
        p = a * tp + (1 - a * sp) // sq * tq
    if q < 0:
        q = -q
    p %= q
    if not p:
        return 1
    u, v = 1, q // p
    q, p = p, q % p
    while p:
        u, v = (u + 1 if u < v else v), u + q // p
        q, p = p, q % p
    return u + 1 if u < v else v


def oracle_tail(q: int, p: int) -> tuple[int, int]:
    """Reference for the tail entry (X, Y) of p/q, 0 <= p < q: X is the
    distance from 1/0 to p/q and Y that of (q mod p)/p (0 for p = 0, the
    distance from 1/0 to itself), each reduced first."""
    g = math.gcd(p, q)
    x = oracle_dist_to_infinity(p // g, q // g)
    y = oracle_dist_to_infinity(q % p // g, p // g) if p else 0
    return x, y


def completion_preimage(s, p: int, q: int) -> tuple[int, int]:
    """The pair t that ``farey_distance(s, t)`` folds as p/q: the preimage
    of (p, q) under s's completion [[a, b], [-sq, sp]], whose inverse is
    [[sp, -b], [sq, a]]."""
    sp, sq = s
    if sq == 0:
        a, b = 1, 0
    else:
        a = pow(sp, -1, sq)
        b = (1 - a * sp) // sq
    return sp * p - b * q, sq * p + a * q


def oracle_farey_csr(limit: int) -> tuple[list[Slope], np.ndarray, np.ndarray]:
    """Reference for the ``FareyGraph`` vertices and CSR arrays: the determinant scan.

    For every slope p/q, walks the two families of solutions of
    p*s' - q*r' = +-1 whose coordinates stay in the box, and collects the
    neighbors in sets.
    """

    def t_interval(c0: int, step: int) -> tuple[int, int] | None:
        """Integer t with |c0 + t*step| <= limit; None means every t works."""
        if step == 0:
            return None if abs(c0) <= limit else (1, 0)
        if step < 0:
            c0, step = -c0, -step
        return (-((limit + c0) // step), (limit - c0) // step)

    slopes = [Slope(1, 0)]
    for q in range(1, limit + 1):
        for p in range(-limit, limit + 1):
            if math.gcd(p, q) == 1:
                slopes.append(Slope(p, q))
    index = {s: i for i, s in enumerate(slopes)}
    adjacency: list[set[int]] = [set() for _ in slopes]
    for i, s in enumerate(slopes):
        g, u, v = _extended_gcd(s.p, s.q)
        # p*s' - q*r' = 1 has base solution (r0, s0) = (-v, u); all
        # solutions differ by multiples of (p, q), and the second family
        # covers determinant -1.
        for r0, s0 in ((-v, u), (v, -u)):
            iv_r = t_interval(r0, s.p)
            iv_s = t_interval(s0, s.q)
            if iv_r is None:
                iv = iv_s
            elif iv_s is None:
                iv = iv_r
            else:
                iv = (max(iv_r[0], iv_s[0]), min(iv_r[1], iv_s[1]))
            for t in range(iv[0], iv[1] + 1):
                j = index.get(Slope(r0 + t * s.p, s0 + t * s.q))
                if j is not None and j != i:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    counts = np.array([len(a) for a in adjacency], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for i, nbrs in enumerate(adjacency):
        indices[indptr[i] : indptr[i + 1]] = sorted(nbrs)
    return slopes, indptr, indices


def oracle_inverse_mod(p: np.ndarray, q: np.ndarray) -> list[int]:
    """Reference for the Farey-parent denominators: one C modular inverse per slope.

    ``pow(p, -1, 1)`` is 0, and the build turns it into 1 for integers.
    """
    return [pow(x, -1, y) or 1 for x, y in zip(p.tolist(), q.tolist())]


def oracle_bfs_mask(graph: FareyGraph, source: Slope) -> np.ndarray:
    """Reference for ``FareyGraph.bfs``: a mask over a per-edge source array.

    Every level reads all CSR entries through the frontier mask
    ``dist == level``.
    """
    edge_source = np.repeat(np.arange(len(graph.slopes)), np.diff(graph.indptr))
    dist = np.full(len(graph.slopes), -1, dtype=np.int64)
    dist[graph.index[source]] = 0
    frontier = dist == 0
    level = 0
    while True:
        nbrs = graph.indices[frontier[edge_source]]
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            return dist
        level += 1
        dist[nbrs] = level
        frontier = dist == level


def oracle_bfs(graph: FareyGraph, source: Slope) -> np.ndarray:
    """Reference for ``FareyGraph.bfs``: CSR row gathers and sorted frontiers.

    Push levels only: the algorithm ``bfs`` ran before it pulled its large
    levels through ``FareyGraph.parents``.
    """
    indptr, indices = graph.indptr, graph.indices
    dist = np.full(len(graph.slopes), -1, dtype=np.int64)
    dist[graph.index[source]] = 0
    frontier = np.array([graph.index[source]], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        base = np.repeat(starts, counts)
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        nbrs = indices[base + within]
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        dist[nbrs] = level
        frontier = np.unique(nbrs)
    return dist


def closest_orbit_point(target: Slope, phi_images) -> int:
    """Index of the closest slope in a window of orbit slopes.

    Ties break to the smallest index, making the assignment deterministic.
    """
    images = list(phi_images)
    if not images:
        raise DomainError("orbit window is empty")
    best, best_d = 0, farey_distance(target, images[0])
    for j in range(1, len(images)):
        d = farey_distance(target, images[j])
        if d < best_d:
            best, best_d = j, d
    return best


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
        with pytest.raises(DomainError, match=r"slope \(0, 0\) is not allowed"):
            Slope.from_string("0/0")

    @pytest.mark.parametrize("p, q", [(1.5, 2), ("1", 2), (1, 2.0), (None, 1)])
    def test_non_integer_coordinates_rejected(self, p, q):
        with pytest.raises(DomainError, match="must be integers"):
            Slope(p, q)

    def test_numpy_coordinates_become_ints(self):
        s = Slope(np.int64(6), np.int64(-10))
        assert s == Slope(-3, 5)
        assert type(s.p) is int and type(s.q) is int
        assert str(s) == "-3/5"

    def test_hashes_and_compares_as_tuple(self):
        rng = random.Random(2)
        for _ in range(200):
            s = random_slope(rng, 10**6)
            assert hash(s) == hash((s.p, s.q))
            assert s == (s.p, s.q)
            assert tuple(s) == (s.p, s.q)
        graph = FareyGraph(6)
        for i, s in enumerate(graph.slopes):
            assert graph.index[(s.p, s.q)] == i

    def test_immutable(self):
        s = Slope(2, 3)
        with pytest.raises(AttributeError):
            s.p = 5
        with pytest.raises(AttributeError):
            s.r = 5
        assert s == Slope(2, 3)

    @pytest.mark.parametrize("roundtrip", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy,
    ])
    def test_pickle_and_copy_keep_slope(self, roundtrip):
        for s in (Slope(-4, 6), Slope(-7, 0), Slope(0, -3), Slope(10**20, 3)):
            r = roundtrip(s)
            assert type(r) is Slope
            assert r == s and (r.p, r.q) == (s.p, s.q)

    def test_make_and_replace_normalize(self):
        assert Slope._make((2, -4)) == Slope(-1, 2)
        assert Slope._make([-3, 0]) == Slope(1, 0)
        assert type(Slope._make((2, 4))) is Slope
        assert Slope(1, 2)._replace(p=4) == Slope(2, 1)
        assert Slope(1, 2)._replace(q=-3) == Slope(-1, 3)
        assert Slope(1, 2)._replace(p=6, q=-4) == Slope(-3, 2)
        with pytest.raises(DomainError):
            Slope._make((0, 0))
        with pytest.raises(DomainError):
            Slope(0, 1)._replace(q=0)

    def test_str_and_repr(self):
        assert str(Slope(-6, 10)) == "-3/5"
        assert str(Slope(5, 0)) == "1/0"
        assert repr(Slope(-6, 10)) == "Slope(p=-3, q=5)"
        assert repr(Slope(1, 0)) == "Slope(p=1, q=0)"


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


def oracle_exponent_sums(w: Word) -> tuple[int, int]:
    """The generator-pass form that ``exponent_sums`` replaced."""
    p = sum(1 if l == 1 else -1 for l in w.letters if abs(l) == 1)
    q = sum(1 if l == 2 else -1 for l in w.letters if abs(l) == 2)
    return p, q


class TestExponentSums:
    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=60))
    @settings(max_examples=150)
    def test_matches_generator_form(self, letters):
        w = Word.from_letters(letters, 2)
        assert exponent_sums(w) == oracle_exponent_sums(w)

    def test_boundary_automorphism_images(self):
        psi = build_boundary_pA()
        w = W("x")
        for _ in range(8):
            w = psi_power(psi, w)
            assert exponent_sums(w) == oracle_exponent_sums(w)


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
            su = Slope(*exponent_sums(u))
            sv = Slope(*exponent_sums(v))
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
        infinity = Slope(1, 0)
        for q in range(401):
            for p in range(-400, 401):
                if math.gcd(p, q) == 1:
                    assert farey_distance(Slope(p, q), infinity) == oracle_dist_to_infinity(
                        p, q, cache
                    ), (p, q)

    def test_matches_oracle_on_random_slopes(self):
        rng = random.Random(7)
        infinity = Slope(1, 0)
        for _ in range(10**5):
            s = random_slope(rng, 10**6)
            assert farey_distance(s, infinity) == oracle_dist_to_infinity(
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

    def test_matches_extended_gcd_reference(self):
        rng = random.Random(17)
        bound = 10**18

        def draw() -> Slope:
            kind = rng.randrange(4)
            if kind == 0:
                return Slope(1, 0)
            if kind == 1:
                return Slope(rng.randint(-bound, bound), 1)
            return random_slope(rng, bound)

        for _ in range(10**4):
            s, t = draw(), draw()
            assert farey_distance(s, t) == oracle_farey_distance(s, t), (s, t)

    def test_rows_with_held_first_slope_match_target_fold(self):
        # criterion 07's rows: one source held, every inner slope swept
        graph = FareyGraph(12)
        inner = [s for s in graph.slopes if abs(s.p) <= 12 and s.q <= 12]
        for s in inner:
            for t in inner:
                assert farey_distance(s, t) == oracle_target_fold(s, t), (s, t)

    def test_interleaved_held_slopes_match_target_fold(self):
        # held slopes a, b, a, ... call by call and row by row, so that a
        # stale completion of the previous first slope would show
        rng = random.Random(23)
        for bound in (50, 10**6, 10**18):
            held = [random_slope(rng, bound) for _ in range(6)]
            targets = [random_slope(rng, bound) for _ in range(40)]
            for a, b in itertools.permutations(held, 2):
                for i, t in enumerate(targets):
                    s = a if i % 2 == 0 else b
                    assert farey_distance(s, t) == oracle_target_fold(s, t), (s, t)
                for s in (a, b, a):
                    for t in targets[:8]:
                        assert farey_distance(s, t) == oracle_target_fold(s, t), (s, t)

    def test_equal_slopes_and_tuples_as_held_argument(self):
        rng = random.Random(29)
        for bound in (30, 10**18):
            for _ in range(100):
                s, t = random_slope(rng, bound), random_slope(rng, bound)
                expected = oracle_target_fold(s, t)
                # a fresh equal Slope, the plain tuple, then the slope again
                for held in (s, Slope(s.p, s.q), (s.p, s.q), s):
                    assert farey_distance(held, t) == expected, (held, t)
                assert farey_distance((t.p, t.q), s) == expected
                assert farey_distance((s.p, s.q), (t.p, t.q)) == expected

    def test_infinity_and_integers_on_either_side(self):
        rng = random.Random(31)
        bound = 10**18
        specials = [Slope(1, 0), (1, 0), Slope(0, 1), Slope(-1, 1), Slope(bound, 1)]
        specials += [Slope(rng.randint(-bound, bound), 1) for _ in range(20)]
        others = specials + [random_slope(rng, n) for n in (5, 10**6, bound) for _ in range(20)]
        for s in specials:
            for t in others:
                assert farey_distance(s, t) == oracle_target_fold(s, t), (s, t)
                assert farey_distance(t, s) == oracle_target_fold(t, s), (t, s)

    def test_huge_slopes_match_target_fold(self):
        rng = random.Random(37)
        bound = 10**18
        for _ in range(200):
            s = random_slope(rng, bound)
            for _ in range(10):
                t = random_slope(rng, bound)
                assert farey_distance(s, t) == oracle_target_fold(s, t), (s, t)
                assert farey_distance(t, s) == oracle_target_fold(s, t), (t, s)

    def test_threads_sharing_the_held_slot(self, monkeypatch):
        # every thread holds its own first slope; whichever completion the
        # slot holds when a thread reads it, the distance is right.  The
        # tail table starts empty, so the threads also fill entries
        # concurrently, and every entry they fill must be the oracle's.
        monkeypatch.setattr(farey, "_tail", bytearray(len(farey._tail)))
        rng = random.Random(41)
        rows = [(random_slope(rng, 10**9), [random_slope(rng, 10**9) for _ in range(300)])
                for _ in range(4)]
        wrong = []

        def sweep(s, targets):
            for _ in range(5):
                for t in targets:
                    if farey_distance(s, t) != oracle_target_fold(s, t):
                        wrong.append((s, t))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=row) for row in rows]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong, wrong[:5]
        table = farey._tail
        filled = [(i >> 7, i & 127) for i, e in enumerate(table) if e]
        assert filled
        for q, p in filled:
            e = table[q << 7 | p]
            assert (e & 15, e >> 4) == oracle_tail(q, p), (p, q)

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


class TestTailTable:
    def test_every_entry_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(farey, "_tail", bytearray(len(farey._tail)))
        for q in range(1, 128):
            for p in range(q):
                farey._tail_entry(q, p)
        table = farey._tail
        assert sum(1 for e in table if e) == 128 * 127 // 2
        for q in range(128):
            for p in range(128):
                e = table[q << 7 | p]
                if p >= q:
                    assert e == 0, (p, q)  # no fraction, no entry
                else:
                    assert (e & 15, e >> 4) == oracle_tail(q, p), (p, q)

    def test_distances_fill_their_entries_lazily(self, monkeypatch):
        monkeypatch.setattr(farey, "_tail", bytearray(len(farey._tail)))
        assert farey_distance(Slope(1, 0), Slope(13, 21)) == 4
        # 13/21, 8/13, 5/8, 3/5, 2/3, 1/2, 0/1: one entry per Euclid step
        filled = {(i & 127, i >> 7) for i, e in enumerate(farey._tail) if e}
        assert filled == {(13, 21), (8, 13), (5, 8), (3, 5), (2, 3), (1, 2), (0, 1)}
        assert farey_distance(Slope(1, 0), Slope(13, 21)) == 4

    @pytest.mark.parametrize("crossing", [127, 128, 129])
    def test_folds_crossing_the_table_edge(self, crossing):
        # fractions whose Euclid chain has the denominator `crossing`: the
        # fraction r/crossing itself, and 1/(a + r/crossing) one and two
        # quotients up, folded from several held slopes
        rng = random.Random(crossing)
        held = [(1, 0), (-1, 0), (0, 1), (5, 1), (-3, 7), (13, 21), (10**9 + 7, 10**9 + 9)]
        fractions = []
        for r in range(crossing):
            if math.gcd(r, crossing) != 1:
                continue
            fractions.append((r, crossing))
            a = rng.randint(1, 300)
            p1, q1 = crossing, a * crossing + r
            fractions.append((p1, q1))
            fractions.append((q1, rng.randint(1, 5) * q1 + p1))
        for s in held:
            for p, q in fractions:
                t = completion_preimage(s, p, q)
                expected = oracle_dist_to_infinity(p, q)
                assert oracle_held_fold(s, t) == expected, (s, t)
                assert farey_distance(s, t) == expected, (s, t)
                assert farey_distance(t, s) == expected, (t, s)

    def test_matches_held_fold_on_box_and_far_pairs(self):
        graph = FareyGraph(20)
        inner = [s for s in graph.slopes if abs(s.p) <= 20 and s.q <= 20]
        for s in inner:
            for t in inner:
                assert farey_distance(s, t) == oracle_held_fold(s, t), (s, t)
        rng = random.Random(43)
        for bound, count in ((10**6, 1500), (10**18, 3000)):
            for _ in range(count):
                s, t = random_slope(rng, bound), random_slope(rng, bound)
                assert farey_distance(s, t) == oracle_held_fold(s, t), (s, t)
                assert farey_distance(t, s) == oracle_held_fold(t, s), (t, s)

    def test_common_factor_of_the_second_pair_is_divided_out(self):
        # Euclid ends at p = 0 with q the common factor g, on either side of
        # the table's edge
        rng = random.Random(47)
        for s in [(1, 0), (0, 1), (2, 1), (-3, 7), (34, 55)]:
            for _ in range(40):
                t = random_slope(rng, 10**4)
                for g in (2, 127, 128, 129, 1000, 10**9):
                    scaled = (g * t.p, g * t.q)
                    assert farey_distance(s, scaled) == farey_distance(s, t), (s, t, g)

    def test_import_fills_no_entry(self):
        # a fresh interpreter: the table is built by use, not at import
        src = os.path.dirname(os.path.dirname(os.path.abspath(farey.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = (
            "import freefactor, freefactor.cli; "
            "print(len(freefactor.farey._tail), any(freefactor.farey._tail))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["16384", "False"]


class TestBadPairs:
    @pytest.mark.parametrize("s, t", [((0, 0), (1, 2)), ((1, 2), (0, 0)), ((0, 0), (0, 0))])
    def test_zero_pair(self, s, t):
        with pytest.raises(DomainError):
            farey_distance(s, t)

    @pytest.mark.parametrize("t", [(1, 3), (1, 2), (0, 1), (1, 0)])
    def test_non_primitive_first_pair(self, t):
        # (2, 4) against (1, 2) has determinant 0; against the others its
        # completion has no modular inverse
        with pytest.raises(DomainError):
            farey_distance((2, 4), t)

    @pytest.mark.parametrize("t", [(1, 3), (1, 0), (5, 1)])
    def test_first_pair_with_q_zero_must_be_one_over_zero(self, t):
        with pytest.raises(DomainError):
            farey_distance((2, 0), t)
        assert farey_distance((-1, 0), t) == farey_distance((1, 0), t)

    def test_a_bad_pair_leaves_the_held_slot_working(self):
        assert farey_distance((3, 5), (1, 2)) == oracle_held_fold((3, 5), (1, 2))
        with pytest.raises(DomainError):
            farey_distance((6, 10), (1, 2))
        for t in [(1, 2), (7, 9), (-4, 5)]:
            assert farey_distance((3, 5), t) == oracle_held_fold((3, 5), t)

    @pytest.mark.parametrize(
        "s, t",
        [
            ((1, 0), (1.0, 3.0)),  # a float at the table read
            ((3.0, 5.0), (1, 7)),  # a float first pair
            ((1, 0), (1.0, 0.0)),  # the q = 0 exit
            ((1, 0), (0.0, 1000.0)),  # the p = 0 exit of Euclid's loop
            ((1, 0), (0.5, 1000.0)),  # floats through Euclid's loop
            ((1, 0), ("1", 3)),
            ((1, 0), (1j, 3)),
            ((1,), (1, 2)),
            (None, (1, 2)),
            ((1, 0), (np.float64(1.0), np.float64(3.0))),  # numpy floats
            ((np.float64(3.0), np.float64(5.0)), (1, 7)),
            ((np.int64(3), np.int64(5)), (np.float64(1.0), 7)),
            ((np.int64(3), np.int64(5)), ("1", 7)),
        ],
    )
    def test_non_integer_pairs(self, s, t):
        # with the slot holding another slope, and holding s's value
        for held in ((1, 2), (1, 0), (3, 5)):
            farey_distance(held, (1, 3))
            with pytest.raises(DomainError):
                farey_distance(s, t)
        assert farey_distance((3, 5), (1, 2)) == oracle_held_fold((3, 5), (1, 2))

    @pytest.mark.parametrize("t", [(1, 7), (1000, 1), (-355, 113), (10**6 + 1, 10**6)])
    def test_numpy_first_pair_reads_as_ints(self, t):
        expected = oracle_held_fold((3, 5), t)
        farey_distance((1, 0), (1, 2))  # the slot holds another slope
        assert farey_distance((np.int64(3), np.int64(5)), t) == expected
        # and now the slot holds (3, 5)
        assert farey_distance((np.int64(3), np.int64(5)), t) == expected
        assert farey_distance((3, 5), t) == expected

    @pytest.mark.parametrize("s, t", [
        ((1, 0), (0, 1000)),
        ((1, 0), (3 * 1000, 7 * 1000)),
        ((3, 5), (200, 400)),
    ])
    def test_numpy_pair_with_a_large_common_factor(self, s, t):
        # numpy divides by zero without raising; the pairs are read as ints
        # before the fold, so it stops at p = 0, and entry 0 stays unfilled
        expected = oracle_held_fold(s, t)
        with np.errstate(divide="ignore"):
            for a, b in ((s, np.array(t)), (np.array(s), t), (np.array(s), np.array(t))):
                farey_distance((1, 2), (1, 3))  # the slot holds another slope
                for _ in range(2):
                    d = farey_distance(tuple(a), tuple(b))
                    assert d == expected and type(d) is int, (a, b, d)
            assert farey_distance((1, 0), (np.int64(0), np.int64(1000))) == 1
        assert farey._tail[0] == 0

    def test_numpy_pair_past_int64_products(self):
        # sp * tq and sq * tp leave int64, where numpy products wrap
        t = (np.int64(-3447570584521229372), np.int64(543804029693342781))
        with np.errstate(over="ignore"):
            assert farey_distance((3, 5), t) == 28
        assert oracle_held_fold((3, 5), tuple(map(int, t))) == 28

    @pytest.mark.parametrize("s, t, expected", [
        ((2**70 + 1, 1), (np.int64(1), np.int64(2)), 3),
        ((np.int64(3), np.int64(5)), (2**70 + 1, 1), 4),
        ((np.int64(1), np.int64(2)), (2**70 + 1, 1), 3),
        ((1, 0), (np.int64(1), 2**80), 2),
    ])
    def test_python_int_past_int64_against_a_numpy_int(self, s, t, expected):
        # the determinant's product raises OverflowError in numpy, and the
        # pair is read as Python ints
        assert oracle_held_fold(tuple(map(int, s)), tuple(map(int, t))) == expected
        for held in ((1, 2), tuple(map(int, s))):
            farey_distance(held, (1, 3))
            d = farey_distance(s, t)
            assert d == expected and type(d) is int, (s, t, d)

    @pytest.mark.parametrize("s, t", [
        ((10**400, 1), (1.0, 2.0)),
        ((1.0, 2.0), (10**400, 1)),
        ((np.float64(1.0), np.float64(2.0)), (10**400, 1)),
    ])
    def test_python_int_past_a_float_is_a_domain_error(self, s, t):
        with pytest.raises(DomainError):
            farey_distance(s, t)
        assert farey_distance((3, 5), (1, 2)) == oracle_held_fold((3, 5), (1, 2))

    def test_seeded_numpy_pairs_match_int_pairs(self):
        rng = random.Random(2101)
        limit = 2**62
        wrapped = 0
        for _ in range(300):
            while True:
                s = (rng.randint(-limit, limit), rng.randint(1, limit))
                if math.gcd(*s) == 1:
                    break
            t = (rng.randint(-limit, limit), rng.randint(0, limit))
            if t == (0, 0):
                continue
            q = s[0] * t[1] - s[1] * t[0]
            wrapped += not -(2**63) <= q < 2**63
            expected = oracle_held_fold(s, t)
            with np.errstate(over="ignore"):
                for a, b in ((np.array(s), t), (s, np.array(t)), (np.array(s), np.array(t))):
                    d = farey_distance(tuple(a), tuple(b))
                    assert d == expected and type(d) is int, (s, t, d)
            assert farey_distance(s, t) == expected
        assert wrapped > 200

    def test_non_primitive_second_pair_is_its_reduced_slope(self):
        assert farey_distance((1, 0), (2, 4)) == farey_distance((1, 0), (1, 2)) == 2
        assert farey_distance((1, 2), (2, 4)) == 0
        assert farey_distance((3, 5), (-6, 0)) == farey_distance((3, 5), (1, 0))


class TestFareyGraph:
    @pytest.mark.parametrize("limit", [*range(1, 41), 128])
    def test_csr_matches_determinant_scan(self, limit):
        graph = FareyGraph(limit)
        slopes, indptr, indices = oracle_farey_csr(limit)
        assert graph.slopes == slopes
        assert graph.indptr.dtype == indptr.dtype
        assert graph.indices.dtype == indices.dtype
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.indices, indices)

    @pytest.mark.parametrize("limit", [*range(1, 41), 128])
    def test_parents_match_determinant_scan(self, limit):
        graph = FareyGraph(limit)
        _, indptr, indices = oracle_farey_csr(limit)
        n = len(graph.slopes)
        assert graph.parents.dtype == np.int64 and graph.parents.shape == (2, n)
        child = np.broadcast_to(np.arange(n), (2, n))
        real = graph.parents != child
        pairs = list(zip(child[real].tolist(), graph.parents[real].tolist()))
        assert len(set(pairs)) == len(pairs)  # each child-parent pair once
        edges = set(zip(np.repeat(np.arange(n), np.diff(indptr)).tolist(), indices.tolist()))
        assert set(pairs) | {(p, c) for c, p in pairs} == edges
        assert 2 * len(pairs) == len(indices)
        # the self slots: 1/0 in both, -limit/1 in its first
        assert graph.parents[:, 0].tolist() == [0, 0]
        assert np.flatnonzero(~real[0]).tolist() == [0, graph.index[(-limit, 1)]]
        assert np.flatnonzero(~real[1]).tolist() == [0]

    @pytest.mark.parametrize("limit", [1, 2, 24, 128])
    def test_inverse_mod_matches_pow(self, limit):
        graph = FareyGraph(limit)
        p = np.array([s.p for s in graph.slopes[1:]], dtype=np.int64)
        q = np.array([s.q for s in graph.slopes[1:]], dtype=np.int64)
        assert (q == 1).sum() == 2 * limit + 1  # every integer slope is here
        b = _inverse_mod(p, q)
        assert b.tolist() == [pow(x, -1, y) for x, y in zip(p.tolist(), q.tolist())]
        b[b == 0] = 1
        assert b.tolist() == oracle_inverse_mod(p, q)

    def test_bfs_matches_oracle_from_every_vertex(self):
        graph = FareyGraph(24)
        for s in graph.slopes:
            dist = graph.bfs(s)
            assert dist.dtype == np.int64
            assert np.array_equal(dist, oracle_bfs_mask(graph, s)), s
            assert np.array_equal(dist, oracle_bfs(graph, s)), s

    def test_bfs_matches_oracle_on_seeded_sources(self):
        graph = FareyGraph(128)
        for s in random.Random(9).sample(graph.slopes, 200):
            dist = graph.bfs(s)
            assert dist.dtype == np.int64
            assert np.array_equal(dist, oracle_bfs_mask(graph, s)), s
            assert np.array_equal(dist, oracle_bfs(graph, s)), s

    def test_bfs_matches_oracles_on_seeded_sources_at_256(self):
        # about a third of these levels pull, and they hold most vertices
        graph = FareyGraph(256)
        for s in random.Random(11).sample(graph.slopes, 100):
            dist = graph.bfs(s)
            assert np.array_equal(dist, oracle_bfs_mask(graph, s)), s
            assert np.array_equal(dist, oracle_bfs(graph, s)), s

    def test_bfs_result_is_a_fresh_int64_array(self):
        graph = FareyGraph(40)
        first = graph.bfs(Slope(1, 0))
        assert first.dtype == np.int64 and first.shape == (len(graph.slopes),)
        assert first.flags.owndata
        first[:] = 7  # a caller's write reaches neither the graph nor the next result
        assert np.array_equal(graph.bfs(Slope(1, 0)), oracle_bfs(graph, Slope(1, 0)))

    def test_bfs_accepts_plain_tuple_source(self):
        graph = FareyGraph(8)
        assert np.array_equal(graph.bfs((0, 1)), graph.bfs(Slope(0, 1)))
        with pytest.raises(DomainError):
            graph.bfs((2, 4))  # not normalized, so not a vertex

    @pytest.mark.parametrize("limit", [2.5, "3", None])
    def test_non_integer_limit_rejected(self, limit):
        with pytest.raises(DomainError, match="limit must be an integer"):
            FareyGraph(limit)

    def test_numpy_limit_accepted(self):
        graph = FareyGraph(np.int64(5))
        assert type(graph.limit) is int
        assert graph.slopes == FareyGraph(5).slopes

    def test_target_outside_box_is_a_domain_error(self):
        graph = FareyGraph(4)
        assert graph.distance(Slope(1, 0), Slope(4, 1)) == 1
        with pytest.raises(DomainError):
            graph.distance(Slope(1, 0), Slope(9, 1))
        with pytest.raises(DomainError):
            graph.distance(Slope(9, 1), Slope(1, 0))


class TestProjection:
    def test_standard_factor(self):
        assert slope_of(W("x")) == Slope(1, 0)

    def test_inner_automorphisms_act_trivially(self, b2):
        for k in (-2, 1, 3):
            gen = (b2**k) * W("x") * (b2**-k)
            assert slope_of(gen) == Slope(1, 0)

    def test_twisted_factor(self):
        psi = build_boundary_pA()
        assert slope_of(psi_power(psi, W("x"))) == Slope(1, 1)


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
            images[j] = psi_power(psi, images[j - 1], 1)
            images[-j] = psi_power(psi, images[-(j - 1)], -1)
        slopes = {j: Slope(*exponent_sums(w)) for j, w in images.items()}
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
                farey_distance(Slope(1, 0), Slope(*exponent_sums(word)))
            )
            word = psi_power(psi, word, 1)
        assert distances[0] == 0
        # strictly increasing start, linear lower bound over the window
        assert all(distances[j] < distances[j + 1] for j in range(8))
        assert all(distances[j] >= (j + 2) // 3 for j in range(13))
        assert distances[12] >= 4
