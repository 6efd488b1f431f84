import random

import pytest

from freefactor import (
    AxesEqualError,
    DomainError,
    IdentityWordError,
    NotCyclicallyReducedError,
    RankError,
    UnboundedOverlapError,
    Word,
    b_index,
    cyclic_reduce,
    distance_to_axis,
    fold,
    geometric_index,
    parse_word,
    project_axis_to_axis,
    random_free_factor,
    random_word,
    subtree_axis_overlap,
)
from freefactor.experiments import _random_deep_factor, boundary_word

from conftest import W, random_cyclically_reduced, reduced_loops


def axis_vertices(a: Word, span: int) -> list[Word]:
    """Oracle: explicit axis vertices g * (prefixes of core^+-inf)."""
    dec = cyclic_reduce(a)
    g, core = dec.conjugator, dec.core
    points = []
    fwd = core.letters * (span // len(core) + 1)
    bwd = core.inverse().letters * (span // len(core) + 1)
    for t in range(span + 1):
        points.append(g * Word.from_letters(fwd[:t], a.rank))
        if t:
            points.append(g * Word.from_letters(bwd[:t], a.rank))
    return points


class TestDistanceToAxis:
    def test_basepoint_on_axis(self, b2):
        assert distance_to_axis(Word.identity(2), b2) == (0, Word.identity(2))

    def test_conjugate_axis(self):
        a = W("xy", 3) * Word((3,), 3) * W("xy", 3).inverse()  # xy z (xy)^-1
        d, foot = distance_to_axis(Word.identity(3), a)
        assert (d, foot) == (2, W("xy", 3))

    def test_offset_point(self):
        d, foot = distance_to_axis(W("x"), W("y"))
        assert (d, foot) == (1, Word.identity(2))

    def test_identity_axis_rejected(self):
        with pytest.raises(IdentityWordError):
            distance_to_axis(W("x"), Word.identity(2))

    def test_matches_explicit_enumeration(self):
        rng = random.Random(17)
        for _ in range(50):
            a = random_word(rng.randint(1, 10), 2, rng)
            if cyclic_reduce(a).core.is_identity():
                continue
            p = random_word(rng.randint(0, 8), 2, rng)
            d, foot = distance_to_axis(p, a)
            span = len(p) + len(a) + d + 2
            candidates = axis_vertices(a, span)
            best = min(len((v.inverse() * p)) for v in candidates)
            assert d == best
            assert len(foot.inverse() * p) == d
            assert foot in candidates


class TestProjection:
    def test_shared_first_edge(self, b2):
        iv = project_axis_to_axis(W("x"), b2)
        assert (iv.lo_position, iv.hi_position) == (0, 1)
        assert iv.power_hull() == (0, 1)

    def test_equal_axes_rejected(self, b2):
        with pytest.raises(AxesEqualError):
            project_axis_to_axis(b2, b2)
        with pytest.raises(AxesEqualError):
            project_axis_to_axis(b2**3, b2)
        with pytest.raises(AxesEqualError):
            project_axis_to_axis(b2**-2, b2)

    def test_translated_axis_is_fine(self, b2):
        # conjugating b^2 by a word outside <b> translates the axis; the
        # projection is the single vertex where the translate touches X_b
        iv = project_axis_to_axis(W("yx") * b2**2 * W("XY"), b2)
        assert iv.lo_position == iv.hi_position == -2

    def test_identity_rejected(self, b2):
        with pytest.raises(IdentityWordError):
            project_axis_to_axis(Word.identity(2), b2)

    def test_deep_conjugate(self, b2):
        a = (b2**2) * W("x") * (b2**-2)
        iv = project_axis_to_axis(a, b2)
        assert (iv.lo_position, iv.hi_position) == (8, 9)

    def test_disjoint_axes_give_point(self, b2):
        a = W("yy") * W("x") * W("YY")
        iv = project_axis_to_axis(a, b2)
        assert iv.lo_position == iv.hi_position


@pytest.mark.parametrize("b", ["1", "xyX"])
@pytest.mark.parametrize(
    "axis_of",
    [
        lambda b: project_axis_to_axis(W("x"), b),
        lambda b: subtree_axis_overlap([W("x")], b),
    ],
    ids=["project_axis_to_axis", "subtree_axis_overlap"],
)
def test_axis_word_must_be_cyclically_reduced(axis_of, b):
    with pytest.raises(NotCyclicallyReducedError):
        axis_of(W(b))


class TestGeometricIndex:
    def test_zero(self, b2):
        assert geometric_index(W("x"), b2) == 0

    def test_positive(self, b2):
        assert geometric_index((b2**2) * W("x") * (b2**-2), b2) == 2

    def test_negative(self, b2):
        assert geometric_index((b2**-3) * W("y") * (b2**3), b2) == -3

    @pytest.mark.parametrize("rank", [2, 3])
    def test_agrees_with_combinatorial(self, rank):
        b = boundary_word(rank)
        rng = random.Random(rank * 100)
        checked = 0
        while checked < 250:
            a = random_word(rng.randint(1, 40), rank, rng)
            if a.is_identity():
                continue
            try:
                geo = geometric_index(a, b)
            except AxesEqualError:
                continue
            assert geo == b_index(a, b), a
            checked += 1


def oracle_subtree_axis_overlap(generators, b, depth, unbounded_multiple=6):
    """The product sampler that subtree_axis_overlap replaced:
    (lo, hi, stabilized).

    The hull of the axis projections of every product of at most ``depth``
    generators (freely reduced indices), a lower approximation of the
    overlap; ``stabilized`` says whether it stopped growing between depths
    depth-1 and depth.  An element sharing the axis of b, or a hull longer
    than ``unbounded_multiple * |b|``, raises UnboundedOverlapError.
    """
    gen_words = [g for g in generators if not g.is_identity()]
    lo = hi = None
    hulls = []
    signed = [i + 1 for i in range(len(gen_words))]
    signed += [-i for i in signed]
    frontier = [((), Word.identity(b.rank))]
    for _ in range(depth):
        new_frontier = []
        for idx_word, prod in frontier:
            for s in signed:
                if idx_word and s == -idx_word[-1]:
                    continue
                g = gen_words[abs(s) - 1]
                w = prod * (g if s > 0 else g.inverse())
                new_frontier.append((idx_word + (s,), w))
                if w.is_identity():
                    continue
                try:
                    iv = project_axis_to_axis(w, b)
                except AxesEqualError as exc:
                    raise UnboundedOverlapError(f"{w} shares the axis of b") from exc
                lo = iv.lo_position if lo is None else min(lo, iv.lo_position)
                hi = iv.hi_position if hi is None else max(hi, iv.hi_position)
                if hi - lo > unbounded_multiple * len(b):
                    raise UnboundedOverlapError(f"hull reached {hi - lo} letters")
        frontier = new_frontier
        hulls.append((lo, hi))
    return lo, hi, len(hulls) >= 2 and hulls[-1] == hulls[-2]


def positions(iv):
    return iv.lo_position, iv.hi_position


def assert_within(hull, exact, context):
    assert exact[0] <= hull[0] and hull[1] <= exact[1], (context, hull, exact)


class TestSubtreeOverlap:
    def test_single_axis(self, b2):
        assert positions(subtree_axis_overlap([W("x")], b2)) == (0, 1)
        assert oracle_subtree_axis_overlap([W("x")], b2, depth=2) == (0, 1, True)

    def test_two_generator_factor_bounded(self, b3):
        gens = [W("x", 3), W("y", 3)]
        lo, hi = positions(subtree_axis_overlap(gens, b3))
        assert hi - lo <= len(b3)
        assert_within(oracle_subtree_axis_overlap(gens, b3, 4)[:2], (lo, hi), gens)

    def test_b_itself_unbounded(self, b2):
        with pytest.raises(UnboundedOverlapError):
            subtree_axis_overlap([b2], b2)
        with pytest.raises(UnboundedOverlapError):
            subtree_axis_overlap([b2**-3], b2)

    def test_subgroup_containing_b_unbounded(self, b2):
        # <x, yxY> contains x * (yxY)^-1 == b
        with pytest.raises(UnboundedOverlapError):
            subtree_axis_overlap([W("x"), W("yxY")], b2)

    def test_conjugate_of_b_bounded(self, b2):
        # the axis of y b^2 Y is the translate y.X_b; it meets X_b in the
        # edge from y to yx (positions -1, -2), and <y b^2 Y> holds no
        # power of b
        gen = W("y") * b2**2 * W("Y")
        assert positions(subtree_axis_overlap([gen], b2)) == positions(
            project_axis_to_axis(gen, b2)
        ) == (-2, -1)

    def test_stem_exit_point(self, b2):
        # <yyxYY> misses X_b; its subtree hangs off the axis at y (position -1)
        assert positions(subtree_axis_overlap([W("yyxYY")], b2)) == (-1, -1)
        # <XXyxx> misses X_b and leaves it at the identity
        assert positions(subtree_axis_overlap([W("XXyxx")], b2)) == (0, 0)

    def test_bad_input(self, b2):
        with pytest.raises(DomainError):
            subtree_axis_overlap([Word.identity(2)], b2)
        with pytest.raises(DomainError):
            subtree_axis_overlap([W("x")], W("xyX"))
        with pytest.raises(RankError):
            subtree_axis_overlap([W("x", 3)], b2)

    def test_regression_hull_that_claimed_stability(self):
        # the depth-4 sampler returned [0, 2] flagged stabilized, yet
        # xyXYz lies in H and projects to [0, 5]
        b = parse_word("xyXYzaZA", 4)
        gens = [parse_word(w, 4) for w in ("zxZ", "zy", "z")]
        assert oracle_subtree_axis_overlap(gens, b, 4) == (0, 2, True)
        element = parse_word("xyXYz", 4)
        assert fold(gens, 4).contains(element)
        assert positions(project_axis_to_axis(element, b)) == (0, 5)
        assert positions(subtree_axis_overlap(gens, b)) == (0, 5)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_cyclic_subgroups_match_projection(self, rank):
        # the minimal subtree of <w> is the axis of w, so the overlap is the
        # projection of X_w onto X_b, unbounded exactly when the axes agree
        rng = random.Random(900 + rank)
        bs = [boundary_word(rank)] + [
            random_cyclically_reduced(rng, rank, 8) for _ in range(5)
        ]
        unbounded = bounded_powers = 0
        for i in range(2000):
            b = bs[i % len(bs)]
            g = random_word(rng.randint(0, 6), rank, rng)
            if i % 4 == 0:
                w = b ** rng.choice((-3, -2, -1, 1, 2, 3))
            elif i % 4 == 1:
                w = random_cyclically_reduced(rng, rank, 10)
            else:
                w = random_word(rng.randint(1, 14), rank, rng)
            w = w.conjugated_by((b ** rng.randint(-2, 2)) * g if i % 3 else g)
            if w.is_identity():
                continue
            try:
                expected = positions(project_axis_to_axis(w, b))
            except AxesEqualError:
                with pytest.raises(UnboundedOverlapError):
                    subtree_axis_overlap([w], b)
                unbounded += 1
                continue
            assert positions(subtree_axis_overlap([w], b)) == expected, (w, b)
            bounded_powers += i % 4 == 0
        assert unbounded >= 50 and bounded_powers >= 100

    @pytest.mark.parametrize("rank", [2, 3])
    def test_oracle_hull_within_exact(self, rank):
        b = boundary_word(rank)
        rng = random.Random(40 + rank)
        subgroups = [_random_deep_factor(rng, rank, b).generators for _ in range(150)]
        subgroups += [
            [random_word(rng.randint(1, 8), rank, rng) for _ in range(rng.randint(1, 3))]
            for _ in range(150)
        ]
        checked = 0
        for gens in subgroups:
            try:
                exact = positions(subtree_axis_overlap(gens, b))
            except UnboundedOverlapError:
                continue
            try:
                lo, hi, _ = oracle_subtree_axis_overlap(gens, b, 3)
            except UnboundedOverlapError:
                # only the hull-length heuristic can fire on a bounded overlap
                assert exact[1] - exact[0] > 6 * len(b), gens
                continue
            assert_within((lo, hi), exact, gens)
            checked += 1
        assert checked >= 250

    @pytest.mark.parametrize("rank,max_len,count", [(2, 12, 100), (3, 10, 50)])
    def test_short_loops_within_exact(self, rank, max_len, count):
        # every reduced basepoint loop is an element of H; the hull of their
        # axis projections lies in the overlap, and on graphs this small
        # almost always fills it
        b = boundary_word(rank)
        rng = random.Random(60 + rank)
        checked = equal = 0
        while checked < count:
            gens = [random_word(rng.randint(1, 6), rank, rng) for _ in range(rng.randint(1, 2))]
            graph = fold(gens, rank)
            if graph.num_edges == 0 or graph.num_edges > 8:
                continue
            try:
                exact = positions(subtree_axis_overlap(gens, b))
            except UnboundedOverlapError:
                continue
            lo = hi = None
            for loop in reduced_loops(graph, max_len):
                iv = project_axis_to_axis(Word(loop, rank), b)
                lo = iv.lo_position if lo is None else min(lo, iv.lo_position)
                hi = iv.hi_position if hi is None else max(hi, iv.hi_position)
            assert_within((lo, hi), exact, gens)
            checked += 1
            equal += (lo, hi) == exact
        assert equal >= 0.9 * count

    @pytest.mark.parametrize("rank", [2, 3])
    def test_proper_factor_overlap_bounded(self, rank):
        # the overlap of a proper free factor's subtree is at most |b| long,
        # and contains the depth-4 sampler's hull
        b = boundary_word(rank)
        rng = random.Random(rank)
        for i in range(500):
            factor = random_free_factor(
                rank, rng.randint(1, rank - 1), rng.randint(0, 4), rng
            )
            exact = positions(subtree_axis_overlap(factor.generators, b))
            assert exact[1] - exact[0] <= len(b), factor.describe()
            if i % 10 == 0:
                hull = oracle_subtree_axis_overlap(factor.generators, b, 4)[:2]
                assert_within(hull, exact, factor.describe())


class TestBridge:
    def test_gap_covered_by_product_axis(self, b2):
        # disjoint projections: the connecting arc lies in the projection
        # of the product's axis
        rng = random.Random(71)
        checked = 0
        while checked < 40:
            g1 = random_word(rng.randint(0, 6), 2, rng)
            g2 = random_word(rng.randint(0, 6), 2, rng)
            a1 = W("x").conjugated_by(g1)
            a2 = W("y").conjugated_by(g2)
            prod = a1 * a2
            if prod.is_identity():
                continue
            try:
                i1 = project_axis_to_axis(a1, b2)
                i2 = project_axis_to_axis(a2, b2)
                ip = project_axis_to_axis(prod, b2)
            except AxesEqualError:
                continue
            if i1.hi_position < i2.lo_position:
                gap = (i1.hi_position, i2.lo_position)
            elif i2.hi_position < i1.lo_position:
                gap = (i2.hi_position, i1.lo_position)
            else:
                continue
            assert ip.lo_position <= gap[0] and gap[1] <= ip.hi_position
            checked += 1
