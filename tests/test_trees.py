import random

import pytest

from freefactor import (
    AxesEqualError,
    AxisInterval,
    DomainError,
    IdentityWordError,
    NotCyclicallyReducedError,
    RankError,
    Word,
    b_index,
    fold,
    geometric_index,
    parse_word,
    project_axis_to_axis,
    random_free_factor,
    random_word,
)
from freefactor.factors import _forced_stem
from freefactor.words import _require_axis_word, boundary_word

from conftest import W, deep_factor, random_cyclically_reduced, reduced_loops


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

    def test_interval_endpoints(self, b2):
        with pytest.raises(DomainError):
            AxisInterval(b2, 1, 0)
        assert AxisInterval(b2, -5, -1).power_hull() == (-2, 0)
        assert AxisInterval(b2, 4, 4).power_hull() == (1, 1)


# The exact overlap of a subgroup's minimal subtree with the axis of b, a
# reference for the tests below: with it, test_proper_factor_overlap_bounded
# checks that a proper free factor's overlap is at most |b| long.


class UnboundedOverlapError(DomainError):
    """A power of b lies in the subgroup, so its subtree/axis overlap is infinite."""


def subtree_axis_overlap(generators, b: Word) -> AxisInterval:
    """Overlap of the minimal subtree of H = <generators> with the axis of
    b, read exactly off the folded core graph.

    The Cayley tree covers the core graph with trees hung on its free
    slots, and the minimal subtree is the preimage of the graph minus its
    hair: the vertices of the forced stem before its end vertex.  Reading
    b^inf, then b^-inf, from the basepoint walks the axis until a read
    fails; the axis has then entered a hung tree, which it never leaves.
    The overlap is the hull of the positions read onto vertices off the
    hair.  If none is, the subtree misses the axis and projects to the
    point where the stem leaves it, the farthest position either read
    reached.  A block vertex (position divisible by |b|) reached twice
    means some power of b lies in H, whose axis is the axis of b:
    UnboundedOverlapError.

    Each read visits at most V block vertices, so the cost is O(V * |b|).
    """
    _require_axis_word(b)
    gens = [g for g in generators if not g.is_identity()]
    if not gens:
        raise DomainError("need at least one nontrivial generator")
    graph = fold(gens, b.rank)
    adj = graph._adj
    hair = set()
    cur = graph.basepoint
    for letter in _forced_stem(graph)[0]:
        hair.add(cur)
        cur = adj[cur][letter]
    inside: list[int] = []
    reach: list[int] = []
    for sign, block in ((1, b.letters), (-1, b.inverse().letters)):
        m = len(block)
        cur = graph.basepoint
        blocks: dict[int, int] = {}
        t = 0
        while cur is not None:
            if t % m == 0:
                if cur in blocks:
                    power = t // m - blocks[cur]
                    name = "b" if power == 1 else f"b^{power}"
                    raise UnboundedOverlapError(
                        f"{name} lies in the subgroup; the overlap is the "
                        "whole axis of b"
                    )
                blocks[cur] = t // m
            if cur not in hair:
                inside.append(sign * t)
            cur = adj[cur].get(block[t % m])
            t += 1
        reach.append(sign * (t - 1))
    if not inside:
        inside.append(reach[0] or reach[1])
    return AxisInterval(b, min(inside), max(inside))


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
            if checked % 25 == 0:  # a power of b shares its axis
                a = b ** rng.choice((-2, -1, 1, 2))
            else:
                a = random_word(rng.randint(1, 40), rank, rng)
            if a.is_identity():
                continue
            assert geometric_index(a, b) == b_index(a, b), a
            checked += 1

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_shared_axis_is_zero(self, rank):
        # X_a = X_b: the projection is the whole axis, whose power hull
        # contains 0
        b = boundary_word(rank)
        for n in (-3, -2, -1, 1, 2, 3):
            with pytest.raises(AxesEqualError):
                project_axis_to_axis(b**n, b)
            assert geometric_index(b**n, b) == b_index(b**n, b) == 0

    @pytest.mark.parametrize("rank", [2, 3])
    def test_identity_is_zero(self, rank):
        # the identity fixes the whole tree: its projection is the whole
        # axis, as for a shared axis, while the projection itself still
        # refuses it
        b, one = boundary_word(rank), Word.identity(rank)
        assert geometric_index(one, b) == b_index(one, b) == 0
        with pytest.raises(IdentityWordError):
            project_axis_to_axis(one, b)

    def test_identity_still_checks_b_and_rank(self, b2):
        with pytest.raises(NotCyclicallyReducedError):
            geometric_index(Word.identity(2), W("xyX"))
        with pytest.raises(RankError):
            geometric_index(Word.identity(3), b2)


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
        subgroups = [deep_factor(rng, rank, b).generators for _ in range(150)]
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
