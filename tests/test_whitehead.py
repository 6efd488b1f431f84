import functools
import itertools
import math
import pickle
import random

import numpy as np
import pytest

from freefactor import (
    Classification,
    DomainError,
    IdentityWordError,
    RankError,
    Word,
    WhAutomorphism,
    apply_automorphism,
    classify,
    cyclic_reduce,
    enumerate_whitehead_automorphisms,
    find_cut_vertex,
    fold,
    is_primitive,
    minimize_cyclic_length,
    random_word,
    whitehead_graph,
)
from freefactor import whitehead
from freefactor.orbit import build_boundary_pA
from freefactor.words import boundary_word
from freefactor.whitehead import (
    MinimizationCertificate,
    _edge_matrix,
    _multiplier_move_at,
    _random_multiplier_move,
    _signed_permutation_at,
    vertex_order,
)

from conftest import W, oracle_letter_image, psi_power


def graph_from_edges(rank, edges):
    """Whitehead graph matrix built by hand from a list of letter pairs."""
    col = {v: i for i, v in enumerate(vertex_order(rank))}
    g = [[0] * (2 * rank) for _ in range(2 * rank)]
    for u, v in edges:
        g[col[u]][col[v]] += 1
        g[col[v]][col[u]] += 1
    return tuple(map(tuple, g))


def degree(g, v):
    return sum(g[vertex_order(len(g) // 2).index(v)])


def edge_count(g):
    return sum(map(sum, g)) // 2


class TestWhiteheadGraph:
    def test_commutator_is_four_cycle(self, b2):
        g = whitehead_graph(b2)
        # cycle x - y^-1 - x^-1 - y - x
        expected = graph_from_edges(2, ((1, -2), (-1, -2), (-1, 2), (1, 2)))
        assert g == expected
        assert all(type(row) is tuple and all(type(c) is int for c in row) for row in g)
        assert edge_count(g) == 4
        assert all(degree(g, v) == 2 for v in vertex_order(2))

    def test_square_doubles_edge(self):
        g = whitehead_graph(W("xx"))
        assert g == graph_from_edges(2, ((1, -1), (1, -1)))
        assert degree(g, 2) == 0 and degree(g, -2) == 0

    def test_xy_disconnected(self):
        g = whitehead_graph(W("xy"))
        assert g == graph_from_edges(2, ((1, -2), (-1, 2)))

    def test_identity_rejected(self):
        with pytest.raises(IdentityWordError):
            whitehead_graph(W("xX"))

    def test_edge_count_is_cyclic_length(self):
        rng = random.Random(3)
        for _ in range(40):
            w = random_word(rng.randint(1, 20), 3, rng)
            if cyclic_reduce(w).core.is_identity():
                continue
            g = whitehead_graph(w)
            assert edge_count(g) == len(cyclic_reduce(w).core)

    def test_degree_counts_letter_occurrences(self):
        rng = random.Random(4)
        for _ in range(40):
            w = random_word(rng.randint(1, 20), 2, rng)
            core = cyclic_reduce(w).core
            if core.is_identity():
                continue
            g = whitehead_graph(w)
            for v in vertex_order(2):
                occurrences = sum(1 for l in core.letters if l in (v, -v))
                assert degree(g, v) == occurrences


class TestCutVertex:
    def test_cycle_has_none(self, b2):
        assert find_cut_vertex(whitehead_graph(b2)) is None

    def test_disconnected_has_one(self):
        # any disconnected graph on >= 3 vertices has a cut vertex
        assert find_cut_vertex(whitehead_graph(W("xy"))) == 1

    def test_square_graph(self):
        assert find_cut_vertex(whitehead_graph(W("xx"))) == 1

    def test_path_graph_interior(self):
        g = graph_from_edges(2, ((1, 2), (2, -1), (-1, -2)))  # path x-y-X-Y
        v = find_cut_vertex(g)
        assert v in (2, -1)  # an interior vertex

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_edge_list_oracle(self, rank):
        # minimized words, where the cut vertex decides the classification,
        # and the random words they came from, whose graphs can be connected
        # and still have a cut vertex
        verdicts = set()
        for core in _random_cores(rank, 500, seed=50 + rank, lengths=(2, 20)):
            for word in (core, minimize_cyclic_length(core).minimized):
                expected = oracle_find_cut_vertex(word)
                assert find_cut_vertex(whitehead_graph(word)) == expected, word
                verdicts.add(expected)
        # no cut vertex, and a cut at the first vertex and at a later one
        assert {None, 1} < verdicts


def oracle_find_cut_vertex(w: Word) -> int | None:
    """The cut-vertex search over a sorted edge list of letter pairs.

    This was the library's Whitehead graph before the edge-multiplicity
    matrix became its only form; it stays here as the reference for the
    differential test.
    """

    def vkey(v):
        return (abs(v), 0 if v > 0 else 1)

    ls = cyclic_reduce(w).core.letters
    edges = sorted(
        (tuple(sorted((ls[i], -ls[(i + 1) % len(ls)]), key=vkey)) for i in range(len(ls))),
        key=lambda e: (vkey(e[0]), vkey(e[1])),
    )
    verts = sorted((v for i in range(1, w.rank + 1) for v in (i, -i)), key=vkey)
    adj = {v: set() for v in verts}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for v in verts:
        rest = [u for u in verts if u != v]
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb != v and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) < len(rest):
            return v
    return None


def oracle_permutation_automorphisms(rank):
    """All signed permutations of the generators (identity included), in the
    order ``itertools.permutations`` x ``itertools.product((1, -1))``."""
    return tuple(
        WhAutomorphism.permutation_move(tuple(s * p for s, p in zip(signs, perm)), rank)
        for perm in itertools.permutations(range(1, rank + 1))
        for signs in itertools.product((1, -1), repeat=rank)
    )


def oracle_table(phi):
    """phi's letter-image table, laid out as ``WhAutomorphism.table``, from
    the per-letter oracle."""
    table = [()] * (2 * phi.rank + 1)
    for letter in vertex_order(phi.rank):
        table[letter] = oracle_letter_image(phi, letter)
    return tuple(table)


@functools.lru_cache(maxsize=None)
def oracle_multiplier_moves(rank):
    """Multiplier moves by multiplier a in vertex order, then by the set Z.

    The sets run in the order of the bit mask over the other letters (bit i
    for the i-th other letter): ``itertools.product`` over those letters in
    reverse, the empty choice (the identity) skipped.
    """
    out = []
    for a in vertex_order(rank):
        others = [v for v in vertex_order(rank) if abs(v) != abs(a)]
        for picks in itertools.product((False, True), repeat=len(others)):
            chosen = {v for v, pick in zip(reversed(others), picks) if pick}
            if chosen:
                out.append(WhAutomorphism.multiplier_move(a, chosen | {a}, rank))
    return tuple(out)


class TestEnumeration:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_closed_form_count(self, rank):
        table = enumerate_whitehead_automorphisms(rank)
        assert len(table) == 2 * rank * (2 ** (2 * rank - 2) - 1)
        assert not any(phi.is_identity_map() for phi in table)

    def test_rank2_image_menu(self):
        # every multiplier move sends each generator to one of
        # {v, av, va^-1, ava^-1}
        for phi in enumerate_whitehead_automorphisms(2):
            a = phi.multiplier
            for v in (1, 2, -1, -2):
                img = phi.table[v]
                assert img in ((v,), (a, v), (v, -a), (a, v, -a))

    def test_image_length_bounded(self):
        for phi in enumerate_whitehead_automorphisms(3):
            for i in (1, 2, 3):
                assert len(phi.table[i]) <= 3

    def test_inverse_composes_to_identity(self):
        for phi in enumerate_whitehead_automorphisms(2):
            inv = phi.inverse()
            for i in (1, 2):
                w = Word((i,), 2)
                assert apply_automorphism((phi, inv), w) == w
                assert apply_automorphism((inv, phi), w) == w

    def test_permutation_enumeration(self):
        perms = oracle_permutation_automorphisms(2)
        assert len(perms) == 8  # 2! * 2^2
        for phi in perms:
            assert phi.inverse().inverse() == phi

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_multiplier_unranker(self, rank):
        table = oracle_multiplier_moves(rank)
        assert enumerate_whitehead_automorphisms(rank) == table
        assert tuple(_multiplier_move_at(rank, k) for k in range(len(table))) == table

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_signed_permutation_unranker(self, rank):
        perms = oracle_permutation_automorphisms(rank)
        assert len(perms) == math.factorial(rank) << rank
        assert tuple(_signed_permutation_at(rank, k) for k in range(len(perms))) == perms

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_draws_consume_stream_like_choice(self, rank):
        # rng.choice(table) and the index draw pick the same move and leave
        # the random stream in the same state
        table = enumerate_whitehead_automorphisms(rank)
        perms = oracle_permutation_automorphisms(rank)
        for seed in range(3):
            by_table, by_index = random.Random(seed), random.Random(seed)
            for _ in range(1000):
                assert by_table.choice(table) == _random_multiplier_move(by_index, rank)
                assert by_table.choice(perms) == _signed_permutation_at(
                    rank, by_index.randrange(len(perms))
                )
            assert by_table.random() == by_index.random()

    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_table_draws_match_move_draws(self, rank):
        # a sampler reads the drawn move's table: one randrange per move,
        # picking the move that rng.choice over the enumeration would, and
        # its table holds the oracle image of every letter
        moves = oracle_multiplier_moves(rank)
        for seed in range(3):
            by_move, by_choice = random.Random(seed), random.Random(seed)
            for _ in range(500):
                table = _random_multiplier_move(by_move, rank).table
                assert table == oracle_table(by_choice.choice(moves))
            assert by_move.random() == by_choice.random()

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_table_matches_oracle(self, rank):
        perms = math.factorial(rank) << rank
        for phi in (
            *enumerate_whitehead_automorphisms(rank),
            *(_signed_permutation_at(rank, i) for i in range(perms)),
        ):
            assert phi.table == oracle_table(phi), phi
            # the table is derived: it neither compares, hashes nor shows
            assert "table" not in repr(phi)
            assert pickle.loads(pickle.dumps(phi)).table == phi.table


def package_caches() -> dict:
    """Every ``functools`` cache defined in a ``freefactor`` module, at
    module level or in a class, by qualified name."""
    import importlib
    import pkgutil

    import freefactor

    found = {}
    for info in pkgutil.iter_modules(freefactor.__path__):
        module = importlib.import_module(f"freefactor.{info.name}")
        spaces = [vars(module)]
        spaces += [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for space in spaces:
            for obj in space.values():
                if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                    found[f"{info.name}.{obj.__qualname__}"] = obj
    return found


class TestBoundedCaches:
    def test_every_cache_with_arguments_has_a_bound(self):
        # a cache keyed by what a caller passes must not grow with a
        # long-lived process; one of no arguments holds a single entry
        import inspect

        caches = package_caches()
        assert {"whitehead.vertex_order", "whitehead._columns", "cli.build_parser"} <= set(caches)
        unbounded = [
            name
            for name, cached in caches.items()
            if cached.cache_parameters()["maxsize"] is None
            and inspect.signature(cached.__wrapped__).parameters
        ]
        assert unbounded == []

    @pytest.mark.parametrize("cached", [vertex_order, whitehead._columns])
    def test_rank_caches_hold_at_most_their_bound(self, cached):
        cached.cache_clear()
        for rank in range(2, 1001):
            cached(rank)
        info = cached.cache_info()
        assert info.maxsize == whitehead._RANK_CACHE and info.currsize <= info.maxsize
        # the ranks that the experiments and CI use fit together
        cached.cache_clear()
        for _ in range(2):
            for rank in range(2, 31):
                cached(rank)
        assert cached.cache_info().misses == 29
        assert vertex_order(1000)[-2:] == (1000, -1000)
        assert whitehead._columns(1000)[-1000] == 1999


class TestAutomorphismValidation:
    """Each refusal of ``WhAutomorphism.__post_init__``: every move is
    checked once, when it is built, and never when it is applied."""

    @pytest.mark.parametrize(
        "args,error",
        [
            # a missing a or Z
            (("multiplier", 2, None, frozenset({1})), DomainError),
            (("multiplier", 2, 1, None), DomainError),
            # the multiplier out of range
            (("multiplier", 2, 3, frozenset({3})), RankError),
            (("multiplier", 2, 0, frozenset({0})), RankError),
            # a not in Z, or a^-1 in Z
            (("multiplier", 2, 1, frozenset({2})), DomainError),
            (("multiplier", 2, 1, frozenset({1, -1})), DomainError),
            # a Z letter outside the alphabet
            (("multiplier", 2, 1, frozenset({1, 3})), RankError),
            (("multiplier", 2, 1, frozenset({1, 0})), RankError),
            # the wrong number of permutation images
            (("permutation", 2, None, None, None), DomainError),
            (("permutation", 2, None, None, (1,)), DomainError),
            (("permutation", 2, None, None, (1, 2, 3)), DomainError),
            # images that are not a signed permutation
            (("permutation", 2, None, None, (1, 1)), DomainError),
            (("permutation", 2, None, None, (1, -3)), DomainError),
            # an unknown kind
            (("transvection", 2, 1, frozenset({1})), DomainError),
            # non-integer letters: a float a, a float Z letter, a float image
            (("multiplier", 2, 1.0, frozenset({1.0, 2})), DomainError),
            (("multiplier", 2, 1, frozenset({1, 2.0})), DomainError),
            (("permutation", 2, None, None, (2.0, 1)), DomainError),
            (("permutation", 2, None, None, ("2", 1)), DomainError),
        ],
    )
    def test_refused_at_construction(self, args, error):
        with pytest.raises(error):
            WhAutomorphism(*args)

    def test_float_letters_refused_by_the_constructors(self):
        with pytest.raises(DomainError, match="integers"):
            WhAutomorphism.multiplier_move(1.0, {1.0, 2}, 2)
        with pytest.raises(DomainError, match="integers"):
            WhAutomorphism.permutation_move([2.0, 1], 2)

    @pytest.mark.parametrize("rank", [1.5, 2.0, "2", None])
    def test_rank_must_be_an_integer(self, rank):
        with pytest.raises(DomainError, match="rank must be an integer"):
            WhAutomorphism.multiplier_move(1, {1}, rank)
        with pytest.raises(DomainError, match="rank must be an integer"):
            WhAutomorphism("permutation", rank, images=(1, 2))
        with pytest.raises(DomainError, match="rank must be an integer"):
            enumerate_whitehead_automorphisms(rank)
        assert enumerate_whitehead_automorphisms(np.int64(2)) == (
            enumerate_whitehead_automorphisms(2)
        )
        with pytest.raises(RankError, match="rank must be at least 2, got 1"):
            enumerate_whitehead_automorphisms(1)
        phi = WhAutomorphism.multiplier_move(-2, {-2, 1}, np.int64(2))
        assert type(phi.rank) is int and phi == WhAutomorphism.multiplier_move(-2, {-2, 1}, 2)
        assert phi(W("x")) == W("xy")

    def test_table_is_not_a_field(self):
        phi = WhAutomorphism.multiplier_move(-2, {-2, 1}, 2)  # x -> xy
        assert phi.table == ((), (1, 2), (2,), (-2,), (-2, -1))
        assert phi == WhAutomorphism.multiplier_move(-2, (1, -2), 2)
        assert hash(phi) == hash(WhAutomorphism.multiplier_move(-2, (1, -2), 2))
        with pytest.raises(AttributeError):
            phi.table = ()


class TestMinimize:
    def test_primitive_pair(self):
        cert = minimize_cyclic_length(W("xy"))
        assert len(cert.minimized) == 1
        assert cert.length_trace == (2, 1)

    def test_commutator_already_minimal(self, b2):
        cert = minimize_cyclic_length(b2)
        assert cert.minimized == b2
        assert cert.chain == ()
        assert cert.length_trace == (4,)

    def test_conjugate_of_generator(self):
        cert = minimize_cyclic_length(W("yxY"))
        assert len(cert.minimized) == 1

    def test_certificate_replays(self):
        rng = random.Random(9)
        table = enumerate_whitehead_automorphisms(2)
        for _ in range(15):
            w = random_word(rng.randint(1, 10), 2, rng)
            chain = [rng.choice(table) for _ in range(rng.randint(0, 3))]
            w = apply_automorphism(chain, w)
            if w.is_identity():
                continue
            cert = minimize_cyclic_length(w)
            replay = cyclic_reduce(apply_automorphism(cert.chain, w)).core
            assert replay == cert.minimized
            trace = cert.length_trace
            assert all(trace[i] > trace[i + 1] for i in range(len(trace) - 1))
            assert trace[-1] == len(cert.minimized)

    def test_identity_rejected(self):
        with pytest.raises(IdentityWordError):
            minimize_cyclic_length(Word.identity(2))

    def test_orbit_invariance(self):
        # minimize(w) and minimize(phi(w)) reach the same length
        rng = random.Random(11)
        table = enumerate_whitehead_automorphisms(2)
        for _ in range(20):
            w = random_word(rng.randint(1, 8), 2, rng)
            if w.is_identity():
                continue
            n0 = len(minimize_cyclic_length(w).minimized)
            chain = [rng.choice(table) for _ in range(rng.randint(1, 4))]
            image = apply_automorphism(chain, w)
            if image.is_identity():
                continue
            assert len(minimize_cyclic_length(image).minimized) == n0


class TestClassify:
    def test_commutator_fills(self, b2):
        assert classify(b2) == Classification.FILLING

    def test_square_is_simple(self):
        assert classify(W("xx")) == Classification.SIMPLE_NON_PRIMITIVE

    def test_squares_word_fills_rank3(self, b3):
        cert = minimize_cyclic_length(b3)
        assert len(cert.minimized) == 6
        assert classify(b3) == Classification.FILLING

    def test_primitive_examples(self):
        assert is_primitive(W("x"))
        assert not is_primitive(W("xx"))
        psi = build_boundary_pA()
        assert is_primitive(psi_power(psi, W("x"), 5))

    def test_simple_words_keep_cut_vertices_under_automorphisms(self):
        # every automorphic image of a non-filling word shows a cut vertex
        rng = random.Random(23)
        table = enumerate_whitehead_automorphisms(2)
        for base in (W("x"), W("xx"), W("xyX"), W("yyy")):
            for _ in range(10):
                chain = [rng.choice(table) for _ in range(rng.randint(0, 4))]
                image = apply_automorphism(chain, base)
                assert find_cut_vertex(whitehead_graph(image)) is not None

    def test_minimizing_basis(self, b2):
        # the certificate's chain rewrites w in a basis minimizing its length
        cert = minimize_cyclic_length(b2)
        assert cert.chain == () and cert.minimized == b2
        g = W("yx")
        w = g * b2 * g.inverse()
        cert = minimize_cyclic_length(w)
        assert len(cert.minimized) == 4
        assert cyclic_reduce(apply_automorphism(cert.chain, w)).core == cert.minimized
        cert = minimize_cyclic_length(W("xy"))
        assert len(cert.chain) == 1 and len(cert.minimized) == 1


def oracle_is_simple(w: Word, max_growth: int = 0):
    """Breadth-first orbit search oracle for simplicity at rank 2.

    Explores cyclic conjugacy representatives under all Whitehead moves
    without ever exceeding the starting cyclic length: strictly shortening
    moves reach the orbit minimum, and level moves connect all minima.  A
    word is simple iff some minimal form is a power of one letter, which is
    double-checked by membership in the corresponding cyclic subgroup.
    """

    def canon(word):
        core = cyclic_reduce(word).core.letters
        if not core:
            return ()
        rotations = [core[i:] + core[:i] for i in range(len(core))]
        return min(rotations)

    start = canon(w)
    if not start:
        raise IdentityWordError("oracle needs a nontrivial word")
    bound = len(start) + max_growth
    moves = list(enumerate_whitehead_automorphisms(2)) + list(
        oracle_permutation_automorphisms(2)
    )
    seen = {start}
    frontier = [start]
    witness = None
    while frontier:
        nxt = []
        for state in frontier:
            word = Word(state, 2)
            for phi in moves:
                image = canon(phi(word))
                if not image or len(image) > bound or image in seen:
                    continue
                seen.add(image)
                nxt.append(image)
        frontier = nxt
    orbit_min = min(len(state) for state in seen)
    for state in seen:
        letters = {abs(l) for l in state}
        if len(letters) == 1:
            witness = state
            break
    if witness is None:
        return False, None, orbit_min
    generator = Word((witness[0],), 2)
    assert fold([generator]).contains(Word(witness, 2))
    return True, len(witness), orbit_min


class TestClassifyAgainstOrbitOracle:
    def test_exhaustive_short_words(self):
        # all reduced words of length <= 4 at rank 2
        words = [()]
        for _ in range(4):
            words = [
                w + (l,)
                for w in words
                for l in (1, -1, 2, -2)
                if not w or l != -w[-1]
            ]
            for letters in words:
                w = Word(letters, 2)
                if cyclic_reduce(w).core.is_identity():
                    continue
                simple, power, orbit_min = oracle_is_simple(w)
                verdict = classify(w)
                assert simple == (verdict != Classification.FILLING), w
                if simple and power == 1:
                    assert verdict == Classification.PRIMITIVE
                # greedy descent reaches the true orbit minimum
                assert len(minimize_cyclic_length(w).minimized) == orbit_min, w

    def test_sampled_longer_words(self):
        rng = random.Random(31)
        for _ in range(40):
            w = random_word(rng.randint(5, 6), 2, rng)
            if cyclic_reduce(w).core.is_identity():
                continue
            simple, power, orbit_min = oracle_is_simple(w)
            verdict = classify(w)
            assert simple == (verdict != Classification.FILLING), w
            if simple:
                assert (power == 1) == (verdict == Classification.PRIMITIVE)
            assert len(minimize_cyclic_length(w).minimized) == orbit_min, w


def oracle_minimize_cyclic_length(w: Word) -> MinimizationCertificate:
    """The descent that applies every multiplier move at every step.

    This was the library's implementation before moves were scored by cut
    capacities; it stays here as the reference for the differential tests.
    """
    table = enumerate_whitehead_automorphisms(w.rank)
    current = cyclic_reduce(w).core
    trace = [len(current)]
    chain = []
    while True:
        best = None
        best_len = len(current)
        for phi in table:
            image_len = len(cyclic_reduce(phi(current)).core)
            if image_len < best_len:
                best, best_len = phi, image_len
        if best is None:
            break
        chain.append(best)
        current = cyclic_reduce(best(current)).core
        trace.append(len(current))
    minimized = cyclic_reduce(apply_automorphism(chain, w)).core
    return MinimizationCertificate(
        w, minimized, tuple(chain), tuple(trace), whitehead_graph(minimized)
    )


def oracle_edge_matrix(core: Word) -> np.ndarray:
    """The numpy edge matrix that ``_edge_matrix``'s count of letter pairs
    replaced: letter l at column 2(|l| - 1) + [l < 0]."""
    n = 2 * core.rank
    ls = np.array(core.letters)
    cols = 2 * (np.abs(ls) - 1) + (ls < 0)
    half = np.bincount(cols * n + (np.roll(cols, -1) ^ 1), minlength=n * n)
    half = half.reshape(n, n)
    return half + half.T


@functools.lru_cache(maxsize=None)
def oracle_cut_table(rank: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The vertex pairs that each multiplier move's cut separates.

    The k-th move (a, Z) of ``enumerate_whitehead_automorphisms`` cuts the
    vertices along A = (Z - {a}) | {a^-1}.  ``pairs`` lists the vertex
    pairs (i, j), i < j, as columns in ``vertex_order``; row k of
    ``crossing`` is 1 where exactly one end of the pair lies in A, so
    ``crossing @ edges[pairs]`` is cap(A, A^c) for every move at once, and
    ``inverse_col[k]`` is the column of a^-1.  This table of
    2N(2^(2N-2) - 1) rows scored every move of a descent step before the
    descent became one max-flow per generator; it stays here as the
    reference for the differential tests.
    """
    n = 2 * rank
    per = (1 << (2 * rank - 2)) - 1
    bits = (np.arange(1, per + 1)[:, None] >> np.arange(n - 2)) & 1
    inside = np.zeros((n * per, n), dtype=bool)
    for col in range(n):
        others = [c for c in range(n) if c // 2 != col // 2]
        rows = slice(col * per, (col + 1) * per)
        inside[rows, others] = bits
        inside[rows, col ^ 1] = True
    pairs = np.triu_indices(n, 1)
    crossing = (inside[:, pairs[0]] != inside[:, pairs[1]]).astype(np.float64)
    inverse_col = np.repeat(np.arange(n) ^ 1, per)
    return crossing, pairs, inverse_col


def oracle_move_scores(edges) -> np.ndarray:
    """Cyclic length of phi(w) for every multiplier move phi, in
    enumeration order, by the cut lemma, from one float64 BLAS product over
    the cut table; ``edges`` is the Whitehead graph of w."""
    edges = np.array(edges, dtype=np.int64)
    crossing, pairs, inverse_col = oracle_cut_table(len(edges) // 2)
    cut = (crossing @ edges[pairs].astype(np.float64)).astype(np.int64)
    return edges.sum() // 2 + cut - edges.sum(axis=1)[inverse_col]


def oracle_integer_move_scores(edges) -> np.ndarray:
    """The int64 cut product that the float64 product replaced."""
    edges = np.array(edges, dtype=np.int64)
    crossing, pairs, inverse_col = oracle_cut_table(len(edges) // 2)
    cut = crossing.astype(np.int64) @ edges[pairs]
    return edges.sum() // 2 + cut - edges.sum(axis=1)[inverse_col]


def oracle_table_descent(w: Word) -> MinimizationCertificate:
    """The descent that scores every move of the table at every step and
    applies the first one of least score, the library's descent before one
    max-flow per generator replaced the table."""
    current = cyclic_reduce(w).core
    trace = [len(current)]
    chain = []
    while True:
        edges = whitehead_graph(current)
        scores = oracle_move_scores(edges)
        k = int(np.argmin(scores))
        if scores[k] >= len(current):
            break
        best = _multiplier_move_at(w.rank, k)
        current = cyclic_reduce(best(current)).core
        assert len(current) == scores[k]
        chain.append(best)
        trace.append(len(current))
    minimized = cyclic_reduce(apply_automorphism(chain, w)).core
    return MinimizationCertificate(w, minimized, tuple(chain), tuple(trace), edges)


def _random_cores(rank, count, seed, lengths=(1, 24)):
    rng = random.Random(seed)
    cores = []
    while len(cores) < count:
        core = cyclic_reduce(random_word(rng.randint(*lengths), rank, rng)).core
        if not core.is_identity():
            cores.append(core)
    return cores


def _moved_short_words(rank, count, seed):
    """Whitehead images of short words: their descents take several steps."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        w = random_word(rng.randint(1, 4), rank, rng)
        for _ in range(rng.randint(1, 5)):
            w = _random_multiplier_move(rng, rank)(w)
        if not cyclic_reduce(w).core.is_identity():
            words.append(w)
    return words


def _random_multigraph(rng, n):
    """A symmetric zero-diagonal multiplicity matrix on ``n`` vertices with
    source ``n - 1`` and sink ``n - 2``: a heavy direct source-sink edge
    and many source-v-sink paths on top of random edges."""
    rows = [[0] * n for _ in range(n)]

    def add(u, v, count):
        rows[u][v] += count
        rows[v][u] += count

    source, sink = n - 1, n - 2
    add(source, sink, rng.choice((0, 1, rng.randint(2, 9))))
    for v in range(n - 2):
        if rng.random() < 0.7:
            add(source, v, rng.randint(1, 4))
            add(v, sink, rng.randint(1, 4))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            add(u, v, rng.randint(1, 3))
    return tuple(map(tuple, rows)), source, sink


class TestMinCut:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_brute_force(self, n):
        # every source side is enumerated: the flow is the least cut capped
        # at the bound, and below the bound the side is the intersection of
        # all minimum source sides
        rng = random.Random(600 + n)
        for _ in range(40):
            edges, source, sink = _random_multigraph(rng, n)
            adj = [[j for j, count in enumerate(row) if count] for row in edges]
            inner = [v for v in range(n) if v not in (source, sink)]
            cuts = {}
            for mask in range(1 << len(inner)):
                side = frozenset([source] + [v for i, v in enumerate(inner) if mask >> i & 1])
                cuts[side] = sum(edges[u][v] for u in side for v in range(n) if v not in side)
            least = min(cuts.values())
            smallest = frozenset.intersection(*(s for s, c in cuts.items() if c == least))
            for bound in range(1, least + 3):
                flow, side = whitehead._min_cut(edges, adj, source, sink, bound)
                if least >= bound:
                    assert (flow, side) == (bound, None), (edges, bound)
                else:
                    assert flow == least, (edges, bound)
                    assert sorted(side) == sorted(smallest), (edges, bound)


class TestCutScores:
    @pytest.mark.parametrize("rank,count", [(2, 60), (3, 25), (4, 6)])
    def test_score_equals_applied_length(self, rank, count):
        # the table oracle's cut-lemma scores are the applied lengths
        table = enumerate_whitehead_automorphisms(rank)
        for core in _random_cores(rank, count, seed=100 + rank):
            scores = oracle_move_scores(whitehead_graph(core))
            assert len(scores) == len(table)
            applied = [len(cyclic_reduce(phi(core)).core) for phi in table]
            assert scores.tolist() == applied, core

    @pytest.mark.parametrize("rank,count", [(2, 80), (3, 40), (4, 12), (5, 5)])
    def test_certificates_match_oracle(self, rank, count):
        ties = 0
        for w in _random_cores(rank, count, seed=200 + rank, lengths=(2, 20)):
            expected = oracle_minimize_cyclic_length(w)
            cert = minimize_cyclic_length(w)
            assert cert.to_json_dict() == expected.to_json_dict()
            # the graph kept from the last descent step is the minimal word's
            assert cert.edges == expected.edges
            assert cert.cut_vertex == expected.cut_vertex
            scores = oracle_move_scores(whitehead_graph(w))
            best = scores.min()
            ties += best < len(w) and int(np.sum(scores == best)) > 1
        # the first-in-enumeration-order tie-break was exercised
        assert ties > 0

    def test_conjugated_inputs_match_oracle(self):
        # inputs that are not cyclically reduced keep their certificate
        rng = random.Random(7)
        for _ in range(10):
            w = random_word(rng.randint(2, 12), 3, rng)
            g = random_word(rng.randint(1, 4), 3, rng)
            w = w.conjugated_by(g)
            if cyclic_reduce(w).core.is_identity():
                continue
            assert (
                minimize_cyclic_length(w).to_json_dict()
                == oracle_minimize_cyclic_length(w).to_json_dict()
            )

    @pytest.mark.parametrize("rank,count", [(2, 60), (3, 40), (4, 20), (5, 10), (6, 4)])
    def test_float_scores_match_integer_oracle(self, rank, count):
        # the table oracle's float64 product is exact, and the library's
        # edge matrix is the numpy one as int rows
        rng = random.Random(300 + rank)
        words = [random_word(rng.randint(2, 40), rank, rng) for _ in range(count)]
        words = [w for w in words if not cyclic_reduce(w).core.is_identity()]
        for w in words:
            core = cyclic_reduce(w).core
            edges = whitehead_graph(w)
            assert edges == _edge_matrix(core)
            assert edges == tuple(map(tuple, oracle_edge_matrix(core).tolist()))
            scores = oracle_move_scores(edges)
            assert scores.dtype == np.int64
            assert np.array_equal(scores, oracle_integer_move_scores(edges))

    @pytest.mark.parametrize("rank,count", [(2, 150), (3, 120), (4, 80), (5, 40), (6, 15)])
    def test_certificates_match_table_descent(self, rank, count):
        # chain, trace, minimized word, final graph and cut vertex equal the
        # table's at every step, on random words and on Whitehead images of
        # short words, which take longer descents
        words = _random_cores(rank, count, seed=400 + rank, lengths=(2, 30))
        words += _moved_short_words(rank, count, seed=500 + rank)
        longest = ties = 0
        for w in words:
            expected = oracle_table_descent(w)
            cert = minimize_cyclic_length(w)
            assert cert.to_json_dict() == expected.to_json_dict(), w
            assert cert.chain == expected.chain
            assert cert.edges == expected.edges
            assert cert.cut_vertex == expected.cut_vertex
            longest = max(longest, len(cert.chain))
            scores = oracle_move_scores(whitehead_graph(w))
            best = scores.min()
            ties += best < len(w) and int(np.sum(scores == best)) > 1
        assert longest >= 3 and ties > 0

    def test_early_stopped_flows_never_win(self, monkeypatch):
        # every flow that ran to completion found the least cut the table
        # finds for its multiplier; the others stopped at their bound
        calls = []
        original = whitehead._min_cut

        def recording(edges, adj, source, sink, bound):
            flow, side = original(edges, adj, source, sink, bound)
            calls.append((edges, sink, bound, flow, side))
            return flow, side

        monkeypatch.setattr(whitehead, "_min_cut", recording)
        for w in _moved_short_words(4, 40, seed=9):
            minimize_cyclic_length(w)
        assert any(side is None for *_, side in calls)
        assert any(side is not None for *_, side in calls)
        per = (1 << 6) - 1
        for edges, sink, bound, flow, side in calls:
            scores = oracle_move_scores(edges)[sink * per : (sink + 1) * per]
            length, degree = sum(map(sum, edges)) // 2, sum(edges[sink + 1])
            least = int(scores.min()) - length + degree  # the least cut
            if side is None:
                assert flow == bound <= least
            else:
                assert flow == least < bound
                mask = int(np.argmin(scores)) + 1
                others = [c for c in range(8) if c // 2 != sink // 2]
                assert sorted(side) == sorted(
                    [sink + 1] + [c for i, c in enumerate(others) if mask >> i & 1]
                )

    @pytest.mark.parametrize("rank", [5, 6])
    def test_high_rank_boundary_words(self, rank):
        b = boundary_word(rank)
        cert = minimize_cyclic_length(b)
        assert len(cert.minimized) == 2 * rank
        assert classify(b, cert) == Classification.FILLING


class TestClassifyWithCertificate:
    def test_reuses_certificate(self, b3):
        for w in [b3] + _random_cores(3, 15, seed=6):
            cert = minimize_cyclic_length(w)
            assert classify(w, cert) == classify(w)

    def test_foreign_certificate_rejected(self, b2):
        with pytest.raises(DomainError):
            classify(W("xx"), minimize_cyclic_length(b2))
