import functools
import itertools
import json
import math
import pickle
import random
import re
from collections import Counter

import numpy as np
import pytest

from freefactor import (
    Classification,
    DomainError,
    IdentityWordError,
    InternalContradictionError,
    RankError,
    Word,
    WhAutomorphism,
    apply_automorphism,
    classify,
    cyclic_reduce,
    enumerate_whitehead_automorphisms,
    find_cut_vertex,
    fold,
    format_word,
    is_primitive,
    minimize_cyclic_length,
    parse_word,
    random_word,
    whitehead_graph,
)
from freefactor import whitehead
from freefactor.cli import main
from freefactor.orbit import build_boundary_pA
from freefactor.words import boundary_word
from freefactor.whitehead import (
    MinimizationCertificate,
    _multiplier_move_at,
    _random_multiplier_move,
    _signed_permutation_at,
    vertex_order,
)

from conftest import W, _peak_kb, fresh_python, oracle_letter_image, psi_power


def graph_from_edges(rank, edges):
    """Whitehead graph matrix built by hand from a list of letter pairs."""
    col = oracle_columns(rank)
    g = [[0] * (2 * rank) for _ in range(2 * rank)]
    for u, v in edges:
        g[col[u]][col[v]] += 1
        g[col[v]][col[u]] += 1
    return tuple(map(tuple, g))


def dense(graph, rank):
    """A letter graph of ``whitehead_graph`` as the edge matrix it replaced:
    rows and columns in ``vertex_order``, a tuple of int rows, and a zero
    row for each letter that is no key."""
    col = oracle_columns(rank)
    rows = [[0] * (2 * rank) for _ in range(2 * rank)]
    for u, row in graph.items():
        for v, count in row.items():
            rows[col[u]][col[v]] = count
    return tuple(map(tuple, rows))


def letter_graph(matrix):
    """The letter graph of an edge matrix: the inverse of ``dense``."""
    verts = vertex_order(len(matrix) // 2)
    return {
        verts[i]: {verts[j]: c for j, c in enumerate(row) if c}
        for i, row in enumerate(matrix)
        if any(row)
    }


def degree(g, v):
    return sum(g[vertex_order(len(g) // 2).index(v)])


def edge_count(g):
    return sum(map(sum, g)) // 2


class TestWhiteheadGraph:
    def test_commutator_is_four_cycle(self, b2):
        graph = whitehead_graph(b2)
        assert graph == {1: {-2: 1, 2: 1}, -2: {1: 1, -1: 1}, -1: {-2: 1, 2: 1}, 2: {-1: 1, 1: 1}}
        g = dense(graph, 2)
        # cycle x - y^-1 - x^-1 - y - x
        expected = graph_from_edges(2, ((1, -2), (-1, -2), (-1, 2), (1, 2)))
        assert g == expected
        assert all(type(row) is tuple and all(type(c) is int for c in row) for row in g)
        assert edge_count(g) == 4
        assert all(degree(g, v) == 2 for v in vertex_order(2))

    def test_square_doubles_edge(self):
        graph = whitehead_graph(W("xx"))
        # y is missing: its letters are no keys
        assert graph == {1: {-1: 2}, -1: {1: 2}}
        g = dense(graph, 2)
        assert g == graph_from_edges(2, ((1, -1), (1, -1)))
        assert degree(g, 2) == 0 and degree(g, -2) == 0

    @pytest.mark.parametrize("rank", [2, 3, 5, 64])
    def test_keys_are_the_letters_of_the_core(self, rank):
        # each letter of the core and its inverse, each mapped to its
        # neighbours with positive int multiplicities: no zero, no loop,
        # and the graph is symmetric
        for core in _random_cores(rank, 60, seed=700 + rank, lengths=(1, 30)):
            graph = whitehead_graph(core)
            assert set(graph) == {s * l for l in core.letters for s in (1, -1)}
            for u, row in graph.items():
                assert u not in row
                assert all(type(c) is int and c > 0 and graph[v][u] == c for v, c in row.items())
            assert dense(graph, rank) == oracle_edge_rows(core)
            assert letter_graph(dense(graph, rank)) == graph

    def test_xy_disconnected(self):
        g = dense(whitehead_graph(W("xy")), 2)
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
            g = dense(whitehead_graph(w), 3)
            assert edge_count(g) == len(cyclic_reduce(w).core)

    def test_degree_counts_letter_occurrences(self):
        rng = random.Random(4)
        for _ in range(40):
            w = random_word(rng.randint(1, 20), 2, rng)
            core = cyclic_reduce(w).core
            if core.is_identity():
                continue
            g = dense(whitehead_graph(w), 2)
            for v in vertex_order(2):
                occurrences = sum(1 for l in core.letters if l in (v, -v))
                assert degree(g, v) == occurrences


class TestCutVertex:
    def test_cycle_has_none(self, b2):
        assert find_cut_vertex(whitehead_graph(b2), 2) is None

    def test_disconnected_has_one(self):
        # any disconnected graph on >= 3 vertices has a cut vertex
        assert find_cut_vertex(whitehead_graph(W("xy")), 2) == 1

    def test_square_graph(self):
        assert find_cut_vertex(whitehead_graph(W("xx")), 2) == 1

    def test_path_graph_interior(self):
        g = graph_from_edges(2, ((1, 2), (2, -1), (-1, -2)))  # path x-y-X-Y
        v = find_cut_vertex(letter_graph(g), 2)
        assert v in (2, -1)  # an interior vertex
        assert v == oracle_dense_cut_vertex(g)

    @pytest.mark.parametrize("rank", [2, 3, 6, 64, 10**6])
    def test_a_missing_generator_gives_letter_one(self, rank):
        # the two letters of a missing generator are isolated, so removing
        # letter 1 disconnects; the matrix search over all 2 * rank
        # vertices, run where the matrix is small, agrees
        words = [(1, 1), (2, 2, 2), (1, 2, -1, -2), (2, 2, -3, -2, 3)]
        words = [Word(w, rank) for w in words if max(map(abs, w)) <= rank]
        words = [w for w in words if len({abs(l) for l in w.letters}) < rank]
        assert len(words) == (2 if rank == 2 else 4)
        for word in words:
            assert find_cut_vertex(whitehead_graph(word), rank) == 1
            if rank <= 64:
                assert oracle_dense_cut_vertex(oracle_edge_rows(word)) == 1

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_edge_list_oracle(self, rank):
        # minimized words, where the cut vertex decides the classification,
        # and the random words they came from, whose graphs can be connected
        # and still have a cut vertex
        verdicts = set()
        for core in _random_cores(rank, 500, seed=50 + rank, lengths=(2, 20)):
            for word in (core, minimize_cyclic_length(core).minimized):
                expected = oracle_find_cut_vertex(word)
                assert find_cut_vertex(whitehead_graph(word), rank) == expected, word
                assert oracle_dense_cut_vertex(oracle_edge_rows(word)) == expected, word
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


def oracle_columns(rank: int) -> dict[int, int]:
    """Letter -> its column in ``vertex_order``: 2(|l| - 1) + [l < 0], so
    the column of l^-1 is that of l xor 1."""
    return {letter: col for col, letter in enumerate(vertex_order(rank))}


# The dense descent below was the library's before the Whitehead graph
# became a map on the word's own letters.  It builds the (2N)^2 edge
# matrix over the whole alphabet and cuts it by column index; it stays
# here as the oracle of the differential tests of ``TestDenseOracle``.


def oracle_edge_rows(w: Word) -> tuple[tuple[int, ...], ...]:
    """Symmetric edge-multiplicity matrix of the cyclic Whitehead graph,
    rows and columns in ``vertex_order``, as a tuple of int rows."""
    core = cyclic_reduce(w).core
    n = 2 * core.rank
    col = oracle_columns(core.rank)
    ls = core.letters
    rows = [[0] * n for _ in range(n)]
    # the cyclic subword uv gives the edge {u, v^-1}
    for (u, v), count in Counter(zip(ls, ls[1:] + ls[:1])).items():
        i, j = col[u], col[v] ^ 1
        rows[i][j] += count
        rows[j][i] += count
    return tuple(map(tuple, rows))


def oracle_dense_cut_vertex(edges) -> int | None:
    """Lowest vertex of the edge matrix ``edges`` whose removal
    disconnects, searched over all 2N vertices."""
    n = len(edges)
    adj = [[j for j, count in enumerate(row) if count] for row in edges]
    for v in range(n):
        start = 1 if v == 0 else 0
        seen = {v, start}
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) < n:
            return vertex_order(n // 2)[v]
    return None


def oracle_dense_min_cut(edges, adj, source, sink, bound):
    """Edmonds-Karp on the edge matrix by column index, stopped at
    ``bound``: the flow, and the residual-reachable columns below it."""
    residual = [list(row) for row in edges]
    flow = 0
    n = len(edges)
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = [source]
        for u in queue:  # the queue grows while it is read
            row = residual[u]
            for v in adj[u]:
                if row[v] and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
            if parent[sink] >= 0:
                break
        else:
            return flow, queue
        push = bound - flow
        v = sink
        while v != source:
            u = parent[v]
            push = min(push, residual[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] += push
            v = u
        flow += push
        if flow >= bound:
            return flow, None


def oracle_dense_descent(w: Word):
    """The dense descent: (certificate, edge matrix of the minimal word).

    Every generator's flow runs on the 2N-column matrix, from column
    2(x - 1) + 1 (x^-1) to column 2(x - 1) (x), and a column is turned
    back into its letter through ``vertex_order``.  The certificate keeps
    the letter graph of the minimal word, so that its ``cut_vertex`` reads
    as the library's does; the matrix is returned beside it.
    """
    rank = w.rank
    verts = vertex_order(rank)
    current = cyclic_reduce(w).core
    trace = [len(current)]
    chain = []
    while True:
        edges = oracle_edge_rows(current)
        length = len(current)
        adj = [[j for j, count in enumerate(row) if count] for row in edges]
        best, best_side, a = length, None, None
        for sink in range(0, 2 * rank, 2):
            source = sink + 1
            degree = sum(edges[source])
            bound = degree + best - length
            if bound <= 0:
                continue
            cut, side = oracle_dense_min_cut(edges, adj, source, sink, bound)
            if side is not None:
                best, best_side, a = length + cut - degree, side, verts[sink]
        if best_side is None:
            break
        zset = {a} | {verts[v] for v in best_side if verts[v] != -a}
        move = WhAutomorphism.multiplier_move(a, zset, rank)
        current = cyclic_reduce(move(current)).core
        assert len(current) == best
        chain.append(move)
        trace.append(len(current))
    minimized = cyclic_reduce(apply_automorphism(chain, w)).core
    cert = MinimizationCertificate(
        w, minimized, tuple(chain), tuple(trace), letter_graph(edges)
    )
    return cert, edges


def oracle_dense_classify(w: Word) -> Classification:
    cert, edges = oracle_dense_descent(w)
    if len(cert.minimized) == 1:
        return Classification.PRIMITIVE
    if oracle_dense_cut_vertex(edges) is not None:
        return Classification.SIMPLE_NON_PRIMITIVE
    return Classification.FILLING


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


def oracle_multiplier_move_at(rank, index):
    """The multiplier unranker that shifted the 2*rank-bit mask once per
    letter to read its bit."""
    per = (1 << (2 * rank - 2)) - 1
    verts = vertex_order(rank)
    a = verts[index // per]
    mask = index % per + 1
    others = [v for v in verts if abs(v) != abs(a)]
    z = {a} | {others[i] for i in range(len(others)) if mask >> i & 1}
    return WhAutomorphism.multiplier_move(a, z, rank)


def oracle_signed_permutation_at(rank, index):
    """The signed-permutation unranker that computed i! afresh, and shifted
    the sign bits, at every position i."""
    perm_index, signs = divmod(index, 1 << rank)
    remaining = list(range(1, rank + 1))
    images = []
    for i in range(rank - 1, -1, -1):
        pick, perm_index = divmod(perm_index, math.factorial(i))
        image = remaining.pop(pick)
        images.append(-image if signs >> i & 1 else image)
    return WhAutomorphism.permutation_move(images, rank)


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

    def test_vertex_order_reaches_high_ranks(self):
        assert vertex_order(1000)[-2:] == (1000, -1000)

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

    @pytest.mark.parametrize("rank", [2, 5, 6, 7, 12, 26, 27, 64, 200])
    def test_unrankers_match_their_oracles(self, rank):
        # the first, the last and 50 random indices of each order, up to
        # ranks whose enumerations no test can build
        rng = random.Random(rank)
        for unrank, oracle, count in (
            (_multiplier_move_at, oracle_multiplier_move_at, whitehead._move_count(rank)),
            (_signed_permutation_at, oracle_signed_permutation_at, math.factorial(rank) << rank),
        ):
            for index in (0, count - 1, *(rng.randrange(count) for _ in range(50))):
                assert unrank(rank, index) == oracle(rank, index), index

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

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_table_matches_oracle(self, rank):
        # words._letter_table builds each table from the generators' images:
        # every move's, and every signed permutation's up to rank 4
        perms = math.factorial(rank) << rank if rank <= 4 else 0
        for phi in (
            *enumerate_whitehead_automorphisms(rank),
            *(_signed_permutation_at(rank, i) for i in range(perms)),
        ):
            assert phi.table == oracle_table(phi), phi
            # the table is derived: it neither compares, hashes nor shows
            assert "table" not in repr(phi)
            assert pickle.loads(pickle.dumps(phi)).table == phi.table


@pytest.mark.parametrize("rank", [2, 26, 27, 30])
def test_generator_images_are_word_text(rank):
    # each generator and its image print as their Words print, compact up
    # to rank 26 and tokens above
    rng = random.Random(rank)
    perms = math.factorial(rank) << rank
    for _ in range(20):
        for phi in (
            _random_multiplier_move(rng, rank),
            _signed_permutation_at(rank, rng.randrange(perms)),
        ):
            expected = {}
            for i in range(1, rank + 1):
                image = Word(oracle_letter_image(phi, i), rank)
                expected[format_word(Word((i,), rank))] = format_word(image)
            assert phi.generator_images() == expected


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
        assert {"whitehead._multiplier_move_at", "cli.build_parser"} <= set(caches)
        unbounded = [
            name
            for name, cached in caches.items()
            if cached.cache_parameters()["maxsize"] is None
            and inspect.signature(cached.__wrapped__).parameters
        ]
        assert unbounded == []


class TestMoveCaches:
    """The multiplier unranker caches a rank's moves only where the cache
    holds every one of them, so a draw at a higher rank keeps no table
    alive."""

    def test_cached_ranks_are_those_whose_moves_all_fit(self):
        size, top = whitehead._UNRANK_CACHE, whitehead._CACHED_RANK
        multipliers = [2 * r * whitehead._moves_per_multiplier(r) for r in (top, top + 1)]
        assert multipliers == [2550, 12276]
        assert multipliers[0] <= size < multipliers[1]

    @pytest.mark.parametrize("unrank", [_multiplier_move_at])
    def test_only_small_ranks_enter_the_cache(self, unrank):
        unrank.cache_clear()
        for rank in (2, 5):
            assert unrank(rank, 7) is unrank(rank, 7)
        assert unrank.cache_info().currsize == 2
        for rank in (6, 200):
            assert unrank(rank, 7) == unrank(rank, 7)
            assert unrank(rank, 7) is not unrank(rank, 7)
        info = unrank.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
        unrank.cache_clear()

    def test_high_rank_draws_die_with_their_holder(self):
        # a fresh interpreter draws 10,000 multiplier moves at rank 200 and
        # drops each; its own high-water RSS (VmHWM) rose by about 154 MB
        # when the 4,096-entry cache kept every drawn move and its
        # 401-entry table at any rank
        script = (
            "import random\n"
            "from freefactor.whitehead import _random_multiplier_move\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(status.read().split('VmHWM:')[1].split()[0]) / 1024\n"
            "start = peak()\n"
            "rng = random.Random(1)\n"
            "for _ in range(10000):\n"
            "    _random_multiplier_move(rng, 200).table\n"
            "print(peak() - start)\n"
        )
        if _peak_kb() is None:
            pytest.skip("no /proc/self/status to read VmHWM from")
        done = fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 20, done.stdout


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


def undercut_scores(monkeypatch):
    """Make ``_min_cut`` report every minimum cut it finds as one less than
    it is, so that each chosen move scores one below the length it gives."""
    min_cut = whitehead._min_cut

    def undercut(edges, source, sink, bound):
        cut, side = min_cut(edges, source, sink, bound)
        return (cut, side) if side is None else (cut - 1, side)

    monkeypatch.setattr(whitehead, "_min_cut", undercut)


# what the descent of xxy says under ``undercut_scores``: its first move,
# y -> yx^-1, is checked against its score before any graph is built from it
UNDERCUT_XXY = "move {'x': 'x', 'y': 'yX'} scored 1 but gave cyclic length 2"


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

    def test_each_accepted_move_is_applied_once(self, monkeypatch, b2, b3):
        # the descent holds the input's running image, so one call applies
        # each move of its chain once and replays nothing at the end
        run = load_benchmark_runner(monkeypatch)
        words = [
            parse_word(op["word"], op["rank"])
            for seed in (1, 2, 3)
            for op in run.make_ops("word-descent", seed)["ops"]
        ]
        # words that take no move: minimal ones, a conjugate of one, and a
        # generator and its conjugate
        still = [b2, b3, W("yxyXYY"), W("x"), W("yxY")]
        calls = []
        apply = whitehead.apply_automorphism

        def counted(chain, w):
            calls.append(chain)
            return apply(chain, w)

        monkeypatch.setattr(whitehead, "apply_automorphism", counted)
        moves = []
        for w in words + still:
            calls.clear()
            cert = minimize_cyclic_length(w)
            assert len(calls) == len(cert.chain), w
            moves.append(len(cert.chain))
        assert sum(moves[: len(words)]) > 0
        assert moves[len(words) :] == [0] * len(still)

    def test_a_wrong_score_is_an_internal_contradiction(self, monkeypatch):
        undercut_scores(monkeypatch)
        with pytest.raises(InternalContradictionError, match=re.escape(UNDERCUT_XXY)):
            minimize_cyclic_length(W("xxy"))

    def test_a_wrong_score_exits_3_from_the_cli(self, monkeypatch, capsys):
        undercut_scores(monkeypatch)
        code = main(["classify", "--n", "2", "xxy"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.splitlines() == [f"internal error: {UNDERCUT_XXY}"]

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
                assert find_cut_vertex(whitehead_graph(image), 2) is not None

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
    """The numpy edge matrix that ``oracle_edge_rows``' count of letter
    pairs replaced: letter l at column 2(|l| - 1) + [l < 0]."""
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
        scores = oracle_move_scores(dense(edges, w.rank))
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


def _conjugated_cores(rank, count, seed):
    """u c u^-1 for random cyclic cores c and random words u of length at
    most 8: every move of the descent maps the conjugator too."""
    rng = random.Random(-seed)
    words = []
    for core in _random_cores(rank, count, seed, lengths=(2, 40)):
        u = random_word(rng.randint(0, 8), rank, rng)
        words.append(u * core * u.inverse())
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
            # every vertex a key, an isolated one with no neighbour
            graph = {u: {v: c for v, c in enumerate(row) if c} for u, row in enumerate(edges)}
            inner = [v for v in range(n) if v not in (source, sink)]
            cuts = {}
            for mask in range(1 << len(inner)):
                side = frozenset([source] + [v for i, v in enumerate(inner) if mask >> i & 1])
                cuts[side] = sum(edges[u][v] for u in side for v in range(n) if v not in side)
            least = min(cuts.values())
            smallest = frozenset.intersection(*(s for s, c in cuts.items() if c == least))
            for bound in range(1, least + 3):
                flow, side = whitehead._min_cut(graph, source, sink, bound)
                dense_flow, dense_side = oracle_dense_min_cut(edges, adj, source, sink, bound)
                assert flow == dense_flow and (side is None) == (dense_side is None)
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
            scores = oracle_move_scores(dense(whitehead_graph(core), rank))
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
            scores = oracle_move_scores(dense(whitehead_graph(w), rank))
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
        # the table oracle's float64 product is exact, and the dense view
        # of the library's letter graph is the numpy edge matrix as int rows
        rng = random.Random(300 + rank)
        words = [random_word(rng.randint(2, 40), rank, rng) for _ in range(count)]
        words = [w for w in words if not cyclic_reduce(w).core.is_identity()]
        for w in words:
            core = cyclic_reduce(w).core
            edges = dense(whitehead_graph(w), rank)
            assert edges == oracle_edge_rows(core)
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
            scores = oracle_move_scores(dense(whitehead_graph(w), rank))
            best = scores.min()
            ties += best < len(w) and int(np.sum(scores == best)) > 1
        assert longest >= 3 and ties > 0

    def test_early_stopped_flows_never_win(self, monkeypatch):
        # every flow that ran to completion found the least cut the table
        # finds for its multiplier; the others stopped at their bound
        calls = []
        original = whitehead._min_cut

        def recording(edges, source, sink, bound):
            flow, side = original(edges, source, sink, bound)
            calls.append((edges, source, sink, bound, flow, side))
            return flow, side

        monkeypatch.setattr(whitehead, "_min_cut", recording)
        for w in _moved_short_words(4, 40, seed=9):
            minimize_cyclic_length(w)
        assert any(side is None for *_, side in calls)
        assert any(side is not None for *_, side in calls)
        per = (1 << 6) - 1
        for edges, source, sink, bound, flow, side in calls:
            # the flow runs from x^-1 to the generator x, whose block of
            # moves starts at x's column 2(x - 1)
            assert sink > 0 and source == -sink
            col = 2 * (sink - 1)
            scores = oracle_move_scores(dense(edges, 4))[col * per : (col + 1) * per]
            length, degree = sum(map(sum, dense(edges, 4))) // 2, sum(edges[source].values())
            least = int(scores.min()) - length + degree  # the least cut
            if side is None:
                assert flow == bound <= least
            else:
                assert flow == least < bound
                mask = int(np.argmin(scores)) + 1
                others = [l for l in vertex_order(4) if abs(l) != sink]
                assert sorted(side) == sorted(
                    [source] + [l for i, l in enumerate(others) if mask >> i & 1]
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


def _words_missing_a_generator(rank, count, seed):
    """Random cyclically reduced words on a random proper subset of the
    generators, of at most six of them."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        gens = rng.sample(range(1, rank + 1), rng.randint(1, min(rank - 1, 6)))
        letters = []
        for _ in range(rng.randint(2, 40)):
            letter = rng.choice(gens) * rng.choice((1, -1))
            if not letters or letters[-1] != -letter:
                letters.append(letter)
        core = cyclic_reduce(Word(tuple(letters), rank)).core
        if not core.is_identity():
            words.append(core)
    return words


def load_benchmark_runner(monkeypatch):
    """``perfbench/run.py``, loaded from its file, unchanged."""
    import importlib.util
    from pathlib import Path

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDenseOracle:
    """The letter-graph descent against the dense matrix descent it
    replaced: the certificate's JSON text, its chain, the verdict, the cut
    vertex and the final graph are equal on every word."""

    @staticmethod
    def check(words, rank):
        for w in words:
            expected, matrix = oracle_dense_descent(w)
            cert = minimize_cyclic_length(w)
            assert json.dumps(cert.to_json_dict()) == json.dumps(expected.to_json_dict()), w
            assert cert.chain == expected.chain
            assert dense(cert.edges, rank) == matrix
            assert cert.cut_vertex == oracle_dense_cut_vertex(matrix)
            assert classify(w, cert) == oracle_dense_classify(w)

    @pytest.mark.parametrize("rank", range(2, 9))
    def test_random_and_moved_words(self, rank):
        words = _random_cores(rank, 40, seed=800 + rank, lengths=(2, 40))
        words += _moved_short_words(rank, 40, seed=900 + rank)
        words += _conjugated_cores(rank, 40, seed=1100 + rank)
        self.check(words, rank)

    @pytest.mark.parametrize("rank", [6, 7, 8, 16, 64])
    def test_words_that_miss_a_generator(self, rank):
        words = _words_missing_a_generator(rank, 40, seed=1000 + rank)
        self.check(words, rank)
        assert all(cert.cut_vertex == 1 for cert in map(minimize_cyclic_length, words))

    @pytest.mark.parametrize("rank,length", [(26, 20), (64, 20), (3, 200)])
    def test_rank_curve_shapes(self, rank, length):
        rng = random.Random(f"{rank}:{length}")
        words = []
        while len(words) < 30:
            w = random_word(length, rank, rng)
            if not cyclic_reduce(w).core.is_identity():
                words.append(w)
        self.check(words, rank)

    def test_benchmark_words(self, monkeypatch):
        run = load_benchmark_runner(monkeypatch)
        for seed in (1, 2, 3):
            ops = run.make_ops("word-descent", seed)["ops"]
            assert len(ops) == 36
            for op in ops:
                self.check([parse_word(op["word"], op["rank"])], op["rank"])
