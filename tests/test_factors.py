import pickle
import random
import time
from collections import deque

import pytest

from freefactor import (
    Classification,
    CoreGraph,
    DomainError,
    FreeFactorVertex,
    PreconditionError,
    RankError,
    Word,
    af_adjacent,
    apply_automorphism,
    b_index,
    b_reduced_decomposition,
    boundary_word,
    build_boundary_pA,
    classify,
    cyclic_reduce,
    enumerate_whitehead_automorphisms,
    factor_invariant,
    fold,
    format_word,
    is_basis_pair,
    random_free_factor,
    random_word,
)
from freefactor.experiments import _find_second_minimizing_basis
from freefactor.factors import (
    _BASIS_COMMUTATORS,
    _contains,
    _cyclic_value,
    _factor_value,
    _in_cyclic,
    _random_factor_letters,
    _trusted_factor,
)
from freefactor.words import GENERATOR_CHARS, _b_exponent, _peel
from freefactor.whitehead import vertex_order

from freefactor import factors

from conftest import (
    W,
    _peak_kb,
    deep_factor,
    edge_images,
    fresh_python,
    oracle_random_free_factor,
    psi_power,
    random_cyclically_reduced,
    random_element,
    reduced_loops,
)


def subgroup_rank(graph: CoreGraph) -> int:
    return graph.num_edges - graph.num_vertices + 1


def subgroup_basis(graph: CoreGraph) -> list[Word]:
    """A free basis read off a spanning tree (one word per extra edge)."""
    adj = graph._adj
    path = {graph.basepoint: ()}
    tree_edges = set()  # directed-positive identity (source, letter, target)
    queue = deque([graph.basepoint])
    while queue:
        cur = queue.popleft()
        for letter in vertex_order(graph.rank):
            nxt = adj[cur].get(letter)
            if nxt is not None and nxt not in path:
                path[nxt] = path[cur] + (letter,)
                if letter > 0:
                    tree_edges.add((cur, letter, nxt))
                else:
                    tree_edges.add((nxt, -letter, cur))
                queue.append(nxt)
    basis = []
    for u in sorted(adj):
        for letter in range(1, graph.rank + 1):
            v = adj[u].get(letter)
            if v is None or (u, letter, v) in tree_edges:
                continue
            loop = path[u] + (letter,) + tuple(-l for l in reversed(path[v]))
            word = Word.from_letters(loop, graph.rank)
            if not word.is_identity():
                basis.append(word)
    return basis


class TestFold:
    def test_single_generator_loop(self):
        g = fold([W("x")])
        assert (g.num_vertices, g.num_edges) == (1, 1)
        assert subgroup_rank(g) == 1

    def test_whole_group_rose(self):
        g = fold([W("x"), W("y")])
        assert g.is_whole_group()

    def test_index_two_subgroup(self):
        g = fold([W("xx"), W("y"), W("xyX")])
        # index-2 subgroup: rank 1 + 2*(2-1) = 3 by the index formula
        assert subgroup_rank(g) == 3
        assert (g.num_vertices, g.num_edges) == (2, 4)
        assert g.contains(W("xx"))
        assert not g.contains(W("x"))

    def test_lollipop(self):
        g = fold([W("yxY")])
        assert (g.num_vertices, g.num_edges) == (2, 2)
        assert g.contains(W("yxY"))
        assert g.contains(W("yxxxY"))
        assert not g.contains(W("x"))

    def test_idempotent_on_own_basis(self):
        for gens in ([W("xx"), W("y"), W("xyX")], [W("xyXY")], [W("x"), W("yxY")]):
            g = fold(gens)
            again = fold(subgroup_basis(g), rank=2)
            # canonical renumbering makes equal subgroups give equal graphs
            assert (g.rank, g._adj) == (again.rank, again._adj)

    def test_dot_export(self):
        text = fold([W("x")]).to_dot()
        assert "digraph" in text and "label=\"x\"" in text

    def test_dot_labels_match_compact_letters_up_to_rank_26(self):
        # each edge is labelled with its letter as a word prints it, which
        # up to rank 26 is the compact character
        rng = random.Random(4)
        for _ in range(60):
            rank = rng.randint(2, 26)
            graph = random_free_factor(rank, rng.randint(1, rank - 1), 3, rng).graph
            assert graph.to_dot() == oracle_to_dot(graph)

    @pytest.mark.parametrize("rank", [2, 26, 27, 30])
    def test_dot_labels_are_word_text(self, rank):
        # each label prints its letter as the one-letter Word prints
        rng = random.Random(rank)
        for _ in range(20):
            graph = random_free_factor(rank, rng.randint(1, rank - 1), 3, rng).graph
            lines = ["digraph core {", '  0 [shape=doublecircle];']
            for u in sorted(graph._adj):
                for letter, v in sorted(graph._adj[u].items()):
                    if letter > 0:
                        label = format_word(Word((letter,), rank))
                        lines.append(f'  {u} -> {v} [label="{label}"];')
            assert graph.to_dot() == "\n".join(lines + ["}"])
            assert graph.to_dot() == oracle_rank_scan_to_dot(graph)

    def test_dot_text_at_rank_one_million(self):
        # to_dot reads each vertex's own edges, not the alphabet, so the
        # graph of xyX prints its two edges at rank 10^6 as fast as at rank 2
        graph = fold([Word((1, 2, -1), 10**6)])
        start = time.perf_counter()
        text = graph.to_dot()
        seconds = time.perf_counter() - start
        assert text == "\n".join(
            [
                "digraph core {",
                "  0 [shape=doublecircle];",
                '  0 -> 1 [label="x1"];',
                '  1 -> 1 [label="x2"];',
                "}",
            ]
        )
        assert seconds < 0.05

    def test_dot_labels_past_rank_26(self):
        text = fold([Word((27,), 30), Word((3, 30), 30)]).to_dot()
        assert '[label="x27"]' in text and '[label="x30"]' in text
        assert '[label="z"]' not in text and '[label="x3"]' in text


def oracle_to_dot(graph) -> str:
    """The DOT text as it was written when edges took their labels from
    the compact characters, which exist up to rank 26 only."""
    lines = ["digraph core {", '  0 [shape=doublecircle];']
    for u in sorted(graph._adj):
        for letter in range(1, graph.rank + 1):
            if letter in graph._adj[u]:
                label = GENERATOR_CHARS[letter - 1]
                lines.append(f'  {u} -> {graph._adj[u][letter]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def oracle_rank_scan_to_dot(graph) -> str:
    """The DOT text as it was written when each vertex scanned the letters
    1..rank for its edges, O(rank) per vertex."""
    lines = ["digraph core {", '  0 [shape=doublecircle];']
    for u in sorted(graph._adj):
        nbrs = graph._adj[u]
        for letter in range(1, graph.rank + 1):
            if letter in nbrs:
                label = format_word(Word((letter,), graph.rank))
                lines.append(f'  {u} -> {nbrs[letter]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def oracle_fixpoint_fold(generators, rank=None):
    """The fixpoint fold that oracle_fold replaced, kept as the reference.

    Repeatedly merges endpoints of equal-label edges sharing a source or a
    target, then trims non-basepoint degree-1 vertices and renumbers
    canonically.  Each merge restarts the scan of every edge.
    """
    gens = [g for g in generators if not g.is_identity()]
    if rank is None:
        if not generators:
            raise DomainError("cannot infer rank from an empty generator list")
        rank = generators[0].rank
    if any(g.rank != rank for g in gens):
        raise RankError("generators have mismatched ranks")

    parent: list[int] = [0]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u: int, v: int) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            if rv == 0:
                ru, rv = rv, ru
            parent[rv] = ru

    edges: list[tuple[int, int, int]] = []  # (source, positive letter, target)
    for g in gens:
        cur = 0
        for i, letter in enumerate(g.letters):
            if i == len(g.letters) - 1:
                nxt = 0
            else:
                nxt = len(parent)
                parent.append(nxt)
            if letter > 0:
                edges.append((cur, letter, nxt))
            else:
                edges.append((nxt, -letter, cur))
            cur = nxt

    # Fold to a fixpoint: any two equal-label edges sharing a source (or a
    # target) force their other endpoints together.
    while True:
        by_source: dict[tuple[int, int], int] = {}
        by_target: dict[tuple[int, int], int] = {}
        canonical = set()
        merged = False
        for u, letter, v in edges:
            ru, rv = find(u), find(v)
            canonical.add((ru, letter, rv))
            other = by_source.get((ru, letter))
            if other is None:
                by_source[(ru, letter)] = rv
            elif other != rv:
                union(other, rv)
                merged = True
                break
            other = by_target.get((rv, letter))
            if other is None:
                by_target[(rv, letter)] = ru
            elif other != ru:
                union(other, ru)
                merged = True
                break
        if not merged:
            edges = list(canonical)
            break

    adj: dict[int, dict[int, int]] = {}
    for u, letter, v in edges:
        adj.setdefault(u, {})[letter] = v
        adj.setdefault(v, {})[-letter] = u
    adj.setdefault(0, {})

    # Trim spurs: non-basepoint vertices of degree 1 cannot lie on any loop.
    while True:
        spur = next(
            (v for v, nbrs in adj.items() if v != 0 and len(nbrs) <= 1), None
        )
        if spur is None:
            break
        for letter, nbr in list(adj[spur].items()):
            del adj[nbr][-letter]
        del adj[spur]

    # Canonical renumbering: breadth-first from the basepoint, letter order;
    # each vertex's edges are stored in that letter order too.
    order = {0: 0}
    queue = [0]
    new_adj: dict[int, dict[int, int]] = {}
    while queue:
        cur = queue.pop(0)
        nbrs = new_adj[order[cur]] = {}
        for letter in sorted(adj[cur], key=lambda l: (abs(l), l < 0)):
            nxt = adj[cur][letter]
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
            nbrs[letter] = order[nxt]
    return CoreGraph(rank, new_adj)


def oracle_fold(generators, rank=None):
    """The lay-then-merge fold that fold's read-then-merge replaced, kept
    as the reference.

    Lays every generator loop down letter by letter; an edge whose slot
    is already taken by another vertex pushes that pair onto a merge
    stack, and the merges then run as in fold.  Vertices are renumbered
    canonically, as in fold.
    """
    gens = [g for g in generators if not g.is_identity()]
    if rank is None:
        if not generators:
            raise DomainError("cannot infer rank from an empty generator list")
        rank = generators[0].rank
    if any(g.rank != rank for g in gens):
        raise RankError("generators have mismatched ranks")

    parent: list[int] = [0]
    adj: list[dict[int, int]] = [{}]
    merges: list[tuple[int, int]] = []

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for g in gens:
        cur = 0
        last = len(g.letters) - 1
        for i, letter in enumerate(g.letters):
            if i == last:
                nxt = 0
            else:
                nxt = len(adj)
                parent.append(nxt)
                adj.append({})
            other = adj[cur].setdefault(letter, nxt)
            if other != nxt:
                merges.append((other, nxt))
            other = adj[nxt].setdefault(-letter, cur)
            if other != cur:
                merges.append((other, cur))
            cur = nxt

    while merges:
        u, v = merges.pop()
        u, v = find(u), find(v)
        if u == v:
            continue
        if v == 0 or (u != 0 and len(adj[u]) < len(adj[v])):
            u, v = v, u
        parent[v] = u
        keep = adj[u]
        for letter, w in adj[v].items():
            other = keep.setdefault(letter, w)
            if other != w:
                merges.append((other, w))
        adj[v] = {}

    letter_order = vertex_order(rank)
    order = {0: 0}
    queue = deque([0])
    new_adj: dict[int, dict[int, int]] = {}
    while queue:
        cur = queue.popleft()
        nbrs = new_adj[order[cur]] = {}
        slots = adj[cur]
        for letter in letter_order:
            nxt = slots.get(letter)
            if nxt is None:
                continue
            nxt = find(nxt)
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
            nbrs[letter] = order[nxt]
    return CoreGraph(rank, new_adj)


def adjacency_lists(graph):
    """The graph's adjacency with vertex and per-vertex letter order kept."""
    return [(u, list(nbrs.items())) for u, nbrs in graph._adj.items()]


def assert_core(graph):
    """Every edge is stored at both ends, and every non-basepoint vertex has
    degree >= 2 (the graph is a core graph without any spur trimming)."""
    for u, nbrs in graph._adj.items():
        for letter, v in nbrs.items():
            assert graph._adj[v][-letter] == u
        if u != graph.basepoint:
            assert len(nbrs) >= 2


def random_generators(rng, rank):
    """A few short generators: reduced words (often not cyclically reduced),
    conjugates u c u^-1, powers and the identity."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.45:
            gens.append(random_word(rng.randint(1, 10), rank, rng))
        elif kind < 0.8:
            u = random_word(rng.randint(1, 6), rank, rng)
            c = random_word(rng.randint(1, 4), rank, rng)
            gens.append(u * c * u.inverse())
        elif kind < 0.95:
            gens.append(random_word(rng.randint(1, 4), rank, rng) ** rng.randint(2, 3))
        else:
            gens.append(Word.identity(rank))
    return gens


class TestFoldOracle:
    @pytest.mark.parametrize("rank,count", [(2, 2000), (3, 1500), (4, 1000), (5, 800)])
    def test_random_subgroups(self, rank, count):
        rng = random.Random(700 + rank)
        for _ in range(count):
            gens = random_generators(rng, rank)
            graph = fold(gens, rank)
            expected = oracle_fixpoint_fold(gens, rank)
            assert adjacency_lists(graph) == adjacency_lists(expected), gens
            assert_core(graph)

    def test_orbit_grid_generators(self):
        psi = build_boundary_pA()
        b = boundary_word(2)
        for sign in (1, -1):
            w = W("x")
            for r in range(7):
                for k in range(-6, 7):
                    gen = (b**k) * w * (b**-k)
                    graph = fold([gen], 2)
                    expected = oracle_fixpoint_fold([gen], 2)
                    assert adjacency_lists(graph) == adjacency_lists(expected)
                    assert_core(graph)
                w = psi_power(psi, w, sign)

    def test_empty_and_identity(self):
        for gens in ([], [Word.identity(3)]):
            graph = fold(gens, 3)
            assert graph._adj == oracle_fixpoint_fold(gens, 3)._adj == {0: {}}

    def test_long_conjugate_cascade(self):
        # |u| folds cascade from the basepoint; rescanning every edge after
        # each merge would take minutes here
        v = random_word(19_999, 2, random.Random(9))
        u = Word(v.letters + ((-2,) if v.letters[-1] == -2 else (2,)), 2)
        assert len(u) == 20_000  # ends in y or Y, so u x u^-1 is reduced
        graph = fold([u * W("x") * u.inverse()])
        assert (graph.num_vertices, graph.num_edges) == (len(u) + 1, len(u) + 1)
        assert graph.contains(u * W("xxx") * u.inverse())
        assert not graph.contains(u * W("y") * u.inverse())


def read_then_merge_cases(rng, rank):
    """A generator list for the read-then-merge fold: random_generators'
    words, with repeated generators, inverses of earlier ones and the
    identity mixed in, and at times the whole set conjugated by one word,
    so that later generators read far along the edges earlier ones laid."""
    gens = random_generators(rng, rank)
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.35:
            gens.append(rng.choice(gens))
        elif kind < 0.7:
            gens.append(rng.choice(gens).inverse())
        elif kind < 0.85:
            gens.append(Word.identity(rank))
        else:
            gens.append(rng.choice(gens) * random_word(rng.randint(1, 3), rank, rng))
    if rng.random() < 0.4:
        u = random_word(rng.randint(1, 6), rank, rng)
        gens = [g.conjugated_by(u) for g in gens]
    rng.shuffle(gens)
    return gens


class TestReadThenMergeFold:
    """fold reads each generator along the edges already laid before it
    lays anything; oracle_fold, which lays every letter, is the reference,
    and the two graphs must be identical, vertex and letter order too."""

    @pytest.mark.parametrize("rank,count", [(2, 8000), (3, 7000), (4, 5000)])
    def test_matches_lay_then_merge(self, rank, count):
        rng = random.Random(4400 + rank)
        kinds = {"repeat": 0, "inverse": 0, "identity": 0}
        for _ in range(count):
            gens = read_then_merge_cases(rng, rank)
            graph = fold(gens, rank)
            assert adjacency_lists(graph) == adjacency_lists(oracle_fold(gens, rank)), gens
            assert_core(graph)
            letters = [g.letters for g in gens]
            kinds["repeat"] += len(set(letters)) < len(letters)
            kinds["inverse"] += any(g.inverse().letters in letters for g in gens)
            kinds["identity"] += () in letters
        assert min(kinds.values()) >= count // 10, kinds

    def test_sampled_factor_edges(self):
        # the two-generator factors that lipschitz folds at rank 3, and the
        # basis-change factors at ranks 3 and 4
        for rank in (3, 4):
            rng = random.Random(4500 + rank)
            b = boundary_word(rank)
            for _ in range(400):
                gens = list(edge_images(rng, rank, b))
                subgroups = [rng.sample(gens, 2), deep_factor(rng, rank, b).generators]
                for sub in subgroups:
                    assert adjacency_lists(fold(sub, rank)) == adjacency_lists(
                        oracle_fold(sub, rank)
                    ), sub

    @pytest.mark.parametrize(
        "texts",
        [
            ["xyX"],  # the middle starts with the inverse of its last letter
            ["x", "xx"],  # read whole: the stop is the basepoint
            ["xy", "xyxy"],  # read whole, ending off the basepoint
            ["xyX", "xyyX"],  # conjugates share a prefix and a suffix
            ["xy", "YX"],  # a generator and its inverse
            ["xyz", "zyx", "xzY"],
        ],
    )
    def test_small_cases(self, texts):
        gens = [W(t, 3) for t in texts]
        assert adjacency_lists(fold(gens, 3)) == adjacency_lists(oracle_fold(gens, 3))
        assert adjacency_lists(fold(gens, 3)) == adjacency_lists(oracle_fixpoint_fold(gens, 3))

    def test_renumbering_reads_only_each_vertex_slots(self):
        # the canonical renumbering walks each vertex's own slots in letter
        # order, not the whole alphabet, so xyX folds to the same two-vertex
        # graph at rank 10^6 as at rank 2, and as fast
        small = fold([W("xyX")])
        start = time.perf_counter()
        big = fold([Word((1, 2, -1), 10**6)])
        seconds = time.perf_counter() - start
        assert big._adj == small._adj
        assert adjacency_lists(big) == adjacency_lists(small)
        assert seconds < 0.05


class TestContains:
    def test_powers(self):
        g = fold([W("x")])
        assert g.contains(W("x") ** 5)
        assert not g.contains(W("y"))

    def test_traced_word(self):
        g = fold([W("xx"), W("y")])
        assert g.contains(W("xxy"))

    def test_brute_force_agreement(self):
        gens = [W("xx"), W("xyX")]
        g = fold(gens)
        # enumerate all products of length <= 6 in the generators
        elements = {()}
        words = {(): Word.identity(2)}
        frontier = [()]
        for _ in range(6):
            new = []
            for idx in frontier:
                for s in (1, -1, 2, -2):
                    if idx and s == -idx[-1]:
                        continue
                    nxt = idx + (s,)
                    base = words[idx]
                    gen = gens[abs(s) - 1]
                    words[nxt] = base * (gen if s > 0 else gen.inverse())
                    new.append(nxt)
                    elements.add(nxt)
            frontier = new
        in_subgroup = {words[idx].letters for idx in elements}
        rng = random.Random(2)
        for _ in range(200):
            w = random_word(rng.randint(0, 8), 2, rng)
            if w.letters in in_subgroup:
                assert g.contains(w)
        # and everything enumerated is accepted
        for idx in elements:
            assert g.contains(words[idx])

    def test_fuzzed_membership(self):
        # random short 2-generator subgroups: every product of the
        # generators reads a basepoint loop, and graphs rebuilt from their
        # own basis agree on membership
        rng = random.Random(41)
        for _ in range(25):
            gens = [random_word(rng.randint(1, 5), 2, rng) for _ in range(2)]
            gens = [g for g in gens if not g.is_identity()]
            if not gens:
                continue
            g = fold(gens, rank=2)
            regen = fold(subgroup_basis(g), rank=2)
            for _ in range(40):
                idx = [rng.choice([1, -1, 2, -2][: 2 * len(gens)]) for _ in range(rng.randint(1, 5))]
                w = Word.identity(2)
                for s in idx:
                    base = gens[abs(s) - 1]
                    w = w * (base if s > 0 else base.inverse())
                assert g.contains(w)
                assert regen.contains(w)
            for _ in range(40):
                w = random_word(rng.randint(0, 10), 2, rng)
                assert g.contains(w) == regen.contains(w)


def oracle_is_basis_pair(u, v):
    """The fold that is_basis_pair replaced, kept as the reference: {u, v}
    is a basis iff it generates the whole rank-2 group."""
    return fold([u, v], 2).is_whole_group()


def oracle_word_commutator_basis_pair(u, v):
    """The Word-product form that is_basis_pair's letter tuples replaced:
    [u, v] built as three reduced products of Words and two inverses."""
    ls = (u * v * u.inverse() * v.inverse()).letters
    i = _peel(ls)
    return ls[i : len(ls) - i] in _BASIS_COMMUTATORS


def basis_pair_cases(rng, count):
    """``count`` batches of eight rank-2 pairs: a basis, its conjugate,
    a Nielsen move of it and four non-bases made from it, and a random
    pair; operands are swapped at random."""
    table = enumerate_whitehead_automorphisms(2)
    for _ in range(count):
        chain = [rng.choice(table) for _ in range(rng.randint(0, 6))]
        u = apply_automorphism(chain, W("x"))
        v = apply_automorphism(chain, W("y"))
        w = random_word(rng.randint(1, 4), 2, rng)
        identity = Word.identity(2)
        pairs = [
            (u, v),
            (u.conjugated_by(w), v.conjugated_by(w)),
            (u * v ** rng.choice((-2, -1, 1, 2)), v),
            (u * u, v),
            (u, u),
            (identity, v) if rng.random() < 0.5 else (u, identity),
            (u, v ** rng.randint(2, 3)),
            (random_word(rng.randint(0, 5), 2, rng), random_word(rng.randint(0, 5), 2, rng)),
        ]
        for a, b in pairs:
            yield (b, a) if rng.random() < 0.5 else (a, b)


class TestBasisPair:
    def test_standard(self):
        assert is_basis_pair(W("x"), W("y"))

    def test_nielsen_image(self):
        assert is_basis_pair(W("x"), W("yx"))

    def test_non_basis(self):
        assert not is_basis_pair(W("x"), W("yxxY"))

    def test_rank_guard(self):
        with pytest.raises(RankError):
            is_basis_pair(W("x", 3), W("y", 3))

    def test_random_chain_images_stay_bases(self):
        rng = random.Random(5)
        table = enumerate_whitehead_automorphisms(2)
        for _ in range(30):
            chain = [rng.choice(table) for _ in range(rng.randint(0, 5))]
            u = apply_automorphism(chain, W("x"))
            v = apply_automorphism(chain, W("y"))
            assert is_basis_pair(u, v)

    def test_matches_fold_oracle(self):
        rng = random.Random(1501)
        pairs = list(basis_pair_cases(rng, 2600))  # 20,800 pairs
        bases = 0
        for u, v in pairs:
            expected = oracle_is_basis_pair(u, v)
            assert is_basis_pair(u, v) == expected, (u, v)
            assert oracle_word_commutator_basis_pair(u, v) == expected, (u, v)
            bases += expected
        assert 3 * 2600 <= bases < len(pairs) - 3 * 2600


def oracle_af_adjacent(a, b):
    """The fold-only edge rule af_adjacent replaced: containment read off
    both core graphs at rank >= 3, the folded basis-pair test at rank 2."""
    if a.rank_ambient == 2:
        return oracle_is_basis_pair(a.generators[0], b.generators[0])
    a_in_b = all(b.graph.contains(w) for w in a.generators)
    b_in_a = all(a.graph.contains(w) for w in b.generators)
    return a_in_b != b_in_a


def held(factor):
    """The factor as the experiments' trial loops build it: a vertex on its
    generators' letters, with no Word built (``_trusted_factor``)."""
    return _trusted_factor(tuple(g.letters for g in factor.generators), factor.rank_ambient)


def assert_adjacency(a, b, expected):
    assert af_adjacent(a, b) == oracle_af_adjacent(a, b) == expected, (
        a.describe(),
        b.describe(),
    )


class TestAdjacency:
    def test_nested_standard(self):
        a = FreeFactorVertex((W("x", 3),), 3)
        b = FreeFactorVertex((W("x", 3), W("y", 3)), 3)
        assert_adjacency(a, b, True)
        assert_adjacency(b, a, True)

    def test_disjoint_not_adjacent(self):
        a = FreeFactorVertex((W("x", 3),), 3)
        b = FreeFactorVertex((W("y", 3),), 3)
        assert_adjacency(a, b, False)

    def test_equal_not_adjacent(self):
        a = FreeFactorVertex((W("x", 3),), 3)
        assert_adjacency(a, a, False)

    def test_equivariance(self):
        rng = random.Random(7)
        table = enumerate_whitehead_automorphisms(3)
        for _ in range(20):
            chain = [rng.choice(table) for _ in range(rng.randint(1, 3))]
            gens = [apply_automorphism(chain, W(t, 3)) for t in ("x", "y")]
            a = FreeFactorVertex((gens[0],), 3)
            b = FreeFactorVertex(tuple(gens), 3)
            assert_adjacency(a, b, True)

    def test_rank2_uses_basis_pairs(self):
        a = FreeFactorVertex((W("x"),), 2)
        b = FreeFactorVertex((W("yx"),), 2)
        c = FreeFactorVertex((W("yxxY"),), 2)
        assert_adjacency(a, b, True)
        assert_adjacency(a, c, False)

    @pytest.mark.parametrize("rank", [3, 4])
    def test_sampled_pairs_match_fold_oracle(self, rank):
        # 1,000 draws per rank: a nested pair <t_i> < <t_i, t_j> of
        # generator images both ways round, then two cyclic pairs that the
        # closed form alone decides, <t_i> against <t_j> and <t_i^2>
        rng = random.Random(1600 + rank)
        b = boundary_word(rank)
        adjacent = 0
        for _ in range(1000):
            images = edge_images(rng, rank, b)
            ti, tj = rng.sample(images, 2)
            small = FreeFactorVertex((ti,), rank)
            big = FreeFactorVertex((ti, tj), rank)
            other = FreeFactorVertex((tj,), rank)
            square = FreeFactorVertex((ti * ti,), rank)
            for a, c in ((small, big), (big, small), (small, other), (square, small)):
                expected = oracle_af_adjacent(a, c)
                assert af_adjacent(a, c) == expected, (a.describe(), c.describe())
                # each factor as the trial loops hold it: a vertex on its
                # letters, built with no Word
                a_held, c_held = (held(f) for f in (a, c))
                assert af_adjacent(a_held, c_held) == expected, (a.describe(), c.describe())
                adjacent += expected
        assert adjacent == 3 * 1000


class TestCyclicMembership:
    """af_adjacent reads membership in a cyclic factor off its generator;
    the walk on the folded core graph stays the oracle."""

    def test_matches_fold_oracle(self):
        rng = random.Random(1701)
        members = non_members = 0
        for rank in (2, 3, 4, 5):
            for _ in range(600):
                root = random_cyclically_reduced(rng, rank, 5)
                m = rng.choice((1, 1, 2, 3))
                conj = random_word(rng.randint(0, 4), rank, rng)
                g = conj * root**m * conj.inverse()
                split = cyclic_reduce(g)
                u, c = split.conjugator, split.core.letters
                # a prefix of c^2 whose length is no multiple of |c| (c itself
                # when |c| = 1)
                cut = rng.choice([k for k in range(1, 2 * len(c)) if k % len(c)] or [1])
                near = Word.from_letters((c * 2)[:cut], rank)
                wrong = u * random_word(rng.randint(1, 2), rank, rng)
                candidates = [g**n for n in range(-3, 4)] + [
                    conj * root * conj.inverse(),  # a root of g, when m > 1
                    u * near * u.inverse(),
                    wrong * Word(c, rank) * wrong.inverse(),
                    random_word(rng.randint(1, 10), rank, rng),
                ]
                graph = fold([g], rank)
                for w in candidates:
                    expected = graph.contains(w)
                    assert _in_cyclic(g.letters, w.letters) == expected, (g, w)
                    members += expected
                    non_members += not expected
        assert members >= 7 * 4 * 600 and non_members >= 2 * 4 * 600


class TestRandomFreeFactor:
    def test_determinism(self):
        a = random_free_factor(3, 2, 4, seed=9)
        b = random_free_factor(3, 2, 4, seed=9)
        assert a.generators == b.generators

    def test_generators_are_simple(self):
        for seed in range(5):
            factor = random_free_factor(2, 1, 3, seed=seed)
            for g in factor.generators:
                assert classify(g) != Classification.FILLING

    def test_rank_bounds(self):
        with pytest.raises(RankError):
            random_free_factor(3, 3, 1, seed=0)
        with pytest.raises(RankError):
            random_free_factor(3, 0, 1, seed=0)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_word_level_sampler(self, rank):
        # the same generators, and the stream left where the Word-level
        # sampler left it
        for seed in range(200):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            factor_rank, chain_length = 1 + seed % (rank - 1), seed % 6
            factor = random_free_factor(rank, factor_rank, chain_length, rng)
            expected = oracle_random_free_factor(rank, factor_rank, chain_length, oracle_rng)
            assert factor == expected, seed
            assert rng.getstate() == oracle_rng.getstate(), seed
            assert all(Word(g.letters, rank) == g for g in factor.generators)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_wraps_the_letter_sampler(self, rank):
        # the letters, and the stream left where the one letter sampler,
        # which experiments._random_deep_factor also calls, leaves it
        for seed in range(200):
            rng, letter_rng = random.Random(seed), random.Random(seed)
            factor_rank, chain_length = 1 + seed % (rank - 1), seed % 6
            factor = random_free_factor(rank, factor_rank, chain_length, rng)
            letters = _random_factor_letters(letter_rng, rank, factor_rank, chain_length)
            assert all(type(g) is tuple for g in letters)
            assert tuple(g.letters for g in factor.generators) == letters, seed
            assert rng.getstate() == letter_rng.getstate(), seed

    def test_negative_chain_length(self):
        # range(-2) is empty: this once returned an untransformed factor
        with pytest.raises(DomainError, match="chain length must be at least 0"):
            random_free_factor(3, 1, -2, 0)

    @pytest.mark.parametrize(
        "args", [(3.0, 1, 2), (2.5, 1, 2), (3, 1.0, 2), (3, 2.5, 2), (3, 1, 2.0), (3, 1, 2.5)]
    )
    def test_non_integer_arguments(self, args):
        with pytest.raises(DomainError, match="must be an integer"):
            random_free_factor(*args, 0)

    @pytest.mark.parametrize("seed", [(1, 2), [1], {}])
    def test_unreadable_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be None, an int.* or a random.Random"):
            random_free_factor(3, 1, 2, seed)


class TestFreeFactorVertex:
    def test_list_generators_become_a_tuple(self):
        x, y = W("x", 3), W("y", 3)
        listed = FreeFactorVertex([x, y], 3)
        assert type(listed.generators) is tuple
        assert listed == FreeFactorVertex((x, y), 3)
        assert hash(listed) == hash(FreeFactorVertex((x, y), 3))
        b = W("xxyyzz", 3)
        assert factor_invariant(listed, b) == factor_invariant(FreeFactorVertex((x, y), 3), b)

    @pytest.mark.parametrize("generators", [5, None])
    def test_generators_not_a_sequence(self, generators):
        with pytest.raises(DomainError, match="generators must be a sequence"):
            FreeFactorVertex(generators, 3)

    def test_graph_is_folded_once_and_kept_by_the_vertex(self, monkeypatch):
        folds = []
        fold = factors.fold

        def counted(*args):
            folds.append(args)
            return fold(*args)

        monkeypatch.setattr(factors, "fold", counted)
        a = FreeFactorVertex((W("xy", 3), W("zX", 3)), 3)
        assert a.graph is a.graph and len(folds) == 1
        # an equal vertex folds its own; equality, hashing, repr and
        # pickling read the fields only
        twin = FreeFactorVertex(a.generators, 3)
        assert (twin, hash(twin), repr(twin)) == (a, hash(a), repr(a))
        assert twin.graph is not a.graph and len(folds) == 2
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and len(folds) == 2
        with pytest.raises(AttributeError):
            a._graph = None

    def test_graphs_die_with_their_factors(self):
        # a fresh interpreter reads the graph of 50 distinct factors of
        # 10,000 letters and drops each factor; its own high-water RSS
        # (VmHWM) rises by 5.6 MB, with the graphs on the factors, and rose
        # by 143 MB when a 4,096-entry module cache kept every graph
        script = (
            "from freefactor import FreeFactorVertex, random_word\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(status.read().split('VmHWM:')[1].split()[0]) / 1024\n"
            "start = peak()\n"
            "for seed in range(50):\n"
            "    FreeFactorVertex((random_word(10000, 3, seed),), 3).graph\n"
            "print(peak() - start)\n"
        )
        if _peak_kb() is None:
            pytest.skip("no /proc/self/status to read VmHWM from")
        done = fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 30, done.stdout


class TestTrustedFactor:
    """The trial loops' vertices, built on letter tuples with no Word and
    no check (``_trusted_factor``), against the public constructor on the
    same words."""

    def test_cyclic_is_decided_at_construction(self):
        x, y = W("x", 3), W("y", 3)
        assert FreeFactorVertex((x,), 3)._cyclic == (1,)
        assert FreeFactorVertex((x, Word.identity(3)), 3)._cyclic == (1,)
        assert FreeFactorVertex((x, y), 3)._cyclic is None
        assert FreeFactorVertex((Word.identity(3),), 3)._cyclic is None
        assert _trusted_factor(((1,),), 3)._cyclic == (1,)
        assert _trusted_factor(((1,), (2,)), 3)._cyclic is None

    def test_matches_the_public_constructor(self):
        # the lipschitz sampler's pairs and the basis-change sampler's
        # factors, 3 x 250 x 3 = 2,250 factors at ranks 2-4
        rng = random.Random(4602)
        compared = cyclic = adjacent = 0
        for rank in (2, 3, 4):
            b = boundary_word(rank)
            bl, binv = b.letters, b.inverse().letters
            neighbour = FreeFactorVertex((Word((1,), rank),), rank)
            for _ in range(250):
                images = edge_images(rng, rank, b)
                ti, tj = images[:2] if rank == 2 else rng.sample(images, 2)
                small = (ti,)
                big = (tj,) if rank == 2 else (ti, tj)
                deep = deep_factor(rng, rank, b).generators
                built = []
                for gens in (small, big, deep):
                    trusted = _trusted_factor(tuple(g.letters for g in gens), rank)
                    public = FreeFactorVertex(gens, rank)
                    self.assert_same(trusted, public, gens, neighbour, b, bl, binv)
                    built.append((trusted, public))
                    compared += 1
                    cyclic += public._cyclic is not None
                (small_t, small_p), (big_t, big_p) = built[:2]
                assert af_adjacent(small_t, big_t) == af_adjacent(small_p, big_p) is True
                adjacent += af_adjacent(neighbour, built[2][1])
        assert compared == 2250 and 0 < cyclic < compared and adjacent > 0

    @staticmethod
    def assert_same(trusted, public, gens, neighbour, b, bl, binv):
        words = [format_word(g) for g in gens]
        assert trusted == public and hash(trusted) == hash(public), words
        assert trusted.describe() == public.describe() == words
        assert trusted.generators == public.generators == tuple(gens)
        assert trusted._cyclic == public._cyclic, words
        for vertex in (trusted, public):
            copy = pickle.loads(pickle.dumps(vertex))
            assert (copy, hash(copy), copy._cyclic) == (public, hash(public), public._cyclic)
        assert all(_contains(trusted, g) for g in public.generator_letters), words
        assert all(_contains(public, g) for g in trusted.generator_letters), words
        edge = oracle_af_adjacent(public, neighbour)
        assert af_adjacent(trusted, neighbour) == af_adjacent(public, neighbour) == edge
        assert af_adjacent(neighbour, trusted) == edge, words
        oracle = value_outcome(lambda: factor_invariant(public, b).value)
        assert value_outcome(lambda: _factor_value(trusted, b, bl, binv)) == oracle, words
        assert value_outcome(lambda: _factor_value(public, b, bl, binv)) == oracle, words


def oracle_factor_invariant(a, b, sample_budget=150):
    """The product sampler that factor_invariant replaced: (value, tight).

    Enumerates products of the generators breadth-first until two distinct
    exponents appear (then the larger is provably the supremum, tight) or
    the budget runs out (then the supremum is value or value + 1).
    """
    gens = [g for g in a.generators if not g.is_identity()]
    lo = hi = None
    samples = 0
    seen = set()
    # elements of a cyclic subgroup share one axis and one exponent
    max_len = 3 if len(gens) == 1 else None
    signed = [i + 1 for i in range(len(gens))]
    signed += [-s for s in signed]
    frontier = [((), Word.identity(b.rank))]
    length = 0
    while frontier and samples < sample_budget:
        length += 1
        if max_len is not None and length > max_len:
            break
        new_frontier = []
        for idx, prod in frontier:
            for s in signed:
                if idx and s == -idx[-1]:
                    continue
                g = gens[abs(s) - 1]
                w = prod * (g if s > 0 else g.inverse())
                new_frontier.append((idx + (s,), w))
                if w.is_identity() or w.letters in seen:
                    continue
                seen.add(w.letters)
                k = b_reduced_decomposition(w, b).k
                samples += 1
                lo = k if lo is None else min(lo, k)
                hi = k if hi is None else max(hi, k)
                assert hi - lo <= 1, "exponent spread > 1 within one factor"
                if hi - lo == 1 or samples >= sample_budget:
                    return hi, hi - lo == 1
        frontier = new_frontier
    return hi, hi - lo == 1


def deep_factors(rank, count, seed):
    b = boundary_word(rank)
    rng = random.Random(seed)
    return b, [deep_factor(rng, rank, b) for _ in range(count)]


class TestFactorInvariant:
    def test_standard_generator(self, b2):
        est = factor_invariant(FreeFactorVertex((W("x"),), 2), b2)
        assert est.value == 0
        assert est.tight  # exact, not a sampled lower bound
        assert est.witness == W("x")

    def test_shifted_factor(self, b2):
        gen = (b2**2) * W("x") * (b2**-2)
        est = factor_invariant(FreeFactorVertex((gen,), 2), b2)
        assert est.value == 2
        assert est.witness == gen

    def test_negative_value(self, b2):
        gen = (b2**-2) * W("y") * (b2**2)
        est = factor_invariant(FreeFactorVertex((gen,), 2), b2)
        assert est.value == -2
        assert b_index(est.witness, b2) == -2

    def test_b_inside_rejected(self, b2):
        with pytest.raises(PreconditionError):
            factor_invariant(FreeFactorVertex((b2,), 2), b2)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_power_of_b_rejected(self, rank):
        # <b^2> does not contain b, but b^2 reads a loop: infinite invariant
        b = boundary_word(rank)
        factor = FreeFactorVertex((b**2,), rank)
        assert not factor.graph.contains(b)
        with pytest.raises(PreconditionError, match=r"b\^2 lies in the subgroup"):
            factor_invariant(factor, b)

    def test_whole_group_rejected(self, b2):
        with pytest.raises(PreconditionError):
            factor_invariant(FreeFactorVertex((W("x"), W("y")), 2), b2)

    def test_bad_b_rejected(self):
        with pytest.raises(PreconditionError):
            factor_invariant(FreeFactorVertex((W("y"),), 2), W("xx"))

    def test_budget_respected(self, b3):
        # one search from the basepoint, visiting each directed edge once
        factor = FreeFactorVertex((W("x", 3), W("y", 3)), 3)
        est = factor_invariant(factor, b3)
        assert (est.value, est.witness) == (0, W("x", 3))
        assert 0 < est.samples <= 2 * factor.graph.num_edges


class TestExactInvariant:
    @pytest.mark.parametrize("rank,count", [(2, 120), (3, 120), (4, 60)])
    def test_matches_sampler_oracle(self, rank, count):
        b, factors = deep_factors(rank, count, seed=300 + rank)
        tight = 0
        for factor in factors:
            exact = factor_invariant(factor, b).value
            value, is_tight = oracle_factor_invariant(factor, b, 400)
            if is_tight:
                tight += 1
                assert exact == value, factor.describe()
            else:
                assert exact in (value, value + 1), factor.describe()
        if rank > 2:  # a cyclic factor's sampled exponents never differ
            assert tight > 0

    @pytest.mark.parametrize("rank,count", [(2, 150), (3, 150), (4, 60)])
    def test_witness_attains_value(self, rank, count):
        b, factors = deep_factors(rank, count, seed=400 + rank)
        values = set()
        for factor in factors:
            est = factor_invariant(factor, b)
            graph = factor.graph
            assert graph.contains(est.witness)
            assert b_reduced_decomposition(est.witness, b).k == est.value
            # the full letter check accepts the witness built without it
            assert Word(est.witness.letters, rank) == est.witness
            # at most one O(edges) search per block vertex, plus one
            blocks = len(est.witness) // len(b) + 1
            assert est.samples <= 2 * graph.num_edges * blocks
            values.add(est.value)
        assert min(values) < 0 < max(values)

    @pytest.mark.parametrize("rank,max_len", [(2, 12), (3, 9)])
    def test_brute_force_never_exceeds(self, rank, max_len):
        b, factors = deep_factors(rank, 150, seed=500 + rank)
        small = [f for f in factors if f.graph.num_edges <= 10]
        assert len(small) >= 40
        for factor in small:
            est = factor_invariant(factor, b)
            loops = reduced_loops(factor.graph, max_len)
            best = max((b_index(Word(loop, rank), b) for loop in loops), default=None)
            assert best is None or best <= est.value, factor.describe()
            if len(est.witness) <= max_len:
                assert best == est.value, factor.describe()


def exponent_range(factor, b):
    """Exact (min, max) of b_index over the factor's nontrivial elements:
    b_index(w, b^-1) == -b_index(w, b), so the minimum is minus the
    invariant along b^-1."""
    return -factor_invariant(factor, b.inverse()).value, factor_invariant(factor, b).value


class TestExponentSpread:
    @pytest.mark.parametrize("rank", [2, 3])
    def test_two_elements_within_one(self, rank):
        # the exponents over every element of one proper factor span <= 1,
        # and sampled elements fall inside the exact range
        b = boundary_word(rank)
        rng = random.Random(rank * 13)
        for _ in range(150):
            factor = deep_factor(rng, rank, b)
            lo, hi = exponent_range(factor, b)
            assert hi - lo <= 1, factor.describe()
            for a in (random_element(factor, rng), random_element(factor, rng)):
                assert lo <= b_index(a, b) <= hi, (factor.describe(), a)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_inverse_axis_negates_exponent(self, rank):
        rng = random.Random(70 + rank)
        bs = [boundary_word(rank), boundary_word(rank).inverse()]
        bs += [random_cyclically_reduced(rng, rank, 6) for _ in range(4)]
        for i in range(3000):
            b = bs[i % len(bs)]
            k = rng.randint(-3, 3)
            tail = -k if i % 2 else rng.randint(-3, 3)
            w = (b**k) * random_word(rng.randint(0, 12), rank, rng) * (b**tail)
            assert b_index(w, b.inverse()) == -b_index(w, b), (w, b)

    @pytest.mark.parametrize("rank,max_len", [(2, 12), (3, 9)])
    def test_minimum_from_inverse_axis(self, rank, max_len):
        # the witness along b^-1 attains the minimum, and no short loop
        # goes below it
        b, factors = deep_factors(rank, 150, seed=600 + rank)
        negative = 0
        for factor in factors:
            lo, hi = exponent_range(factor, b)
            witness = factor_invariant(factor, b.inverse()).witness
            assert factor.graph.contains(witness)
            assert b_index(witness, b) == lo, factor.describe()
            negative += lo < 0
            if factor.graph.num_edges <= 10:
                loops = reduced_loops(factor.graph, max_len)
                low = min((b_index(Word(loop, rank), b) for loop in loops), default=lo)
                assert low >= lo, factor.describe()
        assert negative >= 20

    def test_equivariance_when_positive(self, b2):
        # conjugating the factor by b^k shifts a positive invariant by k
        for k in (1, 2, 3):
            gen = (b2**2) * W("x") * (b2**-2)
            base = factor_invariant(FreeFactorVertex((gen,), 2), b2)
            shifted_gen = (b2**k) * gen * (b2**-k)
            shifted = factor_invariant(FreeFactorVertex((shifted_gen,), 2), b2)
            assert shifted.value - base.value == k


def invariant_outcome(compute):
    """compute()'s (value, witness), or (exception class, message) if it
    raises."""
    try:
        return compute()
    except PreconditionError as exc:
        return type(exc), str(exc)


def searched_invariant(g: Word, b: Word):
    """(value, witness) of factor_invariant on the cyclic factor <g>."""
    inv = factor_invariant(FreeFactorVertex((g,), b.rank), b)
    return inv.value, inv.witness


def oracle_cyclic_invariant(g: Word, b: Word):
    """(value, witness) of <g> by the closed form factor_invariant once
    took for a cyclic factor, with no core graph.

    Write g = u c u^-1 (``_peel``).  The value is ``_cyclic_value``, which
    refuses a <g> holding a power of b.  The witness is g or g^-1:
    whichever of c[0] and c[-1]^-1 comes first in ``vertex_order``, after
    dropping the letter that would continue the next b^-1 block
    (``_b_exponent``'s second value).  That is the element the graph
    search finds on the core graph of <g>, a stem u ending in a cycle c.
    """
    gl, bl, binv = g.letters, b.letters, b.inverse().letters
    value = _cyclic_value(gl, bl, binv)
    i = _peel(gl)
    bad_first = _b_exponent(gl, i, bl, binv)[1]
    first = next(
        l for l in vertex_order(g.rank) if l in (gl[i], -gl[-1 - i]) and l != bad_first
    )
    return value, g if first == gl[i] else g.inverse()


class TestCyclicClosedForm:
    """factor_invariant searches a cyclic factor's core graph; the closed
    form it once took, value and witness, stays the oracle."""

    def test_matches_graph_search(self):
        rng = random.Random(1301)
        values, inverse_witness = set(), 0
        for rank in (2, 3, 4, 5):
            b = boundary_word(rank)
            for _ in range(2600):  # 10,400 factors in all
                # conjugators b^j w reach the b-blocks on both sides of 0
                conj = (b ** rng.randint(-3, 3)) * random_word(rng.randint(0, 4), rank, rng)
                g = conj * random_word(rng.randint(1, 8), rank, rng) * conj.inverse()
                search = invariant_outcome(lambda: searched_invariant(g, b))
                closed = invariant_outcome(lambda: oracle_cyclic_invariant(g, b))
                assert search == closed, (rank, g)
                values.add(search[0])
                inverse_witness += search[1] == g.inverse()
        assert {-3, -1, 0, 1, 3} <= values
        assert 0 < inverse_witness < 4 * 2600

    def test_value_is_b_index_of_the_generator(self):
        rng = random.Random(1302)
        values, finite = set(), 0
        for rank in (2, 3, 4, 5):
            b = boundary_word(rank)
            for _ in range(2700):
                if rng.random() < 0.5:
                    conj = (b ** rng.randint(-3, 3)) * random_word(rng.randint(0, 4), rank, rng)
                    g = conj * random_word(rng.randint(1, 8), rank, rng) * conj.inverse()
                else:
                    g = random_word(rng.randint(1, 24), rank, rng)
                try:
                    value = _cyclic_value(g.letters, b.letters, b.inverse().letters)
                except PreconditionError:  # <g> holds a power of b
                    continue
                assert value == b_index(g, b), (rank, g)
                values.add(value)
                finite += 1
        assert finite >= 10_000 and {-3, 0, 3} <= values

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_power_of_b_errors_match(self, rank):
        b = boundary_word(rank)
        for j in (1, 2, 3):
            for g in (b**j, b**-j):
                search = invariant_outcome(lambda: searched_invariant(g, b))
                closed = invariant_outcome(lambda: oracle_cyclic_invariant(g, b))
                name = "b" if j == 1 else f"b^{j}"
                assert search == closed == (
                    PreconditionError,
                    f"{name} lies in the subgroup; the invariant is infinite",
                )

    def test_searches_nothing(self, b2):
        # an identity generator leaves the factor cyclic, and the search
        # finds the witness the closed form chose
        gen = (b2**-2) * W("y") * (b2**2)
        inv = factor_invariant(FreeFactorVertex((gen, Word.identity(2)), 2), b2)
        assert (inv.value, inv.witness) == (-2, gen.inverse())


def value_outcome(compute):
    """The value, or (exception class, message) if compute raises."""
    try:
        return compute()
    except PreconditionError as exc:
        return type(exc), str(exc)


def assert_values_match(factor, b):
    """_factor_value against the oracle factor_invariant(factor, b).value;
    returns the value."""
    bl, binv = b.letters, b.inverse().letters
    entry = value_outcome(lambda: _factor_value(factor, b, bl, binv))
    oracle = value_outcome(lambda: factor_invariant(factor, b).value)
    assert entry == oracle, (factor.describe(), format_word(b))
    # the factor as the trial loops hold it: a vertex on its letters
    assert value_outcome(lambda: _factor_value(held(factor), b, bl, binv)) == oracle
    return entry


class TestFactorValue:
    """The experiments' trial loops read a cyclic factor's value with no
    witness; factor_invariant stays the oracle."""

    @staticmethod
    def both_bases(rank, b, factors):
        """Each factor against b, and its image in a second minimizing
        basis (as basis-change builds it) against b's image there."""
        chain, chain_inv, b_t = _find_second_minimizing_basis(rank, b, rank)
        assert chain_inv == tuple(phi.inverse() for phi in reversed(chain))
        assert b_t == apply_automorphism(chain_inv, b) and len(b_t) == len(b)
        for factor in factors:
            yield factor, b
            gens = tuple(apply_automorphism(chain_inv, g) for g in factor.generators)
            yield FreeFactorVertex(gens, rank), b_t

    def test_matches_on_sampled_factors(self):
        rng = random.Random(1801)
        values, cyclic, compared = set(), 0, 0
        for rank in (2, 3, 4, 5):
            b = boundary_word(rank)
            factors = []
            for _ in range(250):  # the lipschitz sampler's pairs
                images = edge_images(rng, rank, b)
                ti, tj = images[:2] if rank == 2 else rng.sample(images, 2)
                pairs = ((ti,), (tj,)) if rank == 2 else ((ti,), (ti, tj))
                factors += [FreeFactorVertex(gens, rank) for gens in pairs]
            if rank <= 4:  # the basis-change sampler's factors
                factors += [deep_factor(rng, rank, b) for _ in range(250)]
            for factor, base in self.both_bases(rank, b, factors):
                values.add(assert_values_match(factor, base))
                cyclic += len(factor.generators) == 1
                compared += 1
        assert compared >= 3000 and 0 < cyclic < compared
        assert min(values) < 0 < max(values)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_power_of_b_refused_alike(self, rank):
        b = boundary_word(rank)
        for g, name in ((b, "b"), (b.inverse(), "b"), (b**2, "b^2")):
            refusal = assert_values_match(FreeFactorVertex((g,), rank), b)
            assert refusal == (
                PreconditionError,
                f"{name} lies in the subgroup; the invariant is infinite",
            )

    def test_rotation_of_b_is_finite(self, b2):
        # yXYx is conjugate to b = xyXY, but <yXYx> holds no power of b
        assert assert_values_match(FreeFactorVertex((W("yXYx"),), 2), b2) == 0
