"""Whitehead graphs, Whitehead automorphisms, and cyclic-length minimization.

The cyclic Whitehead graph of a word lives on the 2N letter-vertices
``S u S^-1`` and has one edge per length-2 cyclic subword of the cyclic
reduction (so it is a multigraph whose edge count equals the cyclic
length).  A cut vertex is one whose removal disconnects the induced
subgraph on the remaining vertices; isolated vertices count as components,
so any disconnected graph on >= 3 vertices has a cut vertex.

Greedy descent over multiplier automorphisms reaches the minimal cyclic
length in the automorphism orbit: while a word is not minimal, some single
multiplier move strictly shortens it.  Moves are scored without applying
them, by Whitehead's cut lemma (Lyndon-Schupp, *Combinatorial Group
Theory*, I.4): the move (a, Z) changes the cyclic length by
cap(A, A^c) - deg(a^-1) in the Whitehead graph, with
A = (Z - {a}) | {a^-1}.  A is an a^-1 | a cut, so the best move for one
multiplier a is a minimum a^-1 | a cut: one max-flow on 2N vertices
(Roig-Ventura-Weil, "On the complexity of the Whitehead minimization
problem", IJAC 2007).  One flow per generator x covers both multipliers
x and x^-1: deg(x) = deg(x^-1), since both count the occurrences of
x^+-1, and a minimum cut has the same value with its two ends swapped.
So x and x^-1 score the same, and x, which comes first, is the one kept.

Ties go to the first move in the fixed order of
``enumerate_whitehead_automorphisms``: by multiplier, then by the bit mask
of Z - {a} over the other letters.  For a fixed multiplier that is the
minimum cut with the least mask.  The source sides of the minimum cuts are
closed under intersection (submodularity of the cut function), so the
vertices reachable from a^-1 in the final residual graph, which is the
intersection of all of them, are the source side of a minimum cut that is
contained in every other.  Its mask is therefore a subset of every other
minimum cut's mask, hence numerically the smallest.  A flow stops early
once its value reaches deg(a^-1) + best - |w|, since from there its move
cannot beat the best one found so far.  One descent step costs O(|w|) to
build the graph and N small max-flows, each of at most deg(a^-1)
augmenting paths; only the chosen move is applied.

The Whitehead graph has one representation: the symmetric
edge-multiplicity matrix over ``vertex_order``, as a tuple of int rows
(``whitehead_graph``), which descent cuts and ``find_cut_vertex`` reads.
Moves are addressed by their index in a fixed order, so a random move is
drawn by unranking one random index (``_multiplier_move_at``,
``_signed_permutation_at``) and no table of all moves is ever built.

Everything here is pure over immutable inputs.  A move builds its
letter-image table once, and the unrankers keep moves in bounded caches.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import cached_property, lru_cache

from .errors import (
    DomainError,
    IdentityWordError,
    InternalContradictionError,
    RankError,
)
from .words import (
    Word,
    _Frozen,
    _checked_int,
    apply_automorphism,
    cyclic_reduce,
    format_word,
)


@lru_cache(maxsize=None)
def vertex_order(rank: int) -> tuple[int, ...]:
    """Fixed letter order x < x^-1 < y < y^-1 < ... used for tie-breaks."""
    return tuple(l for i in range(1, rank + 1) for l in (i, -i))


def whitehead_graph(w: Word) -> tuple[tuple[int, ...], ...]:
    """Edge-multiplicity matrix of the cyclic Whitehead graph of ``w``.

    One edge {u, v^-1} per cyclic length-2 subword uv of the cyclic core;
    rows and columns follow ``vertex_order``, and each row is a tuple of
    ints.  The matrix is symmetric, so the edge count (the cyclic length)
    is half the sum of all entries and the degree of a vertex is its row
    sum.
    """
    core = cyclic_reduce(w).core
    if core.is_identity():
        raise IdentityWordError("the word reduces to the identity")
    return _edge_matrix(core)


def find_cut_vertex(edges: tuple[tuple[int, ...], ...]) -> int | None:
    """Lowest vertex (in the fixed letter order) whose removal disconnects.

    ``edges`` is a Whitehead graph as ``whitehead_graph`` returns it.
    Returns None when no vertex removal disconnects the induced subgraph.
    """
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


class WhAutomorphism(_Frozen):
    """A Whitehead automorphism.

    ``multiplier`` kind: determined by a letter ``a`` and a set ``Z`` with
    a in Z, a^-1 not in Z.  Letters v != a^{+-1} map to
    ``a^[v^-1 in Z] * v * a^-[v in Z]``; a and a^-1 are fixed.  Every image
    of a basis letter therefore has length <= 3.

    ``permutation`` kind: a signed permutation of the generators, given by
    the images of generators 1..rank.

    ``rank`` is read as ``Word`` reads it: an int through
    ``operator.index``, and at least 2.  ``table`` is the image of every
    letter, built once from the checked fields: 2*rank + 1 letter tuples
    indexed by the letter itself (-i at index -i).  Equality, hashing,
    repr and pickling ignore it.
    """

    _fields = ("kind", "rank", "multiplier", "zset", "images")

    def __init__(
        self,
        kind: str,
        rank: int,
        multiplier: int | None = None,
        zset: frozenset[int] | None = None,
        images: tuple[int, ...] | None = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", _checked_int(rank, "rank", 2, error=RankError))
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "zset", zset)
        object.__setattr__(self, "images", images)
        self.__post_init__()

    def __post_init__(self):
        rank = self.rank
        table = [()] * (2 * rank + 1)
        if self.kind == "multiplier":
            a, z = self.multiplier, self.zset
            if a is None or z is None:
                raise DomainError("multiplier move needs a letter and a set")
            if not all(isinstance(v, int) for v in (a, *z)):
                raise DomainError(f"letters must be integers, got {a!r} and {z!r}")
            if not (0 < abs(a) <= rank):
                raise RankError(f"multiplier {a} outside rank {rank}")
            if a not in z or -a in z:
                raise DomainError("need a in Z and a^-1 not in Z")
            if any(v == 0 or abs(v) > rank for v in z):
                raise RankError("Z contains a letter outside the alphabet")
            # the rule read with Z - {a} also fixes a and a^-1
            others = set(z) - {a}
            for v in vertex_order(rank):
                table[v] = (a,) * (-v in others) + (v,) + (-a,) * (v in others)
        elif self.kind == "permutation":
            imgs = self.images
            if imgs is None or len(imgs) != rank:
                raise DomainError("need one image per generator")
            if not all(isinstance(i, int) for i in imgs):
                raise DomainError(f"images must be integers, got {imgs!r}")
            if sorted(map(abs, imgs)) != list(range(1, rank + 1)):
                raise DomainError("images are not a signed permutation")
            for i, img in enumerate(imgs, 1):
                table[i], table[-i] = (img,), (-img,)
        else:
            raise DomainError(f"unknown automorphism kind {self.kind!r}")
        object.__setattr__(self, "table", tuple(table))

    @classmethod
    def multiplier_move(cls, a: int, zset, rank: int) -> "WhAutomorphism":
        return cls("multiplier", rank, multiplier=a, zset=frozenset(zset))

    @classmethod
    def permutation_move(cls, images, rank: int) -> "WhAutomorphism":
        return cls("permutation", rank, images=tuple(images))

    @classmethod
    def identity(cls, rank: int) -> "WhAutomorphism":
        return cls.permutation_move(range(1, rank + 1), rank)

    def __call__(self, w: Word) -> Word:
        return apply_automorphism((self,), w)

    def inverse(self) -> "WhAutomorphism":
        if self.kind == "permutation":
            inv = [0] * self.rank
            for i, img in enumerate(self.images):
                inv[abs(img) - 1] = (i + 1) if img > 0 else -(i + 1)
            return WhAutomorphism.permutation_move(inv, self.rank)
        a = self.multiplier
        z = frozenset(self.zset - {a}) | {-a}
        return WhAutomorphism.multiplier_move(-a, z, self.rank)

    def generator_images(self) -> dict[str, str]:
        """Images of the generators, in compact text (for certificates)."""
        rank = self.rank
        return {
            format_word(Word((i,), rank)): format_word(Word(self.table[i], rank))
            for i in range(1, rank + 1)
        }

    def is_identity_map(self) -> bool:
        return all(self.table[i] == (i,) for i in range(1, self.rank + 1))


def _moves_per_multiplier(rank: int) -> int:
    return (1 << (2 * rank - 2)) - 1


# Entries kept by each unranker's cache: every move at ranks 2-5 fits (at
# rank 5, 2,550 multiplier moves and 3,840 signed permutations), so repeated
# draws cost a lookup instead of building and validating an automorphism
# and its table, and memory stays bounded at any rank.
_UNRANK_CACHE = 4096


@lru_cache(maxsize=_UNRANK_CACHE)
def _multiplier_move_at(rank: int, index: int) -> WhAutomorphism:
    """The ``index``-th move of ``enumerate_whitehead_automorphisms(rank)``.

    Moves are ordered by multiplier a (in vertex order), then by the bit
    mask over the other 2*rank - 2 letters that selects Z - {a}.
    """
    per = _moves_per_multiplier(rank)
    verts = vertex_order(rank)
    a = verts[index // per]
    mask = index % per + 1
    others = [v for v in verts if abs(v) != abs(a)]
    z = {a} | {others[i] for i in range(len(others)) if mask >> i & 1}
    return WhAutomorphism.multiplier_move(a, z, rank)


def _random_multiplier_move(rng, rank: int) -> WhAutomorphism:
    """A uniform multiplier move: the move at one random index.

    Consumes ``rng`` exactly as ``rng.choice`` over the full enumeration
    would, without building it.
    """
    count = 2 * rank * _moves_per_multiplier(rank)
    return _multiplier_move_at(rank, rng.randrange(count))


def enumerate_whitehead_automorphisms(rank: int) -> tuple[WhAutomorphism, ...]:
    """All multiplier moves in a fixed order, identity excluded.

    For each of the 2*rank multipliers there are 2^(2*rank-2) admissible
    sets Z, one of which ({a} alone) is the identity, so the count is
    2*rank * (2^(2*rank-2) - 1).  This order is descent's tie-break and
    defines the indices that random draws unrank; the library never builds
    the tuple.
    """
    if rank < 2:
        raise RankError(f"rank must be at least 2, got {rank}")
    count = 2 * rank * _moves_per_multiplier(rank)
    return tuple(_multiplier_move_at(rank, k) for k in range(count))


@lru_cache(maxsize=_UNRANK_CACHE)
def _signed_permutation_at(rank: int, index: int) -> WhAutomorphism:
    """The ``index``-th of the rank! * 2^rank signed generator permutations.

    The order is ``itertools.permutations`` of the generators (lexicographic)
    times ``itertools.product((1, -1), repeat=rank)`` of signs: the high part
    of the index is the permutation's Lehmer rank, the low ``rank`` bits are
    the signs, most significant bit first, a set bit meaning -1.
    """
    perm_index, signs = divmod(index, 1 << rank)
    remaining = list(range(1, rank + 1))
    images = []
    for i in range(rank - 1, -1, -1):
        pick, perm_index = divmod(perm_index, math.factorial(i))
        image = remaining.pop(pick)
        images.append(-image if signs >> i & 1 else image)
    return WhAutomorphism.permutation_move(images, rank)


@lru_cache(maxsize=None)
def _columns(rank: int) -> dict[int, int]:
    """Letter -> its column in ``vertex_order``: 2(|l| - 1) + [l < 0], so
    the column of l^-1 is that of l xor 1."""
    return {letter: col for col, letter in enumerate(vertex_order(rank))}


def _edge_matrix(core: Word) -> tuple[tuple[int, ...], ...]:
    """Symmetric edge-multiplicity matrix of the cyclic Whitehead graph,
    rows and columns in ``vertex_order``, as a tuple of int rows.  The
    distinct cyclic letter pairs are counted once each: at most (2N)^2 of
    them, so the work per letter is one ``Counter`` step."""
    n = 2 * core.rank
    col = _columns(core.rank)
    ls = core.letters
    rows = [[0] * n for _ in range(n)]
    # the cyclic subword uv gives the edge {u, v^-1}
    for (u, v), count in Counter(zip(ls, ls[1:] + ls[:1])).items():
        i, j = col[u], col[v] ^ 1
        rows[i][j] += count
        rows[j][i] += count
    return tuple(map(tuple, rows))


class MinimizationCertificate(_Frozen):
    """Record of a greedy descent to minimal cyclic length.

    Applying ``chain`` to ``input`` and cyclically reducing yields
    ``minimized``; ``length_trace`` is strictly decreasing and ends at the
    minimal value.  ``edges`` is the Whitehead graph of ``minimized``
    (``whitehead_graph``), kept from the descent step that found no
    shorter move.
    """

    # edges neither compares, hashes nor shows
    _fields = ("input", "minimized", "chain", "length_trace")

    def __init__(
        self,
        input: Word,
        minimized: Word,
        chain: tuple[WhAutomorphism, ...],
        length_trace: tuple[int, ...],
        edges: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "minimized", minimized)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "length_trace", length_trace)
        object.__setattr__(self, "edges", edges)

    def __reduce__(self):
        return MinimizationCertificate, (*self._key(self), self.edges)

    def to_json_dict(self) -> dict:
        return {
            "input": format_word(self.input),
            "minimized": format_word(self.minimized),
            "chain": [phi.generator_images() for phi in self.chain],
            "length_trace": list(self.length_trace),
        }

    @cached_property
    def cut_vertex(self) -> int | None:
        """Lowest cut vertex of the minimal word's Whitehead graph, if any."""
        return find_cut_vertex(self.edges)


def _min_cut(
    edges: tuple[tuple[int, ...], ...],
    adj: list[list[int]],
    source: int,
    sink: int,
    bound: int,
) -> tuple[int, list[int] | None]:
    """Maximum source-sink flow in the Whitehead graph, stopped at ``bound``.

    Each edge of multiplicity c carries up to c units either way.  The
    paths of one or two edges share no edge, so they are filled first
    without a search; then flow is pushed along shortest augmenting paths
    (Edmonds-Karp).  Returns the flow and, when it stayed below ``bound``,
    the vertices reachable from ``source`` in the residual graph: the
    inclusion-minimal source side of a minimum cut, whose capacity is the
    flow.  Once the flow reaches ``bound`` the side is None.
    """
    residual = [list(row) for row in edges]
    out, into = residual[source], residual[sink]
    flow = 0
    for u in adj[source]:
        push = out[u] if u == sink else min(out[u], into[u])
        if push:
            push = min(push, bound - flow)
            out[u] -= push
            residual[u][source] += push
            if u != sink:
                residual[u][sink] -= push
                into[u] += push
            flow += push
            if flow >= bound:
                return flow, None
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


def minimize_cyclic_length(w: Word) -> MinimizationCertificate:
    """Greedy descent: apply the best strictly-shortening multiplier move.

    Each step builds the Whitehead graph of the current word in O(|w|) and
    runs one bounded max-flow per generator x, from x^-1 to x (see the
    module docstring): the move (x, Z) with A = (Z - {x}) | {x^-1} the
    least minimum cut scores |w| + cut - deg(x^-1).  The first generator
    with the least score wins, which is the first minimal move in the
    fixed enumeration order, so the certificate is reproducible.  Only the
    winning move is built and applied; an applied length that differs
    from its score raises ``InternalContradictionError``.  Signed
    permutations never change length and are not searched.
    """
    if w.is_identity():
        raise IdentityWordError("cannot minimize the identity")
    rank = w.rank
    verts = vertex_order(rank)
    current = cyclic_reduce(w).core
    trace = [len(current)]
    chain: list[WhAutomorphism] = []
    while True:
        edges = _edge_matrix(current)
        length = len(current)
        adj = None
        best, best_side, a = length, None, None
        for sink in range(0, 2 * rank, 2):
            source = sink + 1
            out = edges[source]
            degree = sum(out)
            bound = degree + best - length
            # the paths of one or two edges share no edge, so their
            # capacity is a lower bound on the cut
            if bound <= 0 or out[sink] + sum(map(min, out, edges[sink])) >= bound:
                continue
            if adj is None:
                adj = [[j for j, count in enumerate(row) if count] for row in edges]
            cut, side = _min_cut(edges, adj, source, sink, bound)
            if side is not None:
                best, best_side, a = length + cut - degree, side, verts[sink]
        if best_side is None:
            break
        zset = {a} | {verts[v] for v in best_side if verts[v] != -a}
        move = WhAutomorphism.multiplier_move(a, zset, rank)
        current = cyclic_reduce(move(current)).core
        if len(current) != best:
            raise InternalContradictionError(
                f"move {move.generator_images()} scored {best} "
                f"but gave cyclic length {len(current)}"
            )
        chain.append(move)
        trace.append(len(current))
    # minimized is a cyclic permutation of current, so it has the same
    # Whitehead graph
    minimized = cyclic_reduce(apply_automorphism(chain, w)).core
    return MinimizationCertificate(w, minimized, tuple(chain), tuple(trace), edges)


class Classification(str, Enum):
    PRIMITIVE = "primitive"
    SIMPLE_NON_PRIMITIVE = "simple-non-primitive"
    FILLING = "filling"


def classify(
    w: Word, certificate: MinimizationCertificate | None = None
) -> Classification:
    """Primitive / simple-but-not-primitive / filling trichotomy.

    Minimize first, or reuse ``certificate`` when the caller already holds
    the descent of ``w``.  Length 1 means primitive.  Otherwise a cut
    vertex in the Whitehead graph of the minimal word certifies
    containment in a proper free factor, and its absence certifies filling.
    """
    if certificate is None:
        certificate = minimize_cyclic_length(w)
    elif certificate.input != w:
        raise DomainError("the certificate belongs to a different word")
    if len(certificate.minimized) == 1:
        return Classification.PRIMITIVE
    if certificate.cut_vertex is not None:
        return Classification.SIMPLE_NON_PRIMITIVE
    return Classification.FILLING


def is_primitive(w: Word) -> bool:
    if w.is_identity():
        raise IdentityWordError("the identity is not primitive")
    return len(minimize_cyclic_length(w).minimized) == 1
