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
Theory*, I.4): the move (Z, a) changes the cyclic length by
cap(A, A^c) - deg(a^-1) in the Whitehead graph, with
A = (Z - {a}) | {a^-1}.  One descent step therefore costs O(|w|) to build
the edge-multiplicity matrix plus one numpy pass over the
2N(2^(2N-2) - 1) cut sets, and only the chosen move is applied.

The Whitehead graph has one representation: the symmetric
edge-multiplicity matrix over ``vertex_order`` that descent scores
(``whitehead_graph``), and ``find_cut_vertex`` reads the same matrix.
Moves are addressed by their index in a fixed order, so a random move is
drawn by unranking one random index (``_multiplier_move_at``,
``_signed_permutation_at``) and no table of all moves is ever built.

Everything here is pure over immutable inputs.  The unrankers sit behind
bounded caches; the per-rank cut table behind an unbounded one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DomainError,
    IdentityWordError,
    InternalContradictionError,
    RankError,
)
from .words import Word, apply_automorphism, cyclic_reduce, format_word


@lru_cache(maxsize=None)
def vertex_order(rank: int) -> tuple[int, ...]:
    """Fixed letter order x < x^-1 < y < y^-1 < ... used for tie-breaks."""
    return tuple(l for i in range(1, rank + 1) for l in (i, -i))


def whitehead_graph(w: Word) -> np.ndarray:
    """Edge-multiplicity matrix of the cyclic Whitehead graph of ``w``.

    One edge {u, v^-1} per cyclic length-2 subword uv of the cyclic core;
    rows and columns follow ``vertex_order``.  The matrix is symmetric, so
    the edge count (the cyclic length) is ``sum // 2`` and the degree of a
    vertex is its row sum.
    """
    core = cyclic_reduce(w).core
    if core.is_identity():
        raise IdentityWordError("the word reduces to the identity")
    return _edge_matrix(core)


def find_cut_vertex(edges: np.ndarray) -> int | None:
    """Lowest vertex (in the fixed letter order) whose removal disconnects.

    ``edges`` is a Whitehead graph as ``whitehead_graph`` returns it.
    Returns None when no vertex removal disconnects the induced subgraph.
    """
    n = len(edges)
    adj = [np.flatnonzero(row).tolist() for row in edges]
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


@dataclass(frozen=True)
class WhAutomorphism:
    """A Whitehead automorphism.

    ``multiplier`` kind: determined by a letter ``a`` and a set ``Z`` with
    a in Z, a^-1 not in Z.  Letters v != a^{+-1} map to
    ``a^[v^-1 in Z] * v * a^-[v in Z]``; a and a^-1 are fixed.  Every image
    of a basis letter therefore has length <= 3.

    ``permutation`` kind: a signed permutation of the generators, given by
    the images of generators 1..rank.
    """

    kind: str
    rank: int
    multiplier: int | None = None
    zset: frozenset[int] | None = None
    images: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind == "multiplier":
            a, z = self.multiplier, self.zset
            if a is None or z is None:
                raise DomainError("multiplier move needs a letter and a set")
            if not (0 < abs(a) <= self.rank):
                raise RankError(f"multiplier {a} outside rank {self.rank}")
            if a not in z or -a in z:
                raise DomainError("need a in Z and a^-1 not in Z")
            if any(v == 0 or abs(v) > self.rank for v in z):
                raise RankError("Z contains a letter outside the alphabet")
        elif self.kind == "permutation":
            imgs = self.images
            if imgs is None or len(imgs) != self.rank:
                raise DomainError("need one image per generator")
            if sorted(abs(i) for i in imgs) != list(range(1, self.rank + 1)):
                raise DomainError("images are not a signed permutation")
        else:
            raise DomainError(f"unknown automorphism kind {self.kind!r}")

    @classmethod
    def multiplier_move(cls, a: int, zset, rank: int) -> "WhAutomorphism":
        return cls("multiplier", rank, multiplier=a, zset=frozenset(zset))

    @classmethod
    def permutation_move(cls, images, rank: int) -> "WhAutomorphism":
        return cls("permutation", rank, images=tuple(images))

    @classmethod
    def identity(cls, rank: int) -> "WhAutomorphism":
        return cls.permutation_move(range(1, rank + 1), rank)

    def letter_image(self, letter: int) -> tuple[int, ...]:
        if self.kind == "multiplier":
            a = self.multiplier
            if letter == a or letter == -a:
                return (letter,)
            image = []
            if -letter in self.zset:
                image.append(a)
            image.append(letter)
            if letter in self.zset:
                image.append(-a)
            return tuple(image)
        img = self.images[abs(letter) - 1]
        return (img,) if letter > 0 else (-img,)

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
        out = {}
        for i in range(1, self.rank + 1):
            gen = Word((i,), self.rank)
            out[format_word(gen)] = format_word(self(gen))
        return out

    def is_identity_map(self) -> bool:
        return all(self.letter_image(i) == (i,) for i in range(1, self.rank + 1))


def _moves_per_multiplier(rank: int) -> int:
    return (1 << (2 * rank - 2)) - 1


# Entries kept by each unranker's cache: every move at ranks 2-5 fits (at
# rank 5, 2,550 multiplier moves and 3,840 signed permutations), so repeated
# draws cost a lookup instead of building and validating an automorphism,
# and memory stays bounded at any rank.
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
    2*rank * (2^(2*rank-2) - 1).  This order defines the move indices that
    descent scores and draws unrank; the library never builds the tuple.
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
def _cut_table(
    rank: int,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The vertex pairs that each multiplier move's cut separates.

    The k-th move (a, Z) of ``enumerate_whitehead_automorphisms`` cuts the
    vertices along A = (Z - {a}) | {a^-1}.  ``pairs`` lists the vertex
    pairs (i, j), i < j, as columns in ``vertex_order``; row k of
    ``crossing`` is 1 where exactly one end of the pair lies in A, so
    ``crossing @ edges[pairs]`` is cap(A, A^c) for every move at once.
    ``crossing`` is float64, so that product is one BLAS matrix-vector
    product, and exact: every partial sum is an integer of at most
    |w| < 2^53.  ``inverse_col[k]`` is the column of a^-1.  The table has
    2N(2^(2N-2) - 1) * N(2N - 1) entries: 0.9 MB at rank 5, 6.5 MB at
    rank 6.  A table numpy cannot allocate raises ``RankError``.
    """
    n = 2 * rank
    per = _moves_per_multiplier(rank)
    try:
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
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's range
        raise RankError(f"rank {rank}: no move table for {n * per} moves ({exc})")
    for arr in (crossing, *pairs, inverse_col):
        arr.flags.writeable = False
    return crossing, pairs, inverse_col


@lru_cache(maxsize=None)
def _columns(rank: int) -> dict[int, int]:
    """Letter -> its column in ``vertex_order``: 2(|l| - 1) + [l < 0], so
    the column of l^-1 is that of l xor 1."""
    return {letter: col for col, letter in enumerate(vertex_order(rank))}


def _edge_matrix(core: Word) -> np.ndarray:
    """Symmetric edge-multiplicity matrix of the cyclic Whitehead graph,
    rows and columns in ``vertex_order``.  The distinct cyclic letter pairs
    are counted in Python: at most (2N)^2 of them, so a short word costs no
    numpy calls per letter."""
    n = 2 * core.rank
    col = _columns(core.rank)
    ls = core.letters
    half = [0] * (n * n)
    # the cyclic subword uv gives the edge {u, v^-1}
    for (u, v), count in Counter(zip(ls, ls[1:] + ls[:1])).items():
        half[col[u] * n + (col[v] ^ 1)] += count
    matrix = np.array(half, dtype=np.int64).reshape(n, n)
    return matrix + matrix.T


@dataclass(frozen=True)
class MinimizationCertificate:
    """Record of a greedy descent to minimal cyclic length.

    Applying ``chain`` to ``input`` and cyclically reducing yields
    ``minimized``; ``length_trace`` is strictly decreasing and ends at the
    minimal value.  ``edges`` is the Whitehead graph of ``minimized``
    (``whitehead_graph``), kept from the descent step that found no
    shorter move.
    """

    input: Word
    minimized: Word
    chain: tuple[WhAutomorphism, ...]
    length_trace: tuple[int, ...]
    edges: np.ndarray = field(compare=False, repr=False)

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


def _move_scores(edges: np.ndarray) -> np.ndarray:
    """Cyclic length of phi(w) for every multiplier move phi, in
    enumeration order, by the cut lemma; ``edges`` is the Whitehead graph
    of w."""
    crossing, pairs, inverse_col = _cut_table(len(edges) // 2)
    cut = (crossing @ edges[pairs].astype(np.float64)).astype(np.int64)
    return edges.sum() // 2 + cut - edges.sum(axis=1)[inverse_col]


def minimize_cyclic_length(w: Word) -> MinimizationCertificate:
    """Greedy descent: apply the best strictly-shortening multiplier move.

    Each step scores all 2N(2^(2N-2) - 1) multiplier moves at once from the
    cut capacities of the current Whitehead graph (see the module
    docstring): O(|w|) to build the edge matrix, then one float64
    matrix-vector product of O(2^(2N) N^2) operations, exact on these
    integers.  Only the winning move is built and applied; an applied
    length that differs from its score raises
    ``InternalContradictionError``.  Ties go to the first move in the fixed
    enumeration order, making the certificate reproducible.
    Signed permutations never change length and are not searched.
    """
    if w.is_identity():
        raise IdentityWordError("cannot minimize the identity")
    current = cyclic_reduce(w).core
    trace = [len(current)]
    chain: list[WhAutomorphism] = []
    while True:
        edges = _edge_matrix(current)
        scores = _move_scores(edges)
        k = int(np.argmin(scores))
        if scores[k] >= len(current):
            break
        best = _multiplier_move_at(w.rank, k)
        current = cyclic_reduce(best(current)).core
        if len(current) != scores[k]:
            raise InternalContradictionError(
                f"move {k} scored {scores[k]} but gave cyclic length {len(current)}"
            )
        chain.append(best)
        trace.append(len(current))
    # minimized is a cyclic permutation of current, so it has the same
    # Whitehead graph
    minimized = cyclic_reduce(apply_automorphism(chain, w)).core
    edges.flags.writeable = False
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
