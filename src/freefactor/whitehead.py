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
multiplier a is a minimum a^-1 | a cut: one max-flow on the letters of
the word (Roig-Ventura-Weil, "On the complexity of the Whitehead
minimization problem", IJAC 2007).  One flow per generator x covers both
multipliers x and x^-1: deg(x) = deg(x^-1), since both count the
occurrences of x^+-1, and a minimum cut has the same value with its two
ends swapped.  So x and x^-1 score the same, and x, which comes first, is
the one kept.

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
build the graph and one small max-flow per generator that the word uses,
each of at most deg(a^-1) rounds; only the chosen move is applied, once,
to the running image of the input word.

The Whitehead graph has one representation: a map from each letter of
the cyclic core to its neighbour letters, each with its edge
multiplicity (``whitehead_graph``), which descent cuts and
``find_cut_vertex`` reads.  The letters of a generator that the word
misses are isolated and are not keys, so building and cutting the graph
costs no more at rank 10^6 than at rank 2; only an applied move, whose
certificate prints the image of every generator, builds a table over the
whole alphabet.  Moves are addressed by their index in a fixed order, so
a random move is drawn by unranking one random index
(``_multiplier_move_at``, ``_signed_permutation_at``) and no table of all
moves is ever built.

Everything here is pure over immutable inputs.  A move builds its
letter-image table once.  Only multiplier draws repeat often enough to
pay for a cache: ``_multiplier_move_at`` keeps the moves of ranks 2-5 in
a bounded one, and signed permutations and ``vertex_order`` are built on
each call.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from enum import Enum
from functools import cached_property, lru_cache, wraps

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
    _format_letters,
    _letter_table,
    _peel,
    apply_automorphism,
    cyclic_reduce,
    format_word,
)


def vertex_order(rank: int) -> tuple[int, ...]:
    """Fixed letter order x < x^-1 < y < y^-1 < ... used for tie-breaks."""
    return tuple(l for i in range(1, rank + 1) for l in (i, -i))


def whitehead_graph(w: Word) -> dict[int, dict[int, int]]:
    """The cyclic Whitehead graph of ``w``, on the letters it uses.

    One edge {u, v^-1} per cyclic length-2 subword uv of the cyclic core.
    The graph maps each letter l with l or l^-1 in the core to its
    neighbours, each with its edge multiplicity; no letter of a generator
    that the core misses is a key, and no key maps to a zero.  It is
    symmetric, so the edge count (the cyclic length) is half the sum of
    all multiplicities and the degree of a letter is the sum of its row.
    The core is peeled off ``w``'s letters with no ``Word`` built, and the
    distinct cyclic letter pairs are counted once each, so the work per
    letter is one ``Counter`` step.
    """
    ls = w.letters
    i = _peel(ls)
    ls = ls[i : len(ls) - i]
    if not ls:
        raise IdentityWordError("the word reduces to the identity")
    graph: dict[int, dict[int, int]] = {}
    # the cyclic subword uv gives the edge {u, v^-1}; a cyclically reduced
    # core has no subword u u^-1, so the graph has no loop
    for (u, v), count in Counter(zip(ls, ls[1:] + ls[:1])).items():
        v = -v
        row = graph.setdefault(u, {})
        row[v] = row.get(v, 0) + count
        row = graph.setdefault(v, {})
        row[u] = row.get(u, 0) + count
    return graph


def find_cut_vertex(edges: dict[int, dict[int, int]], rank: int) -> int | None:
    """Lowest vertex (in the fixed letter order) whose removal disconnects.

    ``edges`` is a Whitehead graph as ``whitehead_graph`` returns it, of a
    word of rank ``rank``: the graph lives on all 2*rank letters, and a
    letter that is no key is isolated.  Returns None when no vertex
    removal disconnects the induced subgraph.  When the word misses a
    generator, its two letters are isolated, so removing letter 1 leaves
    an isolated letter beside other vertices, a disconnected graph:
    letter 1, the lowest vertex, is the answer with no search.
    """
    if len(edges) < 2 * rank:
        return 1
    for v in vertex_order(rank):
        start = -1 if v == 1 else 1
        seen = {v, start}
        stack = [start]
        while stack:
            for nb in edges[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) < len(edges):
            return v
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
    letter, built once by ``words._letter_table`` from the generators'
    images under the checked fields.  Equality, hashing, repr and
    pickling ignore it.
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
        rank = _checked_int(rank, "rank", 2, error=RankError)
        _Frozen.__init__(self, kind, rank, multiplier, zset, images)

    def __post_init__(self):
        rank = self.rank
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
            images = [
                (a,) * (-v in others) + (v,) + (-a,) * (v in others)
                for v in range(1, rank + 1)
            ]
        elif self.kind == "permutation":
            imgs = self.images
            if imgs is None or len(imgs) != rank:
                raise DomainError("need one image per generator")
            if not all(isinstance(i, int) for i in imgs):
                raise DomainError(f"images must be integers, got {imgs!r}")
            if sorted(map(abs, imgs)) != list(range(1, rank + 1)):
                raise DomainError("images are not a signed permutation")
            images = [(img,) for img in imgs]
        else:
            raise DomainError(f"unknown automorphism kind {self.kind!r}")
        object.__setattr__(self, "table", _letter_table(images))

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
        return WhAutomorphism.multiplier_move(-a, self.zset - {a} | {-a}, self.rank)

    def generator_images(self) -> dict[str, str]:
        """Images of the generators, in compact text (for certificates)."""
        rank, table = self.rank, self.table
        return {
            _format_letters((i,), rank): _format_letters(table[i], rank)
            for i in range(1, rank + 1)
        }

    def is_identity_map(self) -> bool:
        return all(self.table[i] == (i,) for i in range(1, self.rank + 1))


def _moves_per_multiplier(rank: int) -> int:
    return (1 << (2 * rank - 2)) - 1


def _move_count(rank: int) -> int:
    """The number of multiplier moves of ``rank``, 2*rank * (2^(2*rank-2) - 1)."""
    return 2 * rank * _moves_per_multiplier(rank)


# Entries kept by the multiplier unranker's cache.  A rank's moves are
# cached only where the cache holds every one of them: up to
# ``_CACHED_RANK``, the last rank before the first whose moves overflow it
# (2,550 moves at rank 5, 12,276 at rank 6).  So a repeated draw costs a
# lookup instead of building and validating an automorphism and its
# table.  Above, each draw builds its move, and the move and its
# rank-sized table die with their last holder.
_UNRANK_CACHE = 4096
_CACHED_RANK = next(r for r in itertools.count(2) if _move_count(r + 1) > _UNRANK_CACHE)


def _cached_at_small_ranks(unrank):
    """``unrank`` behind a cache at ranks up to ``_CACHED_RANK``."""
    cached = lru_cache(maxsize=_UNRANK_CACHE)(unrank)

    @wraps(unrank)
    def at(rank: int, index: int) -> WhAutomorphism:
        return (cached if rank <= _CACHED_RANK else unrank)(rank, index)

    at.cache_info, at.cache_clear = cached.cache_info, cached.cache_clear
    at.cache_parameters = cached.cache_parameters
    return at


@_cached_at_small_ranks
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
    return _multiplier_move_at(rank, rng.randrange(_move_count(rank)))


def enumerate_whitehead_automorphisms(rank: int) -> tuple[WhAutomorphism, ...]:
    """All multiplier moves in a fixed order, identity excluded.

    For each of the 2*rank multipliers there are 2^(2*rank-2) admissible
    sets Z, one of which ({a} alone) is the identity, so the count is
    2*rank * (2^(2*rank-2) - 1).  This order is descent's tie-break and
    defines the indices that random draws unrank; the library never builds
    the tuple.
    """
    rank = _checked_int(rank, "rank", 2, error=RankError)
    return tuple(_multiplier_move_at(rank, k) for k in range(_move_count(rank)))


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


class MinimizationCertificate(_Frozen):
    """Record of a greedy descent to minimal cyclic length.

    Applying ``chain`` to ``input`` and cyclically reducing yields
    ``minimized``, by construction: the descent holds that very image
    (``minimize_cyclic_length``).  ``length_trace`` is strictly decreasing
    and ends at the minimal value.  ``edges`` is the Whitehead graph of
    ``minimized`` (``whitehead_graph``), kept from the descent step that
    found no shorter move; equality, hashing and repr ignore it.
    """

    _fields = ("input", "minimized", "chain", "length_trace")
    _hidden = ("edges",)

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
        return find_cut_vertex(self.edges, self.input.rank)


def _min_cut(
    edges: dict[int, dict[int, int]], source: int, sink: int, bound: int
) -> tuple[int, list[int] | None]:
    """Maximum source-sink flow in the Whitehead graph, stopped at ``bound``.

    Each edge of multiplicity c carries up to c units either way.  From
    zero flow, each round grows a breadth-first tree of the residual graph
    from ``source`` until it meets ``sink``, and pushes along its path to
    each neighbour of ``sink`` in it, as much as the path and the arc into
    ``sink`` still carry.  Until a push of the round is positive, the path
    to the sink's parent keeps all it carried, so each round pushes at
    least one unit and at most ``bound`` rounds run.  Returns the flow
    and, when it stayed below ``bound``, the letters reachable from
    ``source`` in the residual graph: the inclusion-minimal source side of
    a minimum cut, whose capacity is the flow.  Once the flow reaches
    ``bound`` the side is None.

    Descent on the word's letters makes the moves that the edge matrix
    over the whole alphabet made, by two facts.  First, a generator x
    that the word misses has deg(x^-1) = 0, and as the best score never
    exceeds |w|, its bound deg(x^-1) + best - |w| is at most 0: the
    matrix descent skipped its flow, as the letter descent, which runs
    one flow per generator of the word in ascending order, never starts
    it.  Second, the result depends on the graph alone, not on the order
    in which a search meets neighbours.  The flow is min(bound, max flow)
    whichever paths carry it.  Let f be any maximum flow, S_f the set
    reachable from ``source`` in its residual graph and (S, T) any
    minimum cut.  As |f| = cap(S, T), f saturates every edge from S to T
    and sends nothing back, so no residual arc leaves S and S_f lies in
    S.  No residual arc leaves S_f either, and the sink is outside it, so
    f saturates the edges out of S_f and cap(S_f) = |f|: S_f is itself a
    minimum cut, the intersection of all of them, whichever f was found.
    """
    residual = {u: row.copy() for u, row in edges.items()}
    flow = 0
    while True:
        # a breadth-first tree of the residual graph, grown until it meets
        # the sink, which it never grows from
        parent = {source: source}
        queue = [source]
        for u in queue:  # the queue grows while it is read
            row = residual[u]
            for v in row:
                if v not in parent and row[v]:
                    parent[v] = u
                    queue.append(v)
            if sink in parent:
                break
        else:
            return flow, queue
        # augment along the tree path to each neighbour m of the sink
        for m in residual[sink]:
            if m not in parent:
                continue
            push, v, u = bound - flow, sink, m
            while v != source:
                if residual[u][v] < push:
                    push = residual[u][v]
                v, u = u, parent[u]
            v, u = sink, m
            while v != source:
                residual[u][v] -= push
                residual[v][u] += push
                v, u = u, parent[u]
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
    generators of the word are searched, in ascending order: the others
    cannot shorten it (``_min_cut``).  Only the winning move is built and
    applied; an applied length that differs from its score raises
    ``InternalContradictionError``.  Signed permutations never change
    length and are not searched.

    The word held is the running image of ``w`` itself: each accepted move
    is applied once, to the whole word.  Its cyclic length is its length
    less twice its longest conjugator's (``_peel``), and
    ``whitehead_graph`` peels its core.  So ``minimized``, the core of the
    last image, is by construction what replaying ``chain`` on ``w`` and
    cyclically reducing gives: the replay applies the same moves to the
    same word in the same order, and reduced words are unique.  The moves
    are those that a descent on cyclic cores alone would choose.  By
    induction, each step's core is conjugate to that descent's core, and
    as both are cyclically reduced, it is a cyclic rotation of it.  A
    rotation has the same cyclic length-2 subwords, hence the same
    Whitehead graph, the same scores and the same chosen move.
    """
    if w.is_identity():
        raise IdentityWordError("cannot minimize the identity")
    current, chain = w, []
    trace = [len(w) - 2 * _peel(w.letters)]
    while True:
        edges = whitehead_graph(current)
        length = trace[-1]
        best, best_side, a = length, None, None
        for x in sorted(x for x in edges if x > 0):
            degree = sum(edges[-x].values())
            bound = degree + best - length
            if bound <= 0:
                continue
            cut, side = _min_cut(edges, -x, x, bound)
            if side is not None:
                best, best_side, a = length + cut - degree, side, x
        if best_side is None:
            break
        # the side holds a^-1 and never a: Z is a and the side's other letters
        move = WhAutomorphism.multiplier_move(a, {a, *best_side} - {-a}, w.rank)
        current = move(current)
        trace.append(len(current) - 2 * _peel(current.letters))
        if trace[-1] != best:
            raise InternalContradictionError(
                f"move {move.generator_images()} scored {best} "
                f"but gave cyclic length {trace[-1]}"
            )
        chain.append(move)
    minimized = cyclic_reduce(current).core
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
