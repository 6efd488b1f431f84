"""Finitely generated subgroups as folded core graphs, and free factors.

A core graph is a folded, directed, letter-labeled graph with a basepoint
whose basepoint loops spell exactly the elements of the subgroup.  Folded
means no two equal-label edges share a source or a target; core means
every non-basepoint vertex has degree >= 2.  The subgroup rank is
edges - vertices + 1.

Free factors are only ever *constructed*, as automorphic images of
standard subsets of the basis, and a free factor is its generators: every
quantity computed from one is read off them.  A ``FreeFactorVertex`` holds
its generators' letter tuples and decides once, when it is built, whether
it is cyclic, with a single nontrivial generator.  A cyclic factor is
never folded for its membership test or its invariant's value: both are
closed forms in that generator (``_in_cyclic`` and ``_cyclic_value``,
which the experiments' trial loops read through ``_factor_value``), and
a rank-2 basis pair is decided by its commutator.  ``factor_invariant``,
which also finds a witness, searches the folded core graph of every
factor.  Deciding whether an arbitrary subgroup is a free factor is out
of scope.  The trial loops build their vertices with ``_trusted_factor``,
which builds no ``Word``.

Folding mutates a private working graph and freezes it before returning;
a factor keeps its own graph, so it is freed with the factor.  All public
values are immutable, so concurrent use is safe after construction.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from operator import neg

from .errors import (
    DomainError,
    InternalContradictionError,
    PreconditionError,
    RankError,
)
from .whitehead import (
    Classification,
    _random_multiplier_move,
    classify,
    minimize_cyclic_length,
)
from .words import (
    Word,
    _Frozen,
    _apply_table,
    _as_tuple,
    _b_exponent,
    _checked_int,
    _format_letters,
    _peel,
    _random_stream,
    _times,
    _trusted_word,
)


class CoreGraph:
    """Folded core graph of a finitely generated subgroup, basepoint 0.

    Vertices are renumbered breadth-first from the basepoint in letter
    order, and each vertex lists its edges in letter order (x, X, y, Y,
    ...), so equal subgroups produce identical graphs and searches.
    """

    __slots__ = ("rank", "basepoint", "_adj", "num_edges")

    def __init__(self, rank: int, adj: dict[int, dict[int, int]]):
        self.rank = rank
        self.basepoint = 0
        self._adj = adj
        self.num_edges = sum(len(nbrs) for nbrs in adj.values()) // 2

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def is_whole_group(self) -> bool:
        return self.num_vertices == 1 and self.num_edges == self.rank

    def step(self, vertex: int, letter: int) -> int | None:
        return self._adj[vertex].get(letter)

    def contains(self, w: Word) -> bool:
        """True iff w spells a loop at the basepoint."""
        if w.rank != self.rank:
            raise RankError("word rank does not match graph rank")
        return self._reads_loop(w.letters)

    def _reads_loop(self, letters) -> bool:
        """``contains`` on the letters of a word of the graph's rank."""
        adj = self._adj
        cur = self.basepoint
        for letter in letters:
            cur = adj[cur].get(letter)
            if cur is None:
                return False
        return cur == self.basepoint

    def to_dot(self) -> str:
        lines = ["digraph core {", '  0 [shape=doublecircle];']
        # each vertex stores its edges in letter order (``fold``), so its
        # positive letters come in increasing order
        for u in sorted(self._adj):
            for letter, v in self._adj[u].items():
                if letter > 0:
                    label = _format_letters((letter,), self.rank)
                    lines.append(f'  {u} -> {v} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<CoreGraph rank={self.rank} V={self.num_vertices} E={self.num_edges}>"


def fold(generators, rank: int | None = None) -> CoreGraph:
    """Stallings folding of the wedge of generator loops.

    Every vertex keeps a signed letter -> vertex dict.  Each generator is
    read forward from the basepoint along the edges already laid, as far
    as they go, then backward into the basepoint from its last letter, no
    further back than the forward read's stop.  Only the unread middle is
    laid down, as a path of new vertices from the forward stop to the
    backward one; each read stopped at an empty slot, so only the middle's
    last slot can clash, when both stops are one vertex and the middle
    starts with the inverse of its last letter.  A generator read whole
    ends where its forward read stops, so that vertex and the backward
    stop are one vertex of the folded graph.  Each such pair, and each
    clash, goes on a merge stack.  A merge unions the two vertices (the
    basepoint always stays the root), moves the smaller dict into the
    larger and pushes each slot that now clashes.  With reduced generators
    no non-basepoint vertex ever has fewer than two distinct signed
    labels, so the folded graph is already a core graph.  Vertices are
    then renumbered canonically.

    Cost: for total generator length L, the reads and the laying take
    O(L) dict operations, and each merge removes a vertex and moves at
    most 2 * rank slots, so folding takes O(rank * L) dict operations plus
    one find per stack entry, amortized O(log L) with path halving.  A
    letter read along a laid edge lays no vertex, so the merges that
    laying it would have cost never happen: a generator that shares a
    prefix or a suffix with those before it folds with few merges or
    none.  The renumbering sorts each vertex's own slots, O(E log rank)
    for E edges, so a small subgroup folds in small time at any rank.
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

    # No vertex merges before every generator is read, so the reads walk
    # the laid dicts as they are, with no find.
    for g in gens:
        ls = g.letters
        i, cur = 0, 0
        for letter in ls:
            nxt = adj[cur].get(letter)
            if nxt is None:
                break
            i += 1
            cur = nxt
        j, end = len(ls), 0
        while j > i:
            nxt = adj[end].get(-ls[j - 1])
            if nxt is None:
                break
            j -= 1
            end = nxt
        if i == j:
            if cur != end:
                merges.append((cur, end))
            continue
        for letter in ls[i : j - 1]:
            nxt = len(adj)
            parent.append(nxt)
            adj.append({-letter: cur})
            adj[cur][letter] = nxt
            cur = nxt
        letter = ls[j - 1]
        adj[cur][letter] = end
        other = adj[end].setdefault(-letter, cur)
        if other != cur:
            merges.append((other, cur))

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

    # Canonical renumbering: breadth-first from the basepoint, each vertex's
    # own slots in letter order; its edges are stored in that order too.
    order = {0: 0}
    queue = deque([0])
    new_adj: dict[int, dict[int, int]] = {}
    while queue:
        cur = queue.popleft()
        nbrs = new_adj[order[cur]] = {}
        slots = adj[cur]
        for letter in sorted(slots, key=_letter_key):
            nxt = find(slots[letter])
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
            nbrs[letter] = order[nxt]
    return CoreGraph(rank, new_adj)


def _letter_key(letter: int) -> int:
    """The letter's place in the order x < X < y < Y < ...
    (``whitehead.vertex_order``)."""
    return 2 * letter - 1 if letter > 0 else -2 * letter


# The cyclic rotations of [x, y] = xyXY and of [x, y]^-1 = yxYX: the
# cyclically reduced words conjugate to the commutator of a basis.
_BASIS_COMMUTATORS = frozenset(
    word[i:] + word[:i] for word in ((1, 2, -1, -2), (2, 1, -2, -1)) for i in range(4)
)


def is_basis_pair(u: Word, v: Word) -> bool:
    """True iff {u, v} is a basis of the rank-2 group.

    Nielsen's criterion (Magnus, Karrass and Solitar, *Combinatorial Group
    Theory*, Thm 3.9): {u, v} is a basis of F(x, y) iff the commutator
    [u, v] = u v u^-1 v^-1 is conjugate to [x, y] or to [x, y]^-1, that
    is, iff its cyclically reduced core is one of the eight cyclic
    rotations of xyXY and yxYX.  Nothing is folded and no Word is built:
    [u, v] = (u v)(v u)^-1 as junction-only products of letter tuples, and
    one peel, O(|u| + |v|).
    """
    if u.rank != 2 or v.rank != 2:
        raise RankError("basis-pair test is rank-2 only")
    return _basis_pair(u.letters, v.letters)


def _basis_pair(ul, vl) -> bool:
    """``is_basis_pair`` on the letters of two words of rank 2."""
    ls = _times(_times(ul, vl), tuple(map(neg, reversed(_times(vl, ul)))))
    i = _peel(ls)
    return ls[i : len(ls) - i] in _BASIS_COMMUTATORS


class FreeFactorVertex(_Frozen):
    """A vertex of the free factor graph: a proper, nontrivial free factor,
    held as its generators' letter tuples (``generator_letters``) and the
    ambient rank.

    Construction decides once whether the factor is cyclic: ``_cyclic`` is
    the letters of its one nontrivial generator, or None for a factor with
    none or with several.  Membership (``_contains``), the value
    (``_factor_value``) and the edge test (``af_adjacent``) read a cyclic
    factor's closed forms off it.  ``generators`` and ``describe`` build
    Words and text on demand.  ``graph`` folds on its first read and keeps
    the graph in a slot; equality, hashing, repr and pickling read the
    generators and the rank only.
    """

    __slots__ = ("generator_letters", "rank_ambient", "_cyclic", "_graph")
    _fields = ("generators", "rank_ambient")

    def __init__(self, generators, rank_ambient: int):
        gens = _as_tuple(generators, "generators")
        for g in gens:
            if g.rank != rank_ambient:
                raise RankError("generator rank does not match ambient rank")
        _set_letter_tuples(self, tuple(g.letters for g in gens))
        _set_rank_ambient(self, rank_ambient)
        self.__post_init__()

    def __post_init__(self):
        if not self.generator_letters:
            raise DomainError("a free factor needs at least one generator")
        nontrivial = [g for g in self.generator_letters if g]
        _set_cyclic(self, nontrivial[0] if len(nontrivial) == 1 else None)

    @property
    def generators(self) -> tuple[Word, ...]:
        rank = self.rank_ambient
        return tuple(_trusted_word(g, rank) for g in self.generator_letters)

    @property
    def graph(self) -> CoreGraph:
        if not hasattr(self, "_graph"):
            _set_graph(self, fold(self.generators, self.rank_ambient))
        return self._graph

    def describe(self) -> list[str]:
        return [_format_letters(g, self.rank_ambient) for g in self.generator_letters]


# the slots' setters, past _Frozen's refusing __setattr__
_set_letter_tuples = FreeFactorVertex.generator_letters.__set__
_set_rank_ambient = FreeFactorVertex.rank_ambient.__set__
_set_cyclic = FreeFactorVertex._cyclic.__set__
_set_graph = FreeFactorVertex._graph.__set__


def _trusted_factor(gens: tuple[tuple[int, ...], ...], rank: int) -> FreeFactorVertex:
    """The FreeFactorVertex with generator letters ``gens``, built with no
    Word and no check.

    Only for the letters of a basis of a proper free factor, derived from
    checked words of rank ``rank`` (``_random_factor_letters``, the trial
    loops' images): each is a nonempty reduced tuple over that alphabet,
    so the factor is cyclic iff it has one generator.
    """
    a = object.__new__(FreeFactorVertex)
    _set_letter_tuples(a, gens)
    _set_rank_ambient(a, rank)
    # __post_init__'s decision, for generators that are all nontrivial
    _set_cyclic(a, gens[0] if len(gens) == 1 else None)
    return a


def _in_cyclic(gl, wl) -> bool:
    """True iff the word w with letters ``wl`` lies in <g>, for g
    nontrivial with letters ``gl``; nothing is folded.

    Write g = u c u^-1 and w = u' c' u'^-1 with the longest conjugators
    (``_peel``).  Each g^n = u c^n u^-1 (n != 0) is reduced as written and
    c^n is cyclically reduced, so it peels to u and c^n.  The peel is
    unique, so a nontrivial w is a power of g iff u' = u and c' is c^m or
    (c^-1)^m for some m >= 1.
    """
    if not wl:
        return True
    i = _peel(gl)
    if _peel(wl) != i or wl[:i] != gl[:i]:
        return False
    c = gl[i : len(gl) - i]
    core = wl[i : len(wl) - i]
    m, rest = divmod(len(core), len(c))
    return not rest and core in (c * m, tuple(-l for l in reversed(c)) * m)


def _contains(a: FreeFactorVertex, wl) -> bool:
    """True iff the word with letters ``wl`` lies in the factor a: the
    closed form for a cyclic factor, a walk on the folded core graph for
    any other."""
    g = a._cyclic
    return a.graph._reads_loop(wl) if g is None else _in_cyclic(g, wl)


def af_adjacent(a: FreeFactorVertex, b: FreeFactorVertex) -> bool:
    """Edge test in the free factor graph.

    Rank >= 3: strict containment one way or the other (every generator
    of one lies in the other, and not conversely).  Membership in a cyclic
    factor is read off its generator (``_in_cyclic``); only a factor with
    two or more nontrivial generators is folded, and the core graph it
    keeps is the one ``factor_invariant`` reads.  Rank 2: the cyclic
    generators form a basis (``_basis_pair``, no fold).
    """
    rank = a.rank_ambient
    if rank != b.rank_ambient:
        raise RankError("factors live in different ambient ranks")
    gens_a, gens_b = a.generator_letters, b.generator_letters
    if rank == 2:
        if len(gens_a) != 1 or len(gens_b) != 1:
            raise DomainError("rank-2 factors must be cyclic")
        return _basis_pair(gens_a[0], gens_b[0])
    a_in_b = all(_contains(b, w) for w in gens_a)
    b_in_a = all(_contains(a, w) for w in gens_b)
    return a_in_b != b_in_a


def random_free_factor(
    rank_ambient: int, factor_rank: int, chain_length: int, seed
) -> FreeFactorVertex:
    """theta(<random standard subset>) for a random multiplier chain theta.

    ``seed`` is a ``random.Random`` or a seed of one (``_random_stream``).
    The arguments are checked here, and the generators' letters come from
    ``_random_factor_letters``, the one factor sampler, which
    ``experiments._random_deep_factor`` also calls.
    """
    rank_ambient = _checked_int(rank_ambient, "ambient rank", 2, error=RankError)
    factor_rank = _checked_int(
        factor_rank, "factor rank", 1, rank_ambient - 1, error=RankError
    )
    chain_length = _checked_int(chain_length, "chain length", 0)
    gens = _random_factor_letters(
        _random_stream(seed), rank_ambient, factor_rank, chain_length
    )
    return _trusted_factor(gens, rank_ambient)


def _random_factor_letters(
    rng, rank: int, factor_rank: int, chain_length: int
) -> tuple[tuple[int, ...], ...]:
    """The generators' letter tuples of ``random_free_factor``, for
    checked arguments and a ``random.Random``.

    The subset is one ``rng.sample`` and theta's moves are drawn in order,
    as the sampler that applied theta to Words drew them; the images are
    then read off the moves' letter tables, with no draw.  So the stream
    is consumed call for call as then and the factor is the same, and
    every seeded report that samples factors is byte-identical.
    """
    subset = sorted(rng.sample(range(1, rank + 1), factor_rank))
    moves = [_random_multiplier_move(rng, rank) for _ in range(chain_length)]
    gens = []
    for s in subset:
        letters = (s,)
        for move in moves:
            letters = _apply_table(move.table, letters)
        gens.append(letters)
    return tuple(gens)


@lru_cache(maxsize=64)
def _check_filling_minimal(b: Word) -> None:
    """The invariant's guarantees, and every experiment's, need b filling
    and of minimal length in its orbit; one descent decides both."""
    if not b.is_cyclically_reduced() or b.is_identity():
        raise PreconditionError(f"b = {b} is not cyclically reduced and nontrivial")
    cert = minimize_cyclic_length(b)
    if len(cert.minimized) != len(b):
        raise PreconditionError(
            f"b = {b} is not of minimal length in its orbit "
            f"(minimizes to {len(cert.minimized)})"
        )
    if classify(b, cert) != Classification.FILLING:
        raise PreconditionError(f"b = {b} is not filling")


class FactorInvariant(_Frozen):
    """The factor invariant, exact: searched on the folded core graph of
    the factor.

    ``witness`` is an element of the factor whose balanced b-exponent is
    ``value``.  ``samples`` counts the directed-edge states the graph
    searches visited.  ``tight`` is always True: the value is exact, not a
    sampled lower bound.
    """

    _fields = ("value", "witness", "samples")

    @property
    def tight(self) -> bool:
        return True


def _b_blocks(graph: CoreGraph, b: Word) -> list[int]:
    """Vertices v_1, v_2, ... reached by reading b, b^2, ... from the
    basepoint, up to the first read that fails.

    A repeated vertex means some power of b reads a loop, i.e. lies in the
    subgroup, and then the invariant is infinite.
    """
    adj = graph._adj
    cur = graph.basepoint
    seen = {cur: 0}
    blocks: list[int] = []
    while True:
        for letter in b.letters:
            cur = adj[cur].get(letter)
            if cur is None:
                return blocks
        if cur in seen:
            raise _infinite_invariant(len(blocks) + 1 - seen[cur])
        blocks.append(cur)
        seen[cur] = len(blocks)


def _infinite_invariant(power: int) -> PreconditionError:
    """The error for a subgroup containing b^power, the least such power."""
    name = "b" if power == 1 else f"b^{power}"
    return PreconditionError(f"{name} lies in the subgroup; the invariant is infinite")


def _forced_stem(graph: CoreGraph) -> tuple[tuple[int, ...], int]:
    """The letters every nontrivial reduced basepoint loop starts with, and
    the vertex they end at: the path of out-degree-1 steps from the
    basepoint (empty when the basepoint has degree >= 2)."""
    adj = graph._adj
    cur = graph.basepoint
    stem: list[int] = []
    while len(adj[cur]) == (1 if not stem else 2):
        letter = next(l for l in adj[cur] if not stem or l != -stem[-1])
        stem.append(letter)
        cur = adj[cur][letter]
    return tuple(stem), cur


def _closed_path(
    graph: CoreGraph, v: int, bad_first: set[int], bad_last: int | None
) -> tuple[tuple[int, ...] | None, int]:
    """Shortest nonempty reduced closed path at v whose first letter is not
    in ``bad_first`` and whose last letter is not ``bad_last``.

    Breadth-first search over directed edges: in a folded graph an edge is
    fixed by its target and label, so a state is (vertex, last letter), and
    a step may follow any letter but the inverse of the last one.  Returns
    the path's letters (None if there is none) and the number of states
    visited.
    """
    adj = graph._adj
    parent: dict[tuple[int, int], tuple[int, int] | None] = {}
    queue: deque[tuple[int, int]] = deque()
    for letter, target in adj[v].items():
        if letter not in bad_first:
            parent[(target, letter)] = None
            queue.append((target, letter))
    while queue:
        state = queue.popleft()
        u, last = state
        if u == v and last != bad_last:
            path = []
            while state is not None:
                path.append(state[1])
                state = parent[state]
            return tuple(reversed(path)), len(parent)
        for letter, target in adj[u].items():
            nxt = (target, letter)
            if letter != -last and nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    return None, len(parent)


def factor_invariant(a: FreeFactorVertex, b: Word) -> FactorInvariant:
    """Supremum of the balanced b-exponent over the nontrivial elements of
    the factor, with a witness: a search of its folded core graph
    (``_graph_invariant``), for a cyclic factor as for any other.

    A caller that needs only the value calls ``_factor_value``, which
    reads a cyclic factor's value off its generator (``_cyclic_value``)
    and comes here for any other.
    """
    _check_filling_minimal(b)
    if b.rank != a.rank_ambient:
        raise RankError("b and the factor must have the same ambient rank")
    return _graph_invariant(a.graph, b)


def _cyclic_value(gl, bl, binv) -> int:
    """The invariant of <g>, g nontrivial, from the letters of g, b and
    b^-1, with no core graph: the balanced b-exponent of g itself,
    ``b_index(g, b)``.

    Write g = u c u^-1 with u the longest conjugator (``_peel``).  Every
    element g^n = u c^n u^-1 (n != 0) is reduced as written, and c^n is
    cyclically reduced, so its longest conjugator is u, and
    ``_b_exponent`` reads the same value off u for every n: each element
    attains it.

    With u empty, g^n = c^n is cyclically reduced and has exponent 0,
    unless <g> contains a power of b (``_infinite_invariant``).  If
    c^n = b^+-m, then c and b commute, so both are powers of one root r,
    and the least such m is L/|b| with L = lcm(|c|, |b|), where
    c^(L/|c|) = (b^+-1)^(L/|b|) letter for letter; if no power of c is a
    power of b, that equality fails.  So the refusal is exact and names
    the least power.  With u nonempty no element is cyclically reduced,
    so none is a power of b.
    """
    i = _peel(gl)
    if not i:
        m = len(bl)
        span = math.lcm(len(gl), m)
        if gl * (span // len(gl)) in (bl * (span // m), binv * (span // m)):
            raise _infinite_invariant(span // m)
    return _b_exponent(gl, i, bl, binv)[0]


def _factor_value(a: FreeFactorVertex, b: Word, bl, binv) -> int:
    """``factor_invariant(a, b).value`` for a factor a of b's rank and b
    past ``_check_filling_minimal``, spelled ``bl`` (b^-1: ``binv``).  A
    cyclic factor's value comes off ``_cyclic_value`` with no graph
    searched."""
    g = a._cyclic
    if g is None:
        return factor_invariant(a, b).value
    return _cyclic_value(g, bl, binv)


def _graph_invariant(graph: CoreGraph, b: Word) -> FactorInvariant:
    """The invariant of the subgroup with folded core graph ``graph``.

    The graph is deterministic, so an element b^k c b^-k (k >= 1, letter
    for letter) reads b^k from the basepoint to the k-th block vertex v_k,
    then a nonempty reduced loop c at v_k that neither starts nor ends on
    the last edge of that b-path.  Conversely any such loop gives an
    element of exponent >= k.  The value is the largest k with such a loop.

    If no k >= 1 qualifies, every element starts with the forced stem at
    the basepoint and ends with its inverse, so the value is -J, where J is
    the number of whole b^-1 blocks the stem spells (``_b_exponent``); a
    loop that leaves the stem off the next b^-1 letter attains it.

    The search costs O(edges) per block vertex tried, from v_K downwards.
    """
    if graph.is_whole_group():
        raise PreconditionError("the factor is the whole group, not proper")
    if graph.num_edges == 0:
        raise DomainError("the factor has no nontrivial generators")
    b_letters = b.letters
    binv = b.inverse().letters
    samples = 0
    blocks = _b_blocks(graph, b)
    for k in range(len(blocks), 0, -1):
        loop, visited = _closed_path(
            graph, blocks[k - 1], {-b_letters[-1]}, b_letters[-1]
        )
        samples += visited
        if loop is not None:
            return FactorInvariant(
                k, _trusted_word(b_letters * k + loop + binv * k, b.rank), samples
            )

    stem, end = _forced_stem(graph)
    # Every element is the stem, a nonempty loop at its end and the
    # stem's inverse, so a stem starting with b would make each element
    # b m b^-1 letter for letter with m a nonempty loop at v_1, which the
    # k = 1 search would have found: the stem's count is never positive.
    value, next_letter = _b_exponent(stem, len(stem), b_letters, binv)
    if value > 0:
        raise InternalContradictionError(
            "the forced stem starts with b, but no loop follows b"
        )
    # None, for no stem or no next letter, matches no letter
    bad_first = {-stem[-1] if stem else None, next_letter}
    loop, visited = _closed_path(graph, end, bad_first, stem[-1] if stem else None)
    samples += visited
    if loop is None:
        raise InternalContradictionError(
            "no loop leaves the forced stem of a core graph"
        )
    inverse_stem = tuple(-l for l in reversed(stem))
    return FactorInvariant(
        value, _trusted_word(stem + loop + inverse_stem, b.rank), samples
    )
