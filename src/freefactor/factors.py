"""Finitely generated subgroups as folded core graphs, and free factors.

A core graph is a folded, directed, letter-labeled graph with a basepoint
whose basepoint loops spell exactly the elements of the subgroup.  Folded
means no two equal-label edges share a source or a target; core means
every non-basepoint vertex has degree >= 2.  The subgroup rank is
edges - vertices + 1.

Free factors are only ever *constructed* (as automorphic images of
standard subsets of the basis, with the witnessing chain stored); deciding
whether an arbitrary subgroup is a free factor is out of scope.

Folding mutates a private working graph and freezes it before returning;
all public values are immutable, so concurrent use is safe after
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DomainError,
    InternalContradictionError,
    PreconditionError,
    RankError,
)
from .whitehead import (
    Classification,
    WhAutomorphism,
    classify,
    enumerate_whitehead_automorphisms,
    minimize_cyclic_length,
)
from .words import Word, apply_automorphism, b_reduced_decomposition, format_word


class CoreGraph:
    """Folded core graph of a finitely generated subgroup, basepoint 0.

    Vertices are renumbered breadth-first from the basepoint in letter
    order, so equal subgroups produce identical graphs.
    """

    __slots__ = ("rank", "basepoint", "_adj")

    def __init__(self, rank: int, adj: dict[int, dict[int, int]]):
        self.rank = rank
        self.basepoint = 0
        self._adj = adj

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def subgroup_rank(self) -> int:
        return self.num_edges - self.num_vertices + 1

    def is_whole_group(self) -> bool:
        return self.num_vertices == 1 and self.num_edges == self.rank

    def step(self, vertex: int, letter: int) -> int | None:
        return self._adj[vertex].get(letter)

    def contains(self, w: Word) -> bool:
        """True iff w spells a loop at the basepoint."""
        if w.rank != self.rank:
            raise RankError("word rank does not match graph rank")
        cur = self.basepoint
        for letter in w.letters:
            nxt = self._adj[cur].get(letter)
            if nxt is None:
                return False
            cur = nxt
        return cur == self.basepoint

    def contains_all(self, words) -> bool:
        return all(self.contains(w) for w in words)

    def subgroup_basis(self) -> list[Word]:
        """A free basis read off a spanning tree (one word per extra edge)."""
        path = {self.basepoint: ()}
        tree_edges = set()  # directed-positive identity (source, letter, target)
        queue = [self.basepoint]
        while queue:
            cur = queue.pop(0)
            for letter in sorted(self._adj[cur], key=lambda l: (abs(l), l < 0)):
                nxt = self._adj[cur][letter]
                if nxt not in path:
                    path[nxt] = path[cur] + (letter,)
                    if letter > 0:
                        tree_edges.add((cur, letter, nxt))
                    else:
                        tree_edges.add((nxt, -letter, cur))
                    queue.append(nxt)
        basis = []
        for u in sorted(self._adj):
            for letter in sorted(self._adj[u], key=lambda l: (abs(l), l < 0)):
                if letter < 0:
                    continue
                v = self._adj[u][letter]
                if (u, letter, v) in tree_edges:
                    continue
                loop = path[u] + (letter,) + tuple(-l for l in reversed(path[v]))
                word = Word.from_letters(loop, self.rank)
                if not word.is_identity():
                    basis.append(word)
        return basis

    def to_dot(self) -> str:
        lines = ["digraph core {", '  0 [shape=doublecircle];']
        for u in sorted(self._adj):
            for letter in sorted(self._adj[u], key=lambda l: (abs(l), l < 0)):
                if letter > 0:
                    from .words import GENERATOR_CHARS

                    label = GENERATOR_CHARS[letter - 1]
                    lines.append(f'  {u} -> {self._adj[u][letter]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoreGraph)
            and self.rank == other.rank
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash(
            (self.rank, tuple(sorted((u, tuple(sorted(d.items()))) for u, d in self._adj.items())))
        )

    def __repr__(self):
        return f"<CoreGraph rank={self.rank} V={self.num_vertices} E={self.num_edges}>"


def fold(generators, rank: int | None = None) -> CoreGraph:
    """Stallings folding of the wedge of generator loops.

    Repeatedly merges endpoints of equal-label edges sharing a source or a
    target, then trims non-basepoint degree-1 vertices and renumbers
    canonically.
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

    # Canonical renumbering: breadth-first from the basepoint, letter order.
    order = {0: 0}
    queue = [0]
    while queue:
        cur = queue.pop(0)
        for letter in sorted(adj[cur], key=lambda l: (abs(l), l < 0)):
            nxt = adj[cur][letter]
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
    new_adj: dict[int, dict[int, int]] = {order[v]: {} for v in adj}
    for u, nbrs in adj.items():
        for letter, v in nbrs.items():
            new_adj[order[u]][letter] = order[v]
    return CoreGraph(rank, new_adj)


def contains(graph: CoreGraph, w: Word) -> bool:
    """True iff w reads a basepoint loop in the folded graph."""
    return graph.contains(w)


def is_basis_pair(u: Word, v: Word) -> bool:
    """True iff {u, v} generates the whole rank-2 group (then it is a basis)."""
    if u.rank != 2 or v.rank != 2:
        raise RankError("basis-pair test is rank-2 only")
    return fold([u, v], rank=2).is_whole_group()


@dataclass(frozen=True)
class FactorWitness:
    """Chain theta and standard subset with factor = theta(<subset>)."""

    chain: tuple[WhAutomorphism, ...]
    standard_subset: tuple[int, ...]


@dataclass(frozen=True)
class FreeFactorVertex:
    """A vertex of the free factor graph: a proper, nontrivial free factor."""

    generators: tuple[Word, ...]
    rank_ambient: int
    witness: FactorWitness | None = None

    def __post_init__(self):
        if not self.generators:
            raise DomainError("a free factor needs at least one generator")
        if any(g.rank != self.rank_ambient for g in self.generators):
            raise RankError("generator rank does not match ambient rank")
        if self.witness is not None:
            r = len(self.witness.standard_subset)
            if not 1 <= r < self.rank_ambient:
                raise DomainError("witnessed factor must be proper and nontrivial")

    @property
    def graph(self) -> CoreGraph:
        return _fold_cached(self.generators, self.rank_ambient)

    def random_element(self, rng: random.Random, max_syllables: int = 4) -> Word:
        """A nontrivial product of the generators (freely reduced indices)."""
        gens = self.generators
        for _ in range(64):
            length = rng.randint(1, max_syllables)
            idx: list[int] = []
            choices = [i + 1 for i in range(len(gens))]
            choices += [-c for c in choices]
            for _ in range(length):
                allowed = [c for c in choices if not idx or c != -idx[-1]]
                idx.append(rng.choice(allowed))
            w = Word.identity(self.rank_ambient)
            for s in idx:
                g = gens[abs(s) - 1]
                w = w * (g if s > 0 else g.inverse())
            if not w.is_identity():
                return w
        raise DomainError("could not sample a nontrivial element")

    def describe(self) -> list[str]:
        return [format_word(g) for g in self.generators]


@lru_cache(maxsize=4096)
def _fold_cached(generators: tuple[Word, ...], rank: int) -> CoreGraph:
    return fold(list(generators), rank)


def af_adjacent(a: FreeFactorVertex, b: FreeFactorVertex) -> bool:
    """Edge test in the free factor graph.

    Rank >= 3: strict containment one way or the other (every generator
    loop of one traces in the other's graph, and not conversely).  Rank 2:
    the cyclic generators form a basis.
    """
    if a.rank_ambient != b.rank_ambient:
        raise RankError("factors live in different ambient ranks")
    if a.rank_ambient == 2:
        if len(a.generators) != 1 or len(b.generators) != 1:
            raise DomainError("rank-2 factors must be cyclic")
        return is_basis_pair(a.generators[0], b.generators[0])
    a_in_b = b.graph.contains_all(a.generators)
    b_in_a = a.graph.contains_all(b.generators)
    return a_in_b != b_in_a


def random_free_factor(
    rank_ambient: int, factor_rank: int, chain_length: int, seed
) -> FreeFactorVertex:
    """theta(<random standard subset>) for a random multiplier chain theta."""
    if not 1 <= factor_rank < rank_ambient:
        raise RankError(
            f"factor rank must be in [1, {rank_ambient - 1}], got {factor_rank}"
        )
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    subset = tuple(sorted(rng.sample(range(1, rank_ambient + 1), factor_rank)))
    table = enumerate_whitehead_automorphisms(rank_ambient)
    chain = tuple(rng.choice(table) for _ in range(chain_length))
    gens = tuple(
        apply_automorphism(chain, Word((s,), rank_ambient)) for s in subset
    )
    return FreeFactorVertex(gens, rank_ambient, FactorWitness(chain, subset))


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


@dataclass(frozen=True)
class InvariantEstimate:
    """Sampling estimate of the factor invariant sup over the subgroup.

    ``tight`` means two distinct exponents were observed; since all
    exponents over one factor span at most {m, m+1}, the larger one is then
    provably the supremum.  Otherwise the true value is in
    {value, value + 1}.
    """

    value: int
    tight: bool
    samples: int

    def __iter__(self):
        return iter((self.value, self.tight))


def factor_invariant(
    a: FreeFactorVertex, b: Word, sample_budget: int | None = None
) -> InvariantEstimate:
    """Supremum of the balanced-b exponent over elements of the factor.

    Enumerates products of the generators of generator-length <= 3, then
    extends until a second distinct exponent appears or the budget (default
    10^4 elements) runs out.  Exponent spread > 1 within one factor is a
    theorem violation and raises InternalContradictionError.
    """
    budget = 10_000 if sample_budget is None else sample_budget
    _check_filling_minimal(b)
    if b.rank != a.rank_ambient:
        raise RankError("b and the factor must have the same ambient rank")
    graph = a.graph
    if graph.is_whole_group():
        raise PreconditionError("the factor is the whole group, not proper")
    if graph.contains(b):
        raise PreconditionError(
            "b lies in the subgroup; the invariant is infinite"
        )

    gens = [g for g in a.generators if not g.is_identity()]
    if not gens:
        raise DomainError("the factor has no nontrivial generators")
    lo: int | None = None
    hi: int | None = None
    samples = 0
    seen: set[tuple[int, ...]] = set()
    # Elements of a cyclic subgroup all share one axis, so their exponents
    # agree; scanning beyond a few powers cannot produce a second value.
    max_len = 3 if len(gens) == 1 else None

    signed = [i + 1 for i in range(len(gens))]
    signed += [-s for s in signed]
    frontier: list[tuple[tuple[int, ...], Word]] = [((), Word.identity(b.rank))]
    length = 0
    while frontier and samples < budget:
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
                if hi - lo > 1:
                    raise InternalContradictionError(
                        f"exponents {lo} and {hi} observed in one factor"
                    )
                if hi - lo == 1:
                    return InvariantEstimate(hi, True, samples)
                if samples >= budget:
                    break
            if samples >= budget:
                break
        frontier = new_frontier
    if hi is None:
        raise DomainError("no nontrivial elements sampled")
    return InvariantEstimate(hi, hi - lo == 1, samples)
