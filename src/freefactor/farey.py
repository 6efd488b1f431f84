"""The Farey graph: slopes, exact distances, and closest-orbit-point maps.

Vertices are primitive integer pairs up to overall sign (slopes p/q,
including 1/0); an edge joins two slopes iff the determinant of the pair
is +-1.  Conjugacy classes of cyclic factors on primitive elements of the
rank-2 group correspond to slopes through abelianization, and basis pairs
map to edges, so this graph models the rank-2 factor graph up to inner
automorphisms.

The primary distance algorithm moves the target to 1/0 by a unimodular
matrix and folds a min-plus recurrence over the regular continued
fraction of the image (Beardon-Hockman-Short, "Geodesic continued
fractions", 2012).  It keeps no state between calls and takes one step
per partial quotient, O(log q).  The recurrence is exact: every neighbor
of 1/0 is an integer, and any geodesic from 1/0 to x must enter the
interval of x through floor(x) or ceil(x) (arcs of the Farey tessellation
do not cross).  An explicit breadth-first-search oracle over a truncated
graph is provided for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, RankError
from .factors import FreeFactorVertex
from .whitehead import is_primitive
from .words import Word


@dataclass(frozen=True, slots=True)
class Slope:
    """A primitive pair (p, q) normalized so q > 0, or q == 0 and p == 1."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p == 0 and q == 0:
            raise DomainError("slope (0, 0) is not allowed")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_string(cls, text: str) -> "Slope":
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise DomainError(f"cannot parse slope {text!r}; expected p/q")
        try:
            return cls(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise DomainError(f"cannot parse slope {text!r}") from exc

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def slope_of(w: Word, assume_primitive: bool = False) -> Slope:
    """Exponent-sum vector of a primitive rank-2 word, as a slope.

    Abelianization is conjugation-invariant, so this is well defined on
    conjugacy classes.  Non-primitive words are rejected (their exponent
    vector need not be a primitive pair).
    """
    if w.rank != 2:
        raise RankError("slopes are defined for rank 2 only")
    if not assume_primitive and not is_primitive(w):
        raise PreconditionError(f"{w} is not primitive")
    return Slope(*exponent_sums(w))


def exponent_sums(w: Word) -> tuple[int, int]:
    """The exponent sums of x and of y in a rank-2 word (its homology class)."""
    p = sum(1 if l == 1 else -1 for l in w.letters if abs(l) == 1)
    q = sum(1 if l == 2 else -1 for l in w.letters if abs(l) == 2)
    return p, q


def farey_adjacent(s: Slope, t: Slope) -> bool:
    return abs(s.p * t.q - s.q * t.p) == 1


def _dist_to_infinity(p: int, q: int) -> int:
    """Graph distance from p/q to 1/0.  Requires gcd(p, q) == 1, q >= 0.

    Translate x = p/q into [0, 1) and write x = [0; a_1, ..., a_n].  A
    geodesic leaves 1/0 through floor(x) or ceil(x); moving that integer
    to 1/0 drops a_1 (floor exit) or decrements the head (ceil exit), and
    a head of 1 drops two quotients.  So with D_{n+1} = 1 and D_{n+2} = 0,

        D_i = min(1 + D_{i+1}, a_i + D_{i+2}),

    and the distance is D_1.  This is the min-plus product
    (0, 1) . M(a_1) ... M(a_n) . (1, 0) with M(a) = [[1, a], [0, inf]],
    which Euclid's loop evaluates left to right on the row vector (u, v):
    two integers of state and one step per partial quotient, O(log q).
    """
    if q == 0:
        return 0
    p %= q
    u, v = 0, 1
    while p:
        # min(u + 1, v), spelled out: calling min() makes the loop ~3x slower
        u, v = (u + 1 if u < v else v), u + q // p
        q, p = p, q % p
    return u + 1 if u < v else v


def farey_distance(s: Slope, t: Slope) -> int:
    """Exact graph distance between two slopes.

    Completes t to a determinant-one matrix sending it to 1/0, applies the
    matrix to s, and folds the continued fraction of the image.
    """
    if s == t:
        return 0
    g, u, v = _extended_gcd(t.p, t.q)
    p2 = u * s.p + v * s.q
    q2 = t.p * s.q - t.q * s.p
    # distance from 1/0 is invariant under x -> -x, so the sign of p2/q2
    # does not matter
    return _dist_to_infinity(p2 if q2 >= 0 else -p2, abs(q2))


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def of2_project(a: FreeFactorVertex) -> Slope:
    """Slope of a cyclic rank-2 factor; invariant under conjugating the factor."""
    if a.rank_ambient != 2:
        raise RankError("projection to slopes is rank-2 only")
    if len(a.generators) != 1:
        raise DomainError("rank-2 factors must be cyclic")
    return slope_of(a.generators[0], assume_primitive=a.witness is not None)


def closest_orbit_point(target: Slope, phi_images) -> int:
    """Index of the closest slope in a window of orbit slopes.

    Ties break to the smallest index, making the assignment deterministic.
    """
    images = list(phi_images)
    if not images:
        raise DomainError("orbit window is empty")
    best, best_d = 0, farey_distance(target, images[0])
    for j in range(1, len(images)):
        d = farey_distance(target, images[j])
        if d < best_d:
            best, best_d = j, d
    return best


class FareyGraph:
    """Explicit Farey graph on slopes with |p|, |q| <= limit (BFS oracle).

    Distances computed here are subgraph distances, hence upper bounds for
    the true graph distance, with equality whenever a geodesic stays inside
    the box.  Geodesics from 1/0 to any slope consist of semiconvergents,
    which satisfy |p| <= |p_target| + q_target and q <= q_target, so a box
    of about twice the target size is always geodesic-complete for
    distances from 1/0.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise DomainError("limit must be positive")
        self.limit = limit
        slopes: list[Slope] = [Slope(1, 0)]
        for q in range(1, limit + 1):
            for p in range(-limit, limit + 1):
                if math.gcd(p, q) == 1:
                    slopes.append(Slope(p, q))
        self.slopes = slopes
        self.index = {s: i for i, s in enumerate(slopes)}
        self._build_csr()

    def _t_interval(self, c0: int, step: int) -> tuple[int, int] | None:
        """Integer t with |c0 + t*step| <= limit; None means every t works."""
        if step == 0:
            return None if abs(c0) <= self.limit else (1, 0)
        if step < 0:
            c0, step = -c0, -step
        lo = -((self.limit + c0) // step)
        hi = (self.limit - c0) // step
        return (lo, hi)

    def _build_csr(self) -> None:
        index = self.index
        adjacency: list[set[int]] = [set() for _ in self.slopes]
        for i, s in enumerate(self.slopes):
            g, u, v = _extended_gcd(s.p, s.q)
            # p*s' - q*r' = 1 has base solution (r0, s0) = (-v, u); all
            # solutions differ by multiples of (p, q), and the second family
            # covers determinant -1.
            for r0, s0 in ((-v, u), (v, -u)):
                iv_r = self._t_interval(r0, s.p)
                iv_s = self._t_interval(s0, s.q)
                if iv_r is None:
                    iv = iv_s
                elif iv_s is None:
                    iv = iv_r
                else:
                    iv = (max(iv_r[0], iv_s[0]), min(iv_r[1], iv_s[1]))
                for t in range(iv[0], iv[1] + 1):
                    nbr = Slope(r0 + t * s.p, s0 + t * s.q)
                    j = index.get(nbr)
                    if j is not None and j != i:
                        adjacency[i].add(j)
                        adjacency[j].add(i)
        counts = np.array([len(a) for a in adjacency], dtype=np.int64)
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.indices = np.empty(int(self.indptr[-1]), dtype=np.int64)
        for i, nbrs in enumerate(adjacency):
            self.indices[self.indptr[i] : self.indptr[i + 1]] = sorted(nbrs)

    def bfs(self, source: Slope) -> np.ndarray:
        """Distances from ``source`` to every vertex of the box (-1 if unreached)."""
        src = self.index.get(source)
        if src is None:
            raise DomainError(f"slope {source} outside box of size {self.limit}")
        dist = np.full(len(self.slopes), -1, dtype=np.int64)
        dist[src] = 0
        frontier = np.array([src], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            starts = self.indptr[frontier]
            counts = self.indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            base = np.repeat(starts, counts)
            within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            nbrs = self.indices[base + within]
            nbrs = nbrs[dist[nbrs] < 0]
            if nbrs.size == 0:
                break
            dist[nbrs] = level
            frontier = np.unique(nbrs)
        return dist

    def distance(self, s: Slope, t: Slope) -> int:
        dst = self.index.get(t)
        if dst is None:
            raise DomainError(f"slope {t} outside box of size {self.limit}")
        d = int(self.bfs(s)[dst])
        if d < 0:
            raise DomainError("target unreachable within the box")
        return d
