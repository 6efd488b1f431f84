"""The Farey graph: slopes, exact distances, and a breadth-first-search oracle.

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
do not cross).  The matrix comes from one modular inverse, a C call.

An explicit breadth-first-search oracle over a truncated box is provided
for cross-checking.  Its V vertices and their edges are built in O(V)
from Farey parents (two per slope, from p^-1 mod q), and each BFS level
is gathered through a mask over a per-edge source array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, RankError
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
            p, q = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DomainError(f"cannot parse slope {text!r}") from exc
        return cls(p, q)

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
    ls = w.letters
    return ls.count(1) - ls.count(-1), ls.count(2) - ls.count(-2)


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
    tp, tq = t.p, t.q
    if s.p == tp and s.q == tq:
        return 0
    q2 = tp * s.q - tq * s.p
    if tq == 0:  # t = 1/0 already
        p2 = s.p
    elif tq == 1:  # x -> 1/(tp - x) sends tp to 1/0
        p2 = s.q
    else:
        # Bezout pair u*tp + v*tq = 1, with u = tp^-1 mod tq from C
        u = pow(tp, -1, tq)
        p2 = u * s.p + (1 - u * tp) // tq * s.q
    # distance from 1/0 is invariant under x -> -x, so the sign of p2/q2
    # does not matter
    return _dist_to_infinity(p2 if q2 >= 0 else -p2, abs(q2))


class FareyGraph:
    """Explicit Farey graph on slopes with |p|, |q| <= limit (BFS oracle).

    Distances computed here are subgraph distances, hence upper bounds for
    the true graph distance, with equality whenever a geodesic stays inside
    the box.  Geodesics from 1/0 to any slope consist of semiconvergents,
    which satisfy |p| <= |p_target| + q_target and q <= q_target, so a box
    of about twice the target size is always geodesic-complete for
    distances from 1/0.

    The edges come from Farey parents (the Stern-Brocot fact): a slope p/q
    with q >= 2 has exactly two neighbors of smaller denominator, a/b and
    (p-a)/(q-b) with b = p^-1 mod q and a = (p*b - 1)/q, whose numerators
    lie between 0 and p; an integer p/1 has (p-1)/1 and 1/0.  No two slopes
    of one denominator q >= 2 are adjacent, so every edge is found exactly
    once, from its endpoint of larger denominator (or larger integer).  The
    build costs one modular inverse per vertex, O(V) of them, and one sort
    for the CSR rows.  Breadth-first search keeps the source of every
    CSR entry and gathers each level through a mask over the edges.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise DomainError("limit must be positive")
        self.limit = limit
        width = 2 * limit + 1
        q, p = np.divmod(np.arange(limit * width), width)
        q += 1
        p -= limit
        primitive = np.gcd(p, q) == 1
        p, q = p[primitive], q[primitive]
        self.slopes = [Slope(1, 0)] + [
            Slope(a, b) for a, b in zip(p.tolist(), q.tolist())
        ]
        self.index = {s: i for i, s in enumerate(self.slopes)}
        self._build_csr(p, q)

    def _build_csr(self, p: np.ndarray, q: np.ndarray) -> None:
        """CSR adjacency of the box; ``p/q`` are the finite slopes in order."""
        limit, n = self.limit, len(p) + 1
        # position[q, p + limit] is the vertex index of p/q, -1 off the box
        position = np.full((limit + 1, 2 * limit + 1), -1, dtype=np.int64)
        position[0, 1 + limit] = 0
        child = np.arange(1, n, dtype=np.int64)
        position[q, p + limit] = child
        # pow(p, -1, 1) is 0; b = 1 turns the parent formula below into
        # (p-1)/1 and 1/0 for integers
        b = np.array(
            [pow(x, -1, y) or 1 for x, y in zip(p.tolist(), q.tolist())],
            dtype=np.int64,
        )
        a = (p * b - 1) // q
        inside = np.abs(a) <= limit  # only (-limit-1)/1 falls off the box
        u = np.concatenate((child[inside], child))
        v = np.concatenate((position[b[inside], a[inside] + limit],
                            position[q - b, p - a + limit]))
        src = np.concatenate((u, v))
        dst = np.concatenate((v, u))
        order = np.lexsort((dst, src))
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        self.indices = dst[order]
        self._edge_source = src[order]

    def bfs(self, source: Slope) -> np.ndarray:
        """Distances from ``source`` to every vertex of the box (-1 if unreached)."""
        src = self.index.get(source)
        if src is None:
            raise DomainError(f"slope {source} outside box of size {self.limit}")
        dist = np.full(len(self.slopes), -1, dtype=np.int64)
        dist[src] = 0
        frontier = dist == 0
        level = 0
        while True:
            nbrs = self.indices[frontier[self._edge_source]]
            nbrs = nbrs[dist[nbrs] < 0]
            if nbrs.size == 0:
                return dist
            level += 1
            dist[nbrs] = level
            frontier = dist == level

    def distance(self, s: Slope, t: Slope) -> int:
        dst = self.index.get(t)
        if dst is None:
            raise DomainError(f"slope {t} outside box of size {self.limit}")
        d = int(self.bfs(s)[dst])
        if d < 0:
            raise DomainError("target unreachable within the box")
        return d
