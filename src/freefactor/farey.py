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

A slope is an immutable tuple subclass, so it hashes and compares in C
and equals the plain tuple (p, q).

An explicit breadth-first-search oracle over a truncated box is provided
for cross-checking.  Its V vertices and their edges are built in O(V)
from Farey parents (two per slope, from p^-1 mod q, computed for all
slopes at once by a vectorised extended Euclid), and each BFS level
gathers only the CSR rows of its frontier.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from itertools import repeat

import numpy as np

from .errors import DomainError, PreconditionError, RankError
from .whitehead import is_primitive
from .words import Word


class Slope(namedtuple("Slope", "p q")):
    """A primitive pair (p, q) normalized so q > 0, or q == 0 and p == 1.

    An immutable tuple: ``hash`` and ``==`` are the tuple's, so a dict keyed
    by slopes also finds the plain tuple ``(p, q)``.  Every way of making a
    slope (the constructor, ``_make``, ``_replace``, pickle and copy)
    normalizes; the coordinates are Python ints.
    """

    __slots__ = ()

    def __new__(cls, p, q):
        try:
            p, q = operator.index(p), operator.index(q)
        except TypeError as exc:
            raise DomainError(
                f"slope coordinates must be integers, got ({p!r}, {q!r})"
            ) from exc
        if p == 0 and q == 0:
            raise DomainError("slope (0, 0) is not allowed")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        return tuple.__new__(cls, (p, q))

    @classmethod
    def _make(cls, iterable) -> "Slope":
        # namedtuple's _make (and _replace, which calls it) skip __new__
        return cls(*iterable)

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


def slope_of(w: Word) -> Slope:
    """Exponent-sum vector of a primitive rank-2 word, as a slope.

    Abelianization is conjugation-invariant, so this is well defined on
    conjugacy classes.  Every word is checked: non-primitive words are
    rejected (their exponent vector need not be a primitive pair).
    """
    if w.rank != 2:
        raise RankError("slopes are defined for rank 2 only")
    if not is_primitive(w):
        raise PreconditionError(f"{w} is not primitive")
    return Slope(*exponent_sums(w))


def exponent_sums(w: Word) -> tuple[int, int]:
    """The exponent sums of x and of y in a rank-2 word (its homology class)."""
    ls = w.letters
    return ls.count(1) - ls.count(-1), ls.count(2) - ls.count(-2)


def farey_distance(s: Slope, t: Slope) -> int:
    """Exact graph distance between two slopes.

    Completes t to a determinant-one matrix sending it to 1/0 and applies
    the matrix to s, giving p/q with q = det(t, s).  Then it translates
    p/q into [0, 1), writes it as [0; a_1, ..., a_n], and folds the
    continued fraction.  A geodesic leaves 1/0 through floor(x) or ceil(x);
    moving that integer to 1/0 drops a_1 (floor exit) or decrements the
    head (ceil exit), and a head of 1 drops two quotients.  So with
    D_{n+1} = 1 and D_{n+2} = 0,

        D_i = min(1 + D_{i+1}, a_i + D_{i+2}),

    and the distance is D_1.  This is the min-plus product
    (0, 1) . M(a_1) ... M(a_n) . (1, 0) with M(a) = [[1, a], [0, inf]],
    which Euclid's loop evaluates left to right on the row vector (u, v):
    two integers of state and one step per partial quotient, O(log q).
    """
    # indexing beats the field properties and unpacking a tuple subclass
    sp, sq = s[0], s[1]
    tp, tq = t[0], t[1]
    q = tp * sq - tq * sp
    if q == 0:  # primitive pairs with determinant 0 are the same slope
        return 0
    if tq == 0:  # t = 1/0 already
        p = sp
    elif tq == 1:  # x -> 1/(tp - x) sends tp to 1/0
        p = sq
    else:
        # Bezout pair u*tp + v*tq = 1, with u = tp^-1 mod tq from C
        u = pow(tp, -1, tq)
        p = u * sp + (1 - u * tp) // tq * sq
    # x -> -x fixes 1/0, so the distance from 1/0 depends on |p/q| only
    if q < 0:
        q = -q
    p %= q
    if not p:  # an integer: a neighbor of 1/0
        return 1
    # the first step from (u, v) = (0, 1), where min(u + 1, v) is 1
    u, v = 1, q // p
    q, p = p, q % p
    while p:
        # min(u + 1, v), spelled out: calling min() makes the loop ~3x slower
        u, v = (u + 1 if u < v else v), u + q // p
        q, p = p, q % p
    return u + 1 if u < v else v


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
    build runs one extended Euclid over all V vertices at once (O(log limit)
    numpy rounds) for the inverses, and one sort for the CSR rows.  Each
    breadth-first-search level gathers the CSR rows of its frontier only.
    ``index`` maps each slope, or the plain tuple (p, q), to its vertex.
    """

    def __init__(self, limit: int):
        try:
            limit = operator.index(limit)
        except TypeError as exc:
            raise DomainError(f"limit must be an integer, got {limit!r}") from exc
        if limit < 1:
            raise DomainError("limit must be positive")
        self.limit = limit
        width = 2 * limit + 1
        q, p = np.divmod(np.arange(limit * width), width)
        q += 1
        p -= limit
        primitive = np.gcd(p, q) == 1
        p, q = p[primitive], q[primitive]
        # the pairs are primitive and normalized already: skip Slope.__new__
        pairs = zip(p.tolist(), q.tolist())
        self.slopes = [Slope(1, 0), *map(tuple.__new__, repeat(Slope), pairs)]
        self.index = dict(zip(self.slopes, range(len(self.slopes))))
        self._build_csr(p, q)

    def _build_csr(self, p: np.ndarray, q: np.ndarray) -> None:
        """CSR adjacency of the box; ``p/q`` are the finite slopes in order."""
        limit, n = self.limit, len(p) + 1
        # position[q, p + limit] is the vertex index of p/q, -1 off the box
        position = np.full((limit + 1, 2 * limit + 1), -1, dtype=np.int64)
        position[0, 1 + limit] = 0
        child = np.arange(1, n, dtype=np.int64)
        position[q, p + limit] = child
        # p^-1 mod 1 is 0; b = 1 turns the parent formula below into
        # (p-1)/1 and 1/0 for integers
        b = _inverse_mod(p, q)
        b[b == 0] = 1
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

    def bfs(self, source: Slope) -> np.ndarray:
        """Distances from ``source`` to every vertex of the box (-1 if unreached)."""
        src = self.index.get(source)
        if src is None:
            raise DomainError(f"slope {source} outside box of size {self.limit}")
        indptr, indices = self.indptr, self.indices
        dist = np.full(len(self.slopes), -1, dtype=np.int64)
        dist[src] = 0
        frontier = np.array([src])
        level = 0
        while True:
            # the CSR entries of the frontier's rows: entry k of the
            # concatenation sits at starts[row] + k - (ends[row] - counts[row])
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            ends = np.cumsum(counts)
            entries = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
            nbrs = indices[entries]
            nbrs = nbrs[dist[nbrs] < 0]
            if nbrs.size == 0:
                return dist
            level += 1
            dist[nbrs] = level
            frontier = np.flatnonzero(dist == level)

    def distance(self, s: Slope, t: Slope) -> int:
        dst = self.index.get(t)
        if dst is None:
            raise DomainError(f"slope {t} outside box of size {self.limit}")
        d = int(self.bfs(s)[dst])
        if d < 0:
            raise DomainError("target unreachable within the box")
        return d


def _inverse_mod(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^-1 mod m elementwise, in [0, m), for coprime a and m >= 1.

    Extended Euclid on all pairs at once: each round divides the live
    remainders and drops the pairs whose remainder reached 0, so the number
    of rounds is the longest Euclid chain, O(log max m).
    """
    out = np.empty_like(m)
    live = np.arange(len(m))
    r0, r1 = m, a % m
    t0, t1 = np.zeros_like(m), np.ones_like(m)
    while live.size:
        done = r1 == 0
        out[live[done]] = t0[done]
        keep = ~done
        live, r0, r1, t0, t1 = live[keep], r0[keep], r1[keep], t0[keep], t1[keep]
        quot = r0 // r1
        r0, r1 = r1, r0 - quot * r1
        t0, t1 = t1, t0 - quot * t1
    return out % m
