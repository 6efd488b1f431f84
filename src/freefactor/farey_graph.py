"""The Farey graph on a truncated box, as numpy arrays: the
breadth-first-search oracle that checks ``farey.farey_distance``.

Its V vertices and their edges are built in O(V) from Farey parents (two
per slope, from p^-1 mod q, computed for all slopes at once by a
vectorised extended Euclid) and kept twice: as CSR rows and as a (2, V)
table of each slope's parents.  The BFS is direction-optimizing (Beamer,
Asanovic and Patterson, "Direction-Optimizing Breadth-First Search", SC
2012): a level with a small frontier gathers the frontier's CSR rows, and
a level whose frontier holds at least V // 16 vertices reads the parent
table instead, 2V slots, whatever the number of edges it crosses.  This is
the package's only numpy module; it is imported on the first read of
``farey.FareyGraph`` or ``freefactor.FareyGraph``.
"""

from __future__ import annotations

import operator
from itertools import repeat

import numpy as np

from .errors import DomainError
from .farey import Slope


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
    of one denominator q >= 2 are adjacent, so every edge is exactly one
    (child, parent) pair: it is found once, from its endpoint of larger
    denominator (or larger integer).  ``parents[:, c]`` holds the two
    parents of vertex c, int64; a vertex short of one lists itself in the
    empty slot: 1/0 in both, and -limit/1, whose parent (-limit-1)/1 is off
    the box, in the first.  The build runs one extended Euclid over all V
    vertices at once (O(log limit) numpy rounds) for the inverses, and one
    in-place sort of the int64 edge codes src * V + dst for the CSR rows
    (``indptr``, ``indices``).

    ``bfs`` is direction-optimizing.  A level whose frontier has fewer than
    V // 16 vertices pushes: it gathers the CSR rows of the frontier.  A
    larger one pulls, as the union of two sweeps over the parent table:
    the frontier's children, the vertices with a parent slot on the
    frontier, and the frontier's parents, ``parents[:, frontier]``, both
    less the visited vertices.  Every edge is one child-parent pair, so a
    neighbor of a frontier vertex is its child or its parent, and the two
    sweeps reach exactly the frontier's unvisited neighbors (a self slot
    points at the vertex itself, which is visited).  A pull level reads 2V
    parent slots and 2|frontier| parents, where a push reads every CSR
    entry of the frontier and scans V for the next frontier.

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
        """Farey parents and CSR adjacency of the box; ``p/q`` are the
        finite slopes in order."""
        limit, n = self.limit, len(p) + 1
        # position[q, p + limit] is the vertex index of p/q, -1 off the box
        position = np.full((limit + 1, 2 * limit + 1), -1, dtype=np.int64)
        position[0, 1 + limit] = 0
        position[q, p + limit] = np.arange(1, n)
        # p^-1 mod 1 is 0; b = 1 turns the parent formula below into
        # (p-1)/1 and 1/0 for integers
        b = _inverse_mod(p, q)
        b[b == 0] = 1
        a = (p * b - 1) // q
        inside = np.abs(a) <= limit  # only (-limit-1)/1 falls off the box
        # a vertex short of a parent (1/0 of both, -limit/1 of its first)
        # lists itself in that slot
        own = np.arange(n, dtype=np.int64)
        parents = np.stack((own, own))
        parents[0, 1:][inside] = position[b[inside], a[inside] + limit]
        parents[1, 1:] = position[q - b, p - a + limit]
        self.parents = parents
        # every edge is one (child, parent) slot that is not a self slot
        real = parents != own
        u, v = real.nonzero()[1], parents[real]
        src = np.concatenate((u, v))
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        # the edge codes src * n + dst, sorted in place, list each row's
        # targets in order, row after row
        codes = src  # src is read no more: reuse its buffer
        codes *= n
        codes += np.concatenate((v, u))
        codes.sort()
        codes %= n
        self.indices = codes

    def bfs(self, source: Slope) -> np.ndarray:
        """Distances from ``source`` to every vertex of the box (-1 if
        unreached), by push and pull levels (see the class docstring)."""
        src = self.index.get(source)
        if src is None:
            raise DomainError(f"slope {source} outside box of size {self.limit}")
        indptr, indices, parents = self.indptr, self.indices, self.parents
        n = parents.shape[1]
        dist = np.full(n, -1, dtype=np.int64)
        dist[src] = 0
        frontier = np.array([src])
        on = dist == 0  # the frontier as a mask
        level = 0
        while True:
            level += 1
            if frontier.size < n >> 4:
                # push: the CSR entries of the frontier's rows; entry k of
                # the concatenation sits at starts[row] + k - (ends[row] - counts[row])
                starts = indptr[frontier]
                counts = indptr[frontier + 1] - starts
                ends = np.cumsum(counts)
                entries = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
                nbrs = indices[entries]
                nbrs = nbrs[dist[nbrs] < 0]
                if nbrs.size == 0:
                    return dist
                dist[nbrs] = level
                on = dist == level
                frontier = np.flatnonzero(on)
            else:
                # pull: the frontier's children (a parent slot is on) and
                # the frontier's parents, less what is visited
                on = on[parents[0]] | on[parents[1]]
                on[parents.take(frontier, axis=1)] = True
                on &= dist < 0
                frontier = np.flatnonzero(on)
                if frontier.size == 0:
                    return dist
                dist[frontier] = level

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
