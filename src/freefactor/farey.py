"""The Farey graph: slopes, exact distances, and a breadth-first-search oracle.

Vertices are primitive integer pairs up to overall sign (slopes p/q,
including 1/0); an edge joins two slopes iff the determinant of the pair
is +-1.  Conjugacy classes of cyclic factors on primitive elements of the
rank-2 group correspond to slopes through abelianization, and basis pairs
map to edges, so this graph models the rank-2 factor graph up to inner
automorphisms.

The primary distance algorithm moves the first slope to 1/0 by a
unimodular matrix and folds a min-plus recurrence over the regular
continued fraction of the image of the second (Beardon-Hockman-Short,
"Geodesic continued fractions", 2012), one step per partial quotient,
O(log q).  The recurrence is exact: every neighbor of 1/0 is an integer,
and any geodesic from 1/0 to x must enter the interval of x through
floor(x) or ceil(x) (arcs of the Farey tessellation do not cross).  The
matrix comes from one modular inverse, a C call.  Callers hold the first
slope and sweep the second (a row of distances), so the module keeps the
completion of the most recent first slope in one slot and a row pays for
one inverse.  The slot is one tuple, read once and replaced whole: the
state is O(1), and a thread never sees half of it.

A slope is an immutable tuple subclass, so it hashes and compares in C
and equals the plain tuple (p, q).

An explicit breadth-first-search oracle over a truncated box,
``FareyGraph``, is provided for cross-checking.  It is the one part of the
package built on numpy, so it lives in ``farey_graph`` and is imported on
the first read of ``farey.FareyGraph`` (a module ``__getattr__``); the
distance itself needs no numpy.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

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


# (sp, sq, a, b) with a * sp + b * sq = 1: the completion of the most
# recent first argument of farey_distance that needed one (sq not 0 or 1)
_held = (1, 2, 1, 0)


def farey_distance(s: Slope, t: Slope) -> int:
    """Exact graph distance between two slopes.

    Completes s to a determinant-one matrix sending it to 1/0 and applies
    the matrix to t, giving p/q with q = det(s, t).  Then it translates
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

    The distance is symmetric, and callers hold s while t varies, so the
    completion of s is kept in one module-level slot: a call whose s has
    the coordinates of the last one skips the modular inverse.
    """
    global _held
    # indexing beats the field properties and unpacking a tuple subclass
    sp, sq = s[0], s[1]
    tp, tq = t[0], t[1]
    q = sp * tq - sq * tp
    if q == 0:  # primitive pairs with determinant 0 are the same slope
        return 0
    if sq == 0:  # s = 1/0 already
        p = tp
    elif sq == 1:  # x -> 1/(sp - x) sends sp to 1/0
        p = tq
    else:
        # the matrix [[a, b], [-sq, sp]] sends s to 1/0; read the slot once
        hp, hq, a, b = _held
        if hp != sp or hq != sq:
            # Bezout pair a*sp + b*sq = 1, with a = sp^-1 mod sq from C
            a = pow(sp, -1, sq)
            b = (1 - a * sp) // sq
            _held = sp, sq, a, b
        p = a * tp + b * tq
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


def __getattr__(name: str):
    # the numpy-backed oracle loads on first use, so that importing this
    # module (and the CLI) does not import numpy
    if name == "FareyGraph":
        from .farey_graph import FareyGraph

        return FareyGraph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
