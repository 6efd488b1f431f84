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
one inverse.  The slot is one tuple, read once and replaced whole, so a
thread never sees half of it.

The fold is a min-plus product row . tail.  Euclid's loop evaluates the
row while the remaining fraction's denominator is at least 128; the tail
of a fraction below that is one byte of a fixed 16 KiB table, filled
entry by entry the first time a fold ends there and never emptied.  So
the state is that slot and that table, whatever the number of calls.
Filling lazily keeps the table's build out of start-up: importing the
package fills no entry, and an orbit-grid pass fills about a dozen.

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


# (sp, sq, a, b) with a * sp + b * sq = 1 (a, b = 1, 0 for sq = 0): the
# completion of the most recent first argument of farey_distance
_held = (1, 0, 1, 0)

# The tail (X, Y) of p/q for 0 <= p < q < 128 (see farey_distance): entry
# q << 7 | p holds X | Y << 4, and 0 means not filled yet (X is at least 1).
# Below 128, X and Y are at most 6, so each fits in 4 bits.  The edge 128 is
# written as a literal, which the hot loop reads faster than a global.
_tail = bytearray(128 * 128)


def _tail_entry(q: int, p: int) -> int:
    """Fill and return the tail entry of p/q, 0 <= p < q < 128.

    Walks the entry's own Euclid tail, filling each missing entry on the
    way: (X, Y) = (1, 0) at p = 0, else (min(1 + X', a + Y'), X') with
    a = q // p and (X', Y') the entry of (q mod p)/p.  The recursion is one
    level per partial quotient, at most 10 deep below 128.  Every entry
    is a function of (q, p) alone, so threads that fill one concurrently
    write the same byte, and a reader sees 0 or that byte: no lock.

    q = 0 has no tail: it raises ZeroDivisionError and stores nothing.  No
    fold of Python ints gets there (see ``farey_distance``).
    """
    if p:
        r = q % p
        e = _tail[p << 7 | r] or _tail_entry(p, r)
        x = e & 15
        e = min(1 + x, q // p + (e >> 4)) | x << 4
    elif q:
        e = 1
    else:
        raise ZeroDivisionError("the fraction 0/0 has no tail")
    _tail[q << 7 | p] = e
    return e


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
    (0, 1) . M(a_1) ... M(a_n) . (1, 0) with M(a) = [[1, a], [0, inf]].

    The product splits as row . tail.  Euclid's loop evaluates the row
    (0, 1) . M(a_1) ... M(a_{k-1}) left to right on (u, v), two integers
    of state and one step per partial quotient, while the remaining
    fraction p/q = [0; a_k, ..., a_n] has q >= 128.  Its tail
    T(p/q) = M(a_k) ... M(a_n) . (1, 0) is a column (X, Y), and the
    distance is min(u + X, v + Y).  The tail obeys

        T(0/q) = (1, 0),    T(p/q) = (min(1 + X', a + Y'), X'),

    with a = q // p and (X', Y') = T((q mod p)/p).  Proof: for p > 0,
    p/q = 1/(a + (q mod p)/p), so a_k = a and the remaining quotients are
    those of (q mod p)/p; T(p/q) = M(a) . T((q mod p)/p), and the min-plus
    product of M(a) with (X', Y') is (min(1 + X', a + Y'), min(X', inf)).
    For p = 0 no quotient is left and the product is (1, 0).  By induction
    X = D_k, the distance from 1/0 to p/q, and Y = D_{k+1}.

    Below q = 128 the tail is one byte of a fixed 16 KiB table
    (``_tail``), filled by ``_tail_entry`` on first use and kept.  It is
    not built ahead: the whole table costs a few milliseconds, which
    every process would pay at start-up, while an orbit-grid pass fills
    about a dozen entries.  Rows of box distances fill it fast: a row from
    1/0 over |p|, q <= 50 fills 774 entries, the first box row of a
    farey-oracle benchmark pass 2,389-2,965 and the whole pass about
    4,850 of the 8,128 (seeds 1-3).  A box row takes about 2 steps of the
    loop before its read.

    The distance is symmetric, and callers hold s while t varies, so the
    completion of s is kept in one module-level slot: a call whose s has
    the coordinates of the last one skips the modular inverse.

    s must be a primitive pair (1/0 may also be written (-1, 0)) and t a
    nonzero one, else DomainError.  Both checks sit where a held row does
    not pass (q = 0 and refilling the slot).  A non-primitive t is read as
    its reduced slope, and exactly: its common factor g scales p and q,
    which Euclid's loop divides out, ending at p = 0 with q = g.

    A coordinate that is not an integer is a DomainError too, at no cost
    to a held row: it fails an integer operation, or a cold exit (q = 0, a
    new first slope, p = 0) reads it through ``operator.index``.

    numpy integers are read as their values, with one limit.  Their floor
    division by zero returns 0 instead of raising, so Euclid's loop can
    run past p = 0 to q = 0, whose tail ``_tail_entry`` refuses; that cold
    exit folds both pairs again as Python ints.  But numpy products wrap
    past 2**63 where ints grow, so a numpy pair whose determinant or
    completion leaves int64 gives a wrong distance: pass Python ints or
    ``Slope``s there.
    """
    global _held
    # the try costs nothing until it catches (Python 3.11+), so a held row
    # pays no test for a TypeError or for the rare p = 0 below
    try:
        # indexing beats the field properties and unpacking a tuple subclass
        sp, sq = s[0], s[1]
        tp, tq = t[0], t[1]
        q = sp * tq - sq * tp
        if q == 0:  # primitive pairs with determinant 0 are the same slope
            if math.gcd(sp, sq) != 1 or not math.gcd(tp, tq):
                raise DomainError(
                    f"farey_distance needs a primitive first pair and a nonzero"
                    f" second one, got {s!r} and {t!r}"
                )
            return 0
        # the matrix [[a, b], [-sq, sp]] sends s to 1/0; read the slot once
        hp, hq, a, b = _held
        if hp != sp or hq != sq:
            # the Bezout pair a*sp + b*sq = 1, with a = sp^-1 mod sq from C
            # (0 for an integer, sq = 1); (1, 0) for 1/0, up to the sign of sp
            sp, sq = operator.index(sp), operator.index(sq)
            if sq:
                try:
                    a = pow(sp, -1, sq)
                except ValueError:
                    raise DomainError(f"first slope {s!r} is not primitive") from None
                b = (1 - a * sp) // sq
            elif sp == 1 or sp == -1:
                a, b = 1, 0
            else:
                raise DomainError(f"first slope {s!r} is not primitive")
            _held = sp, sq, a, b
        # x -> -x fixes 1/0, so the distance from 1/0 depends on |p/q| only
        if q < 0:
            q = -q
        p = (a * tp + b * tq) % q
        u, v = 0, 1
        try:
            while q >= 128:
                # min(u + 1, v) spelled out: calling min() makes the loop ~3x slower
                u, v = (u + 1 if u < v else v), u + q // p
                q, p = p, q % p
            e = _tail[q << 7 | p] or _tail_entry(q, p)
        except ZeroDivisionError:
            if not q:  # numpy ints ran on to q = 0: fold them as ints
                s, t = (tuple(map(operator.index, pair)) for pair in (s, t))
                return farey_distance(s, t)
            # p = 0 with q >= 128: t had the common factor q, and T(0/q) = (1, 0)
            operator.index(q)  # a float q divides by zero too
            e = 1
    except (TypeError, IndexError):
        raise DomainError(f"slopes must be integer pairs, got {s!r}, {t!r}") from None
    u += e & 15
    v += e >> 4
    return u if u < v else v


def __getattr__(name: str):
    # the numpy-backed oracle loads on first use, so that importing this
    # module (and the CLI) does not import numpy
    if name == "FareyGraph":
        from .farey_graph import FareyGraph

        return FareyGraph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
