"""Cayley-tree geometry: axes, orthogonal projections, and geometric indices.

Tree vertices are reduced words; no explicit tree is materialized.  The
axis of a cyclically reduced b passes through the identity vertex and
consists of the prefixes of the periodic rays b^inf and b^-inf, so all
geometry reduces to longest-common-prefix computations.  Points of the
axis are addressed by a signed integer position measured in letters from
the identity (positive in the b direction).

The geometric index of a under b reads off the minimal interval
[b^i, b^j] containing the projection of the axis of a onto the axis of b:
the index is i if i > 0, j if j < 0, and 0 otherwise.  When the axes
coincide (they share an end, as two powers of one word do), or a is the
identity, which fixes the whole tree, the projection is the whole axis
and the index is 0.  It always agrees with
the combinatorial exponent of words.b_reduced_decomposition.

Subgroups, and their minimal subtrees, are not modelled here: what the
experiments report about a free factor is read off its generators or its
folded core graph (factors.factor_invariant).
"""

from __future__ import annotations

from .errors import (
    AxesEqualError,
    DomainError,
    IdentityWordError,
    RankError,
)
from .words import Word, _Frozen, _require_axis_word, cyclic_reduce


class AxisInterval(_Frozen):
    """The interval [lo_position, hi_position] of the axis of ``on_axis_of``,
    with endpoints given as letter positions."""

    _fields = ("on_axis_of", "lo_position", "hi_position")

    def __post_init__(self):
        if self.lo_position > self.hi_position:
            raise DomainError("interval endpoints out of order")

    def power_hull(self) -> tuple[int, int]:
        """Minimal (i, j) with b^i <= interval <= b^j."""
        m = len(self.on_axis_of)
        return self.lo_position // m, -(-self.hi_position // m)


def _ray(block: tuple[int, ...], n: int) -> tuple[int, ...]:
    reps = -(-n // len(block))
    return (block * reps)[:n]


def _lcp(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    i = 0
    for x, y in zip(a, b):
        if x != y:
            break
        i += 1
    return i


def _end_projection_position(
    prefix: tuple[int, ...], period: tuple[int, ...], b: Word
) -> int:
    """Axis position of the projection of the boundary end prefix.period^inf.

    The ray from the identity to the end travels along the axis of b for as
    long as the infinite word agrees with b^inf (positive direction) or
    b^-inf (negative); the divergence vertex is the projection.  Agreement
    past |prefix| + |period| + |b| letters forces the periodic tails to
    coincide forever, i.e. a shared end and hence a shared axis.
    """
    bl = b.letters
    n = len(prefix) + len(period) + len(bl) + 2
    reps = -(-(n - len(prefix)) // len(period))
    xi = (prefix + period * reps)[:n]
    forward = _lcp(xi, _ray(bl, n))
    if forward >= n:
        raise AxesEqualError("the axes share an end")
    if forward > 0:
        return forward
    backward = _lcp(xi, _ray(tuple(-l for l in reversed(bl)), n))
    if backward >= n:
        raise AxesEqualError("the axes share an end")
    return -backward


def project_axis_to_axis(a: Word, b: Word) -> AxisInterval:
    """Minimal axis interval containing the projection of X_a onto X_b.

    When the axes intersect, the interval is exactly their overlap; when
    they are disjoint it is the single projection point.  The two boundary
    ends of X_a project to the interval's endpoints.
    """
    _require_axis_word(b)
    if a.rank != b.rank:
        raise RankError("a and b must have the same rank")
    if a.is_identity():
        raise IdentityWordError("a must be nontrivial")
    dec = cyclic_reduce(a)
    g = dec.conjugator.letters
    core = dec.core.letters
    t_fwd = _end_projection_position(g, core, b)
    t_bwd = _end_projection_position(
        g, tuple(-l for l in reversed(core)), b
    )
    return AxisInterval(b, min(t_fwd, t_bwd), max(t_fwd, t_bwd))


def geometric_index(a: Word, b: Word) -> int:
    """Index read from the projection of X_a onto X_b via the power hull.

    When X_a = X_b (``project_axis_to_axis`` raises AxesEqualError) the
    projection is the whole axis, whose power hull contains 0, so the
    index is 0.  The identity fixes the whole tree, so its projection is
    the whole axis too, and its index 0 (``project_axis_to_axis`` raises
    IdentityWordError for it once b and the ranks are checked).  Equals
    words.b_reduced_decomposition(a, b).k exactly.
    """
    try:
        i, j = project_axis_to_axis(a, b).power_hull()
    except (AxesEqualError, IdentityWordError):
        return 0
    if i > 0:
        return i
    if j < 0:
        return j
    return 0
