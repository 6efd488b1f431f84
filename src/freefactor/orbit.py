"""The orbit grid psi^r ad_b^k(<x>) in rank 2, and the two experiments
that read it, quasiflat and twist-stability.

psi is a ``BoundaryAutomorphism``: a pseudo-Anosov of the one-holed torus
fixing the boundary word b = xyXY, given by its generator images and
certified when it is built.  The grid is a function of the psi and b it
is given (``_grid_values``); only the two experiments build psi, each once
per run, with ``build_boundary_pA``.  ``experiments.EXPERIMENTS`` is the
one registry, and imports the two experiments from here.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Callable, Iterator

from .errors import DomainError, InternalContradictionError
from .factors import is_basis_pair
from .farey import Slope, exponent_sums, farey_distance
from .report import ExperimentReport, _OrbitTrials
from .words import (
    Word,
    _Frozen,
    _apply_table,
    _b_exponent,
    _peel,
    _times,
    ad,
    boundary_word,
    format_word,
    parse_word,
)


# ---------------------------------------------------------------------------
# boundary-fixing automorphism of the one-holed torus


class BoundaryAutomorphism(_Frozen):
    """A rank-2 automorphism psi fixing the boundary word b = xyXY, given by
    the images of x and y under psi and under psi^-1.  The constructor
    checks, in order, and raises InternalContradictionError at the first
    that fails, so the report states them as constants:

    - psi(b) = b, letter for letter;
    - its homology matrix M (columns the exponent sums of psi(x), psi(y))
      has det M = +-1 and |trace M| > 2, which certifies a pseudo-Anosov
      (the one-holed torus criterion; Casson-Bleiler, 1988);
    - psi^-1 sends psi(x) back to x and psi(y) back to y;
    - psi and psi^-1 are each a positive substitution on {x, y} or on
      {x, Y}, so no power cancels on a word over it (``_orbit_ends``).

    ``table`` and ``inverse_table``, the letter images of psi and of
    psi^-1 laid out as ``WhAutomorphism.table`` (indexed by signed letter,
    so -2 reads the image of Y), and ``homology`` are built from the
    images once; equality, hashing, repr and pickling ignore them.
    """

    _fields = ("x_image", "y_image", "inverse_x_image", "inverse_y_image")

    def __post_init__(self):
        images = (self.x_image, self.y_image)
        inverse_images = (self.inverse_x_image, self.inverse_y_image)
        if not all(type(w) is Word and w.rank == 2 for w in images + inverse_images):
            raise DomainError("a boundary automorphism needs four words of rank 2")
        # the images of x, y, Y, X at indices 1, 2, -2, -1
        table, inverse_table = (
            ((), u.letters, v.letters, v.inverse().letters, u.inverse().letters)
            for u, v in (images, inverse_images)
        )
        b = boundary_word(2).letters
        if _apply_table(table, b) != b:
            raise InternalContradictionError("the automorphism does not fix the boundary")
        # the columns of the homology matrix are the images' exponent sums
        (p, s), (q, t) = map(exponent_sums, images)
        if abs(p * t - q * s) != 1:
            raise InternalContradictionError("homology action is not invertible")
        if abs(p + t) <= 2:
            raise InternalContradictionError(
                f"homology trace {p + t} does not certify a pseudo-Anosov"
            )
        for gen, image in enumerate(images, 1):
            if _apply_table(inverse_table, image.letters) != (gen,):
                raise InternalContradictionError(
                    f"the inverse does not send {image} back to {Word((gen,), 2)}"
                )
        for images_of in (table, inverse_table):
            if not any(
                all(set(images_of[a]) <= set(alphabet) for a in alphabet)
                for alphabet in ((1, 2), (1, -2))
            ):
                raise InternalContradictionError(
                    "the automorphism or its inverse is a positive substitution "
                    "on neither {x, y} nor {x, Y}"
                )
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "inverse_table", inverse_table)
        object.__setattr__(self, "homology", ((p, q), (s, t)))

    def to_json_dict(self) -> dict:
        return {
            "x_image": format_word(self.x_image),
            "y_image": format_word(self.y_image),
            "fixes_boundary": True,
            "homology": [list(row) for row in self.homology],
            "trace": self.homology[0][0] + self.homology[1][1],
            "is_pseudo_anosov": True,
        }


def build_boundary_pA() -> BoundaryAutomorphism:
    """psi: x -> xy, y -> yxy, with psi^-1: x -> xxY, y -> yX.  It fixes
    xyXY, has homology [[1,1],[1,2]] of trace 3, and is positive on {x, y},
    psi^-1 on {x, Y}; the constructor checks each."""
    images = ("xy", "yxy", "xxY", "yX")
    return BoundaryAutomorphism(*(parse_word(text, 2) for text in images))


# ---------------------------------------------------------------------------
# the two-parameter orbit grid


# the |k| by which every grid row must meet a step premise (``_grid_row``);
# every row of build_boundary_pA's psi does
_DEPTH = 2


def _grid_values(
    psi: BoundaryAutomorphism, b: Word, radius_k: int
) -> tuple[Callable[[int], tuple[int, ...]], int]:
    """The orbit grid psi^r ad_b^k(<x>) over all of Z^2, for b the
    boundary word xyXY that psi fixes: ``row_of``, the function r -> the
    factor invariants at k = -radius_k..radius_k, for every integer r; and
    the number of distinct end-window keys of psi's side, which is the
    first r >= 0 whose key repeats an earlier one.

    Certificate, checked when psi is built: psi and psi^-1 are positive
    substitutions (``BoundaryAutomorphism``), so w = psi^r(x) is reduced
    and cyclically reduced for every integer r, and its ends iterate on
    windows of psi's tables (``_orbit_ends``) without building w.

    The two-sided cycle.  Row r depends only on the key (head, tail) of
    its word, psi^r(x) on psi's side r >= 0 and psi^-|r|(x) on psi^-1's
    side r < 0: ``_grid_row`` reads nothing else.  Each side is walked
    once, to its first repeated key, and from there its keys cycle
    (``_orbit_ends``), so the key of any r is a list lookup, and every row
    of Z^2 is the row of one of the finitely many keys of the two walks.
    ``row_of`` evaluates a key's row the first time some r reads it, and
    rows with equal keys share one evaluation and one tuple (r = 0 is on
    both sides); psi^-1's side is walked when an r < 0 is first read.

    Each row is evaluated on windows only at |k| <= _DEPTH, and beyond
    that by the b-conjugation step (``_grid_row``).  A window evaluation
    never guesses: ``_cyclic_value_from_ends`` returns the exact value and
    end letters or raises.  The windows hold (2 _DEPTH + 1)|b| = 20
    letters at every radius, and depth 2 decides every row of
    build_boundary_pA's psi; a row whose step premise still fails there
    raises.  ``_pair_rows``
    merges equal rows by value.
    """
    bl, binv = b.letters, b.inverse().letters
    window = (2 * _DEPTH + 1) * len(bl)
    cycles = {1: _orbit_ends(psi.table, window)}
    rows = {}

    def row_of(r: int) -> tuple[int, ...]:
        side = -1 if r < 0 else 1
        if side not in cycles:
            cycles[side] = _orbit_ends(psi.inverse_table, window)
        keys, repeat = cycles[side]
        i = abs(r)
        if i >= len(keys):
            i = repeat + (i - repeat) % (len(keys) - repeat)
        key = keys[i]
        if key not in rows:
            rows[key] = _grid_row(*key, radius_k, bl, binv)
        return rows[key]

    return row_of, len(cycles[1][0])


def _orbit_ends(table, window: int) -> tuple[list[tuple], int]:
    """The cycle of end-window keys of sigma^r(x), r = 0, 1, ..., for the
    positive substitution sigma with letter images ``table`` (indexed by
    signed letter, as ``BoundaryAutomorphism.table``): the distinct keys
    in walk order, and the index that the first repeated key returns to.

    The key of a word w is (head, tail).  If w is longer than 2 * window,
    head and tail are its first and last window letters; otherwise head is
    all of w and tail is empty.  No image is empty and nothing cancels, so
    the ends of sigma(w) are those of sigma applied to the ends of w, and
    the key of sigma(w) is a function of the key of w: a word of at most
    2 * window letters is its head, and once longer, the images of its
    window-letter ends hold at least window letters each and its image is
    longer still, so its tail stays nonempty.  So from the first repeated
    key on, the keys cycle, and with n keys returning to j, the key of
    sigma^r(x) is the key at r for r < n and at j + (r - j) mod (n - j)
    for every r >= n.
    """
    head, tail = (1,), ()
    keys = []
    while (key := (head, tail)) not in keys:
        keys.append(key)
        head, tail = (
            tuple(itertools.chain.from_iterable(map(table.__getitem__, seq)))
            for seq in (head, tail)
        )
        if tail or len(head) > 2 * window:
            head, tail = head[:window], (tail or head)[-window:]
    return keys, keys.index(key)


def _grid_row(head, tail, radius_k, bl, binv) -> tuple[int, ...]:
    """The values at k = -radius_k..radius_k of the grid row whose
    psi^r(x) = w has ends (head, tail).  Raise InternalContradictionError
    if a side meets no step premise by |k| = _DEPTH < radius_k.

    Step lemma.  Let g_k be the reduced form of b^k w b^-k, g_k = u c u^-1
    with u its longest conjugator (``_peel``), and value(k) its balanced
    b-exponent, which ``words._b_exponent`` reads off u: K if u starts with
    K >= 1 whole b blocks, else minus its whole b^-1 blocks.  Premise at
    k: b[-1] != g_k[0]^-1 and g_k[-1] != b[-1].  Then:

    - b g_k b^-1 is reduced letter for letter: the first junction pairs
      b[-1] with g_k[0], the second g_k[-1] with b^-1[0] = b[-1]^-1.  It
      equals b^(k+1) w b^-(k+1), so it is g_(k+1).
    - Its first |b| letters are b and its last |b| are b^-1, which peel
      off each other; what remains is g_k, so ``_peel`` grows by exactly
      |b| and u_(k+1) = b u_k.
    - value(k) >= 0: a negative value needs u_k to start with a whole b^-1
      block, so g_k[0] = b^-1[0] = b[-1]^-1, which the premise excludes.
    - value(k+1) = value(k) + 1: if u_k starts with K >= 1 b blocks,
      b u_k starts with K + 1; if value(k) = 0, u_k starts with no whole
      b block (or is shorter than b), and b u_k starts with exactly one.
    - g_(k+1) starts with b[0] and ends with b[0]^-1, and b[-1] != b[0]^-1
      because b is cyclically reduced, so the premise holds at k + 1 and,
      by induction, at every larger k.

    The mirror statement, with b^-1 for b (premise b^-1[-1] != g_k[0]^-1
    and g_k[-1] != b^-1[-1]), gives u_(k-1) = b^-1 u_k.  Its premise says
    g_k does not start with b[0], so value(k) <= 0, and b^-1 u_k starts
    with no b block and with one more b^-1 block than u_k:
    value(k-1) = value(k) - 1.

    So k = 0 is evaluated on windows once, each side from there outwards
    until the premise holds, and every later value is one addition.  The
    two sides share the value and end letters at k = 0 and differ only in
    the premise they test.  A side whose premise fails at every |k| <=
    _DEPTH is whole only if radius_k <= _DEPTH (every value a window
    evaluation), and raises otherwise.  The premise is read off the end
    letters that the window evaluation returns, which are exact, so no
    value is extrapolated without it.
    """
    at_zero = _cyclic_value_from_ends(head, tail, (), (), bl, binv)
    row = {0: at_zero[0]}
    for block, inverse, sign in ((bl, binv, 1), (binv, bl, -1)):
        value, first, last = at_zero
        j = 0
        while (first == -block[-1] or last == block[-1]) and j < radius_k:
            j += 1
            if j > _DEPTH:
                raise InternalContradictionError(
                    f"no b-conjugation step by |k| = {_DEPTH}: the grid row "
                    "cannot be extended without more window evaluations"
                )
            value, first, last = _cyclic_value_from_ends(
                head, tail, block * j, inverse * j, bl, binv
            )
            row[sign * j] = value
        for j in range(j + 1, radius_k + 1):
            value += sign
            row[sign * j] = value
    return tuple(row[k] for k in range(-radius_k, radius_k + 1))


def _cyclic_value_from_ends(head, tail, bk, bk_inv, bl, binv) -> tuple[int, int, int]:
    """The invariant of <b^k w b^-k> read off the key (head, tail) of a
    reduced w (``_orbit_ends``; tail is empty when head is all of w): the
    value of ``factors._cyclic_value``, ``_b_exponent`` of the peeled
    window letters after junction cancellation, with no Word built; then
    the first and the last letter of the reduced b^k w b^-k.
    Raise InternalContradictionError rather than guess if the peel
    reaches a window edge (as it does when a junction eats a whole window:
    the b^k and b^-k left on the two sides peel off each other), or if the
    conjugator is empty and the core may be a b-power (its first |b|
    letters, repeated if it is shorter, unknown or b^+-1).
    """
    left, right = _times(bk, head), _times(tail, bk_inv)
    g = left + right if tail else _times(left, right)
    i, m = _peel(g), len(bl)
    if tail and i >= min(len(left), len(right)) or not i and (
        tail and len(left) < m or (g * m)[:m] in (bl, binv)
    ):
        raise InternalContradictionError(
            f"the {len(head)}-letter ends of a word cannot decide a grid value"
        )
    return _b_exponent(g, i, bl, binv)[0], g[0], g[-1]


# The factor-graph path <x> -> <b x b^-1> in rank 2, b the boundary word;
# quasiflat verifies it, and the edge <x> -> <psi(x)>, on every run.
_AD_PATH = ("x", "YX", "xyXYXYX", "xyXYxyxYX")


def _check_path(path: tuple[str, ...], start: Word, end: Word) -> None:
    """Raise InternalContradictionError unless path runs from start to end
    through basis pairs, that is along edges of the free factor graph."""
    words = [parse_word(text, 2) for text in path]
    if words[0] != start or words[-1] != end:
        raise InternalContradictionError(
            f"path {' '.join(path)} does not join {start} to {end}"
        )
    for u, v in zip(words, words[1:]):
        if not is_basis_pair(u, v):
            raise InternalContradictionError(
                f"{u} and {v} on path {' '.join(path)} are not a basis pair"
            )


def _pair_rows(grid: list[tuple[int, ...]], dstep: list[int]) -> Iterator[list[int]]:
    """The grid pairs by class (m, l), one m at a time: for m = 1 .. 2n - 2,
    a row of one common length whose entry l counts the pairs at m with
    lower bound l.

    ``grid[i][j]`` is the value at r = i - R, k = j - R.  A pair with row
    offset dr, column offset dk and values v1, v2 has m = dr + |dk| and the
    certified lower bound l = max(ceil(|v1 - v2| / 2), dstep[dr]), where
    dstep[0] = 0.  Equal rows give equal pairs, so each distinct row is a
    kind: the column pairs of each ordered pair of kinds are tallied once
    by |dk| (``_column_pairs``) and their row pairs counted once per dr,
    and row m adds, over dr <= m, the tallies at |dk| = m - dr times their
    row pairs; a row with itself (dr = 0) tallies each pair twice, an even
    count halved exactly.  With T distinct rows of n values the tallies
    cost O(T^2 n^2), and the rows n^2 T^2 tallies of at most
    ceil(span / 2) + 1 entries, span the largest value difference, all
    exact in Python ints for any grid.  The orbit grid has T = 2 (its rows
    r >= 0 are equal, and so are its rows r < 0) and tallies of O(1)
    entries at each |dk|, so it costs O(R^2) and holds O(R) counts.
    """
    n = len(grid)
    kinds: dict[tuple[int, ...], int] = {}
    kind = [kinds.setdefault(row, len(kinds)) for row in grid]
    rows, t = list(kinds), len(kinds)
    span = max(map(max, rows)) - min(map(min, rows))
    width = max((span + 1) // 2, max(dstep)) + 1
    scaled = [a * t for a in kind]  # row pair of kinds (a, b) as a * T + b
    by_dr = [Counter(map(operator.add, scaled, kind[dr:])) for dr in range(n)]
    kind_pairs = []
    for pair in set().union(*by_dr):
        per_dr = [c[pair] for c in by_dr]
        while not per_dr[-1]:  # no such row pairs this far apart
            per_dr.pop()
        kind_pairs.append((_column_pairs(rows[pair // t], rows[pair % t], span), per_dr))
    for m in range(1, 2 * n - 1):
        row = [0] * width
        lo = max(1, m - n + 1)
        floors = dstep[lo:]
        for tally, per_dr in kind_pairs:
            for half, found in tally[m] if m < n else ():  # dr = 0
                row[half] += per_dr[0] * found // 2
            # dr from lo up, until |dk| = m - dr < 0 or per_dr ends
            for floor, count, group in zip(floors, per_dr[lo:], tally[m - lo :: -1]):
                for half, found in group:
                    row[half if half > floor else floor] += count * found
        yield row


def _column_pairs(
    left: tuple[int, ...], right: tuple[int, ...], span: int
) -> list[list[tuple[int, int]]]:
    """The (ceil(|v1 - v2| / 2), count) tallies of the column pairs
    v1 = left[j], v2 = right[j + dk], listed by |dk|.

    Column j and value v are coded as j * scale + v.  The difference of two
    codes is dk * scale + dv with |dv| <= span < scale / 2, and its absolute
    value is |dk| * scale + dv', |dv'| = |dv|; so one C loop over the
    product of the codes counts every pair at once.
    """
    scale = 2 * span + 1
    found: list[dict[int, int]] = [{} for _ in left]
    for code, count in Counter(map(abs, itertools.starmap(operator.sub, itertools.product(
        [j * scale + v for j, v in enumerate(right)],
        [j * scale + v for j, v in enumerate(left)],
    )))).items():
        dk, dv = divmod(code + span, scale)
        tally, half = found[dk], (abs(dv - span) + 1) // 2
        tally[half] = tally.get(half, 0) + count
    return [list(tally.items()) for tally in found]


def _homology_orbit(matrix, radius: int) -> dict[int, tuple[int, int]]:
    """The exponent sums of psi^r(x) at r = -radius..radius, for psi with
    homology ``matrix`` M (columns the exponent sums of psi(x) and
    psi(y)): abelianisation is a homomorphism, so they are M^r (1, 0).
    ``BoundaryAutomorphism`` checks det M = +-1, so M^-1 is the integer
    matrix det M times the adjugate of M.
    """
    (p, q), (s, t) = matrix
    det = p * t - q * s
    sums = {0: (1, 0)}
    for r in range(1, radius + 1):
        u, v = sums[r - 1]
        sums[r] = p * u + q * v, s * u + t * v
        u, v = sums[1 - r]
        sums[-r] = det * (t * u - q * v), det * (p * v - s * u)
    return sums


class _QuasiflatTrials(_OrbitTrials):
    """Rows (r, slope string, values at k = -R..R) of the quasiflat grid."""

    _keys, _fixed = ("r", "k", "value", "slope"), frozenset({"r", "slope"})

    def _row_fields(self, row) -> dict:
        r, slope, values = row
        radius = self.width // 2
        return {"r": r, "k": range(-radius, radius + 1), "value": values, "slope": slope}


class _TwistTrials(_OrbitTrials):
    """Rows (k, values at r = 0..R) of twist-stability, its trials by k."""

    _keys, _fixed = ("r", "k", "value", "displacement"), frozenset({"k"})

    def _row_fields(self, row) -> dict:
        k, column = row
        shifts = [abs(value - column[0]) for value in column]
        return {"r": range(self.width), "k": k, "value": column, "displacement": shifts}


def exp_quasiflat(radius: int = 8) -> ExperimentReport:
    """Distance bounds over the orbit grid psi^r ad_b^k(<x>), with a linear fit.

    The lower bound on the graph distance between two grid vertices is
    max(ceil(|delta invariant| / 2), Farey distance of the projected
    slopes); both maps are distance-decreasing, so the bound is certified.
    psi acts on slopes by its homology matrix, a Farey-graph isometry, so
    the 2R + 1 distances from the slope of psi^-R(x) give every pair.  The
    upper bound is (|dr| + |dk|) * c0, where c0 is the length of the longer
    of two factor-graph paths, the edge <x> -> <psi(x)> read off psi and a
    fixed path <x> -> <b x b^-1>, each verified edge by edge on every run.

    The pairs are counted by class (m, l), m = |dr| + |dk| and l the lower
    bound (``_pair_rows``).  From the class counts come, exactly: the
    least-squares line lower ~ c * m - C0 from the integer moments of the
    pairs, the constant C that makes lower >= c * m - C hold for every
    pair, and the lower envelope min l over the pairs at each m = 1..4R,
    the best constants of the certified lower bound.  The fractions are
    reported as correctly rounded floats.

    The values come from ``_grid_values``: a few end windows per row and
    the b-conjugation step, with psi^r(x) never built.  Its two-sided
    cycle certificate says that every row of Z^2, not only the window's,
    is one of the rows it evaluates.  The slopes come from powers of psi's
    homology matrix (``_homology_orbit``).
    """
    R = radius
    psi, b = build_boundary_pA(), boundary_word(2)
    row_of, _ = _grid_values(psi, b, R)
    x = Word((1,), 2)
    psi_path = ("x", format_word(psi.x_image))
    _check_path(psi_path, x, psi.x_image)
    _check_path(_AD_PATH, x, ad(b, x))
    c0 = max(len(psi_path), len(_AD_PATH)) - 1
    sums = _homology_orbit(psi.homology, R)
    axis = range(-R, R + 1)
    slopes = [Slope(*sums[r]) for r in axis]
    grid = [row_of(r) for r in axis]
    report = ExperimentReport(
        "quasiflat",
        {"rank": 2, "b": format_word(b), "grid_radius": R},
        _QuasiflatTrials(list(zip(axis, map(str, slopes), grid)), 2 * R + 1),
    )
    # GL_2(Z) acts on the Farey graph by isometries, so the slopes at r1 and
    # r2 lie dstep[|r1 - r2|] apart.
    dstep = [farey_distance(slopes[0], s) for s in slopes]
    # One pass over the rows m = 1..4R as they come: exact moments in Python
    # ints, since at R = 64 the products below overflow int64, the pairs above
    # the path-witnessed upper bound c0 * m, which certified lower bounds can
    # never exceed, and the least l at each m, the row's first nonzero class.
    n = sum_m = sum_mm = sum_l = sum_ml = above_upper = 0
    envelope = []
    for m, row in enumerate(_pair_rows(grid, dstep), 1):
        count = sum(row)
        weighted = sum(map(operator.mul, row, itertools.count()))
        n += count
        sum_m += count * m
        sum_mm += count * m * m
        sum_l += weighted
        sum_ml += weighted * m
        above_upper += sum(row[c0 * m + 1 :])
        envelope.append(row.index(next(filter(None, row))))
    # the normal equations: c = num / den and intercept = num_0 / den, den > 0
    # because m takes at least the values 1 and 2
    den = n * sum_mm - sum_m * sum_m
    num = n * sum_ml - sum_m * sum_l
    num_0 = sum_mm * sum_l - sum_m * sum_ml
    # cover = the largest den * (c * m - l) over the pairs (at least 0) / den;
    # at each m it is largest at the least l
    cover = max(0, max(num * m - den * l for m, l in enumerate(envelope, 1)))
    pure_psi = dstep[1 : R + 1]
    strictly_increasing = all(
        pure_psi[i] < pure_psi[i + 1] for i in range(len(pure_psi) - 1)
    )
    report.violations = (num <= 0) + (not strictly_increasing) + above_upper
    report.summary = {
        "fit_slope": num / den,
        "fit_intercept": num_0 / den,
        "cover_constant": cover / den,
        "lower_envelope": envelope,
        "pairs": n,
        "pairs_above_upper_bound": above_upper,
        "pure_psi_distances": pure_psi,
        "pure_psi_strictly_increasing": strictly_increasing,
        "upper_bound_unit": c0,
        "psi_path": list(psi_path),
        "ad_path": list(_AD_PATH),
        "boundary_automorphism": psi.to_json_dict(),
    }
    return report


def exp_twist_stability(radius: int = 8) -> ExperimentReport:
    """Displacement of the invariant under psi powers at fixed conjugation
    depth, and its exact supremum over the whole half-plane.

    The trials list |value(r, k) - value(0, k)| for r in [0, radius] and
    k in [-radius, radius], with values from ``_grid_values``.  The
    summary holds sup_displacement, the supremum of that displacement
    over every r >= 0 and every integer k, and rows_repeat_from, the first
    r whose end-window key repeats an earlier one.  The certificate:

    - By the two-sided cycle of ``_grid_values``, every row of Z^2 is the
      row of one of the distinct keys of the two sides' walks, and the
      half-plane r >= 0 needs psi's side only.  Walked once to its first
      repeated key, that side has rows_repeat_from distinct keys, so the
      rows r < rows_repeat_from are all the rows of the half-plane.
    - By the step lemma, which ``_grid_row`` proves and checks by |k| =
      _DEPTH (every row here reaches |k| = _DEPTH + 1, so a failed premise
      raises at every radius), each row has slope +-1 beyond |k| = _DEPTH:
      value(r, k + 1) = value(r, k) + 1 for k >= _DEPTH and value(r, k - 1)
      = value(r, k) - 1 for k <= -_DEPTH.  So the displacement is constant
      there, and its maximum over the distinct rows at |k| <= _DEPTH + 1
      is the supremum over the whole half-plane.

    The supremum is a finite maximum, so the report has no violations; a
    certificate that cannot be completed raises instead.  Every row comes
    from one ``_grid_values`` grid at |k| <= max(radius, _DEPTH + 1), and
    psi^-1's side is never walked.
    """
    R = radius
    width = max(R, _DEPTH + 1)
    b = boundary_word(2)
    row_of, distinct = _grid_values(build_boundary_pA(), b, width)
    values = [row_of(r) for r in range(R + 1)]
    columns = [(k, [row[k + width] for row in values]) for k in range(-R, R + 1)]
    report = ExperimentReport(
        "twist-stability",
        {"rank": 2, "b": format_word(b), "radius": R},
        _TwistTrials(columns, R + 1),
    )
    near = slice(width - _DEPTH - 1, width + _DEPTH + 2)
    at_zero = values[0][near]
    report.summary = {
        "sup_displacement": max(
            abs(v - v0) for r in range(distinct) for v, v0 in zip(row_of(r)[near], at_zero)
        ),
        "rows_repeat_from": distinct,
    }
    return report
