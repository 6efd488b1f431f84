"""Named, reproducible experiments with machine-readable reports.

Every experiment is deterministic for a fixed seed: per-trial random
streams are derived from (seed, experiment name, trial index), so reports
serialize byte-for-byte identically across runs.  Violation counts tally
per-trial breaches of the stated bound; for bounds that are theorems, any
violation signals an implementation bug.  Factor invariants are exact,
so every such bound is checked at full strength.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import operator
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    InternalContradictionError,
    PreconditionError,
)
from .factors import (
    FreeFactorVertex,
    _check_filling_minimal,
    _cyclic_value_from_ends,
    af_adjacent,
    factor_invariant,
    is_basis_pair,
    random_free_factor,
)
from .farey import Slope, exponent_sums, farey_distance
from .whitehead import (
    WhAutomorphism,
    _random_multiplier_move,
    _signed_permutation_at,
    is_primitive,
    minimize_cyclic_length,
    classify,
    Classification,
)
from .words import (
    Word,
    _orbit_ends,
    _positive_substitution,
    ad,
    apply_automorphism,
    b_index,
    format_word,
    parse_word,
    random_word,
)

SCHEMA_VERSION = 5


def json_text(payload: dict) -> str:
    """The one JSON encoding of every report and ``--out`` document:
    sorted keys, two-space indent, a final newline.

    The bytes are those of ``json.dumps(payload, sort_keys=True,
    indent=2) + "\n"``, whose indent makes json fall back to its pure
    Python encoder.  A report's trial list, most of its bytes, is a list
    of flat dicts, which the C encoder writes instead (``_trials_text``)
    into the place of an empty list.  A top-level key is the only text
    that follows a newline and two spaces, so that place is found once.
    """
    trials = payload.get("trials") if type(payload) is dict else None
    if not _flat_dicts(trials):
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    text = json.dumps({**payload, "trials": []}, sort_keys=True, indent=2)
    before, after = text.split('\n  "trials": []')
    return "".join((before, '\n  "trials": ', *_trials_text(trials), after, "\n"))


# the exact types whose JSON text has no newline and no container
_SCALARS = frozenset({str, int, float, bool, type(None)})

# the newline and indent of a trial's members, and the C encoder with
# sorted keys and members separated by "," and that newline
_MEMBER = "\n      "
_encode_trials = json.JSONEncoder(sort_keys=True, separators=("," + _MEMBER, ": ")).encode


def _flat_dicts(o) -> bool:
    """Whether o is a nonempty list of nonempty dicts of scalars."""
    return (
        type(o) is list
        and bool(o)
        and {*map(type, o)} == {dict}
        and all(o)
        and _SCALARS.issuperset(map(type, itertools.chain.from_iterable(map(dict.values, o))))
    )


def _trials_text(trials) -> tuple[str, ...]:
    """The pieces of ``json.dumps(trials, sort_keys=True, indent=2)``,
    indented as a top-level value, for trials that ``_flat_dicts``
    accepts.

    With members separated by "," + their newline, the C encoder writes
    each dict as its indented text without its first and last line
    break.  Each "},<member newline>{" between two dicts is then moved to
    the list's indent; no encoded string holds a raw newline, so that
    text occurs nowhere else, and no dict is empty, so it never stands
    for an empty one.
    """
    inner = "\n    "
    body = _encode_trials(trials).replace(
        "}," + _MEMBER + "{", inner + "}," + inner + "{" + _MEMBER
    )[2:-2]
    return "[", inner, "{", _MEMBER, body, inner, "}", "\n  ]"


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    trials: list[dict] = field(default_factory=list)
    violations: int = 0
    summary: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "parameters": self.parameters,
            "violations": self.violations,
            "summary": self.summary,
            "trials": self.trials,
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    def write_csv(self, path) -> None:
        keys: list[str] = []
        for trial in self.trials:
            for key in trial:
                if key not in keys:
                    keys.append(key)
        with open(path, "w") as fh:
            fh.write(",".join(["trial"] + keys) + "\n")
            for i, trial in enumerate(self.trials):
                row = [str(i)] + [str(trial.get(k, "")) for k in keys]
                fh.write(",".join(row) + "\n")


def _rng(seed, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def boundary_word(rank: int) -> Word:
    """Surface boundary word for the given rank.

    Even rank: product of commutators [x1,x2][x3,x4]...; odd rank: the
    squares word x1^2 x2^2 ... (one-holed nonorientable surface).  These
    minimize to cyclic length 2*rank and fill; the suite certifies both.
    """
    letters: list[int] = []
    if rank % 2 == 0:
        for i in range(0, rank, 2):
            a, b = i + 1, i + 2
            letters += [a, b, -a, -b]
    else:
        for i in range(1, rank + 1):
            letters += [i, i]
    return Word(tuple(letters), rank)


def _random_edge_images(rng: random.Random, rank: int, b: Word) -> tuple[Word, ...]:
    """Images of the basis x_1..x_N under a random automorphism theta.

    theta mixes multiplier bursts with conjugations; conjugating by powers
    of b moves factors to varying depths, so the sampled edges exercise
    the invariant away from zero.  Each step phi is composed on the left,
    theta' = phi o theta, so theta'(x_i) = phi(theta(x_i)): a burst applies
    its moves to each image and a conjugation by w maps each image u to
    w u w^-1.  Reduced words are unique, so the images equal those of the
    equivalent chain of single-letter Whitehead moves letter for letter.
    Draws are retried while the images exceed 110 letters in total; after
    40 tries theta is the identity.
    """
    basis = tuple(Word((i,), rank) for i in range(1, rank + 1))
    for _ in range(40):
        images = basis
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.65:
                if roll < 0.45:
                    w = b ** rng.choice((-2, -1, 1, 2))
                else:
                    w = random_word(rng.randint(1, 3), rank, rng)
                images = tuple(u.conjugated_by(w) for u in images)
            else:
                burst = [
                    _random_multiplier_move(rng, rank) for _ in range(rng.randint(1, 2))
                ]
                images = tuple(apply_automorphism(burst, u) for u in images)
        if sum(map(len, images)) <= 110:
            return images
    return basis


# ---------------------------------------------------------------------------
# edge-difference bound


def exp_lipschitz(
    rank: int = 2,
    b: Word | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> ExperimentReport:
    """Differences of the factor invariant across factor-graph edges.

    Rank >= 3 samples nested pairs theta(<x_i>) < theta(<x_i, x_j>); rank 2
    samples basis pairs theta(x), theta(y).  The bound is 1 for rank >= 3
    and 2 for rank 2.  Every sampled pair must pass ``af_adjacent``; one
    that does not raises ``InternalContradictionError``.
    """
    b = boundary_word(rank) if b is None else b
    _check_filling_minimal(b)
    bound = 1 if rank >= 3 else 2
    report = ExperimentReport(
        "lipschitz",
        {
            "rank": rank,
            "b": format_word(b),
            "trials": trials,
            "seed": seed,
        },
    )
    max_delta = 0
    for i in range(trials):
        rng = _rng(seed, "lipschitz", i)
        images = _random_edge_images(rng, rank, b)
        if rank == 2:
            small, big = (1,), (2,)
        else:
            i1, i2 = rng.sample(range(1, rank + 1), 2)
            small = (min(i1, i2),)
            big = tuple(sorted((i1, i2)))
        fa, fb = (
            FreeFactorVertex(tuple(images[s - 1] for s in subset), rank)
            for subset in (small, big)
        )
        if not af_adjacent(fa, fb):
            raise InternalContradictionError(
                "the sampled factors are not adjacent in the free factor graph"
            )
        value_a = factor_invariant(fa, b).value
        value_b = factor_invariant(fb, b).value
        delta = abs(value_a - value_b)
        violation = delta > bound
        max_delta = max(max_delta, delta)
        report.violations += violation
        report.trials.append(
            {
                "a": "|".join(fa.describe()),
                "b_factor": "|".join(fb.describe()),
                "value_a": value_a,
                "value_b": value_b,
                "delta": delta,
                "violation": violation,
            }
        )
    report.summary = {"bound": bound, "max_delta": max_delta}
    return report


# ---------------------------------------------------------------------------
# junction survival under triple conjugation


def exp_cancellation(
    rank: int = 2,
    b: Word | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> ExperimentReport:
    """Letter retention in the reduction of b^3 * a * b^-3 for simple a.

    Samples conjugated generators of random proper free factors with
    balanced exponent 0, then checks that (i) the first and last |b|+1
    letters of the unreduced concatenation survive reduction and (ii) the
    reduced word has balanced exponent >= 1.
    """
    b = boundary_word(rank) if b is None else b
    _check_filling_minimal(b)
    report = ExperimentReport(
        "cancellation",
        {"rank": rank, "b": format_word(b), "trials": trials, "seed": seed},
    )
    binv = b.inverse()
    head = len(b) + 1
    for i in range(trials):
        rng = _rng(seed, "cancellation", i)
        a = None
        for _ in range(200):
            factor = random_free_factor(
                rank, rng.randint(1, rank - 1), rng.randint(0, 4), rng
            )
            gen = factor.generators[rng.randrange(len(factor.generators))]
            g = random_word(rng.randint(0, 8), rank, rng)
            cand = gen.conjugated_by(g)
            if not cand.is_identity() and b_index(cand, b) == 0:
                a = cand
                break
        if a is None:
            raise DomainError("could not sample a simple element with exponent 0")
        unreduced = b.letters * 3 + a.letters + binv.letters * 3
        w = ad(b, a, 3)
        retained = (
            w.letters[:head] == unreduced[:head]
            and w.letters[-head:] == unreduced[-head:]
        )
        k = b_index(w, b)
        violation = not (retained and k >= 1)
        report.violations += violation
        report.trials.append(
            {
                "a": format_word(a),
                "reduced_length": len(w),
                "unreduced_length": len(unreduced),
                "retained": retained,
                "index": k,
                "violation": violation,
            }
        )
    report.summary = {"checked_letters": head}
    return report


# ---------------------------------------------------------------------------
# zero fiber of the orbit exponent map


def exp_fzero_fiber(
    rank: int = 2,
    b: Word | None = None,
    a: Word | None = None,
    k_lo: int = -10,
    k_hi: int = 10,
) -> ExperimentReport:
    """The map k -> exponent of b^k a b^-k: small zero fiber, injective off it."""
    b = boundary_word(rank) if b is None else b
    _check_filling_minimal(b)
    a = Word((1,), rank) if a is None else a
    if not is_primitive(a):
        raise PreconditionError(f"a = {a} must be primitive")
    report = ExperimentReport(
        "zero-fiber",
        {
            "rank": rank,
            "b": format_word(b),
            "a": format_word(a),
            "k_lo": k_lo,
            "k_hi": k_hi,
        },
    )
    zero_fiber = []
    nonzero = []
    for k in range(k_lo, k_hi + 1):
        w = ad(b, a, k)
        f = b_index(w, b)
        (zero_fiber if f == 0 else nonzero).append((k, f))
        report.trials.append({"k": k, "index": f})
    fiber_ok = len(zero_fiber) <= 3
    injective = len({f for _, f in nonzero}) == len(nonzero)
    report.violations = (not fiber_ok) + (not injective)
    report.summary = {
        "zero_fiber": [k for k, _ in zero_fiber],
        "zero_fiber_size": len(zero_fiber),
        "injective_off_fiber": injective,
    }
    return report


# ---------------------------------------------------------------------------
# change of minimizing basis


def exp_basis_change(
    rank: int = 2,
    b: Word | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> ExperimentReport:
    """Spread of the factor invariant between two minimizing bases.

    The second basis is the image of the standard one under a chain that
    keeps b at minimal length (permutations/inversions plus chains checked
    length-neutral on b).  Reports the running maximum of the spread and
    whether it stabilizes: the maximum over all trials must equal the
    maximum over the first min(100, trials).
    """
    b = boundary_word(rank) if b is None else b
    _check_filling_minimal(b)
    basis_chain = _find_second_minimizing_basis(rank, b, seed)
    chain_inv = tuple(phi.inverse() for phi in reversed(basis_chain))
    b_t = apply_automorphism(chain_inv, b)
    if len(b_t) != len(b):
        raise PreconditionError("chain does not preserve the minimal length of b")
    report = ExperimentReport(
        "basis-change",
        {
            "rank": rank,
            "b": format_word(b),
            "b_in_second_basis": format_word(b_t),
            "trials": trials,
            "seed": seed,
            "second_basis": [phi.generator_images() for phi in basis_chain],
        },
    )
    checkpoint = max(1, min(100, trials))
    running_max = 0
    max_at_checkpoint = 0
    for i in range(trials):
        rng = _rng(seed, "basis-change", i)
        factor = _random_deep_factor(rng, rank, b)
        vs = factor_invariant(factor, b).value
        factor_t = FreeFactorVertex(
            tuple(apply_automorphism(chain_inv, g) for g in factor.generators), rank
        )
        vt = factor_invariant(factor_t, b_t).value
        diff = abs(vs - vt)
        running_max = max(running_max, diff)
        if i + 1 == checkpoint:
            max_at_checkpoint = running_max
        report.trials.append(
            {
                "factor": "|".join(factor.describe()),
                "value_standard": vs,
                "value_second": vt,
                "diff": diff,
            }
        )
    stabilized = trials <= checkpoint or running_max == max_at_checkpoint
    report.violations = 0 if stabilized else 1
    report.summary = {
        "empirical_spread": running_max,
        "running_max_at_checkpoint": max_at_checkpoint,
        "checkpoint": checkpoint,
        "stabilized": stabilized,
    }
    return report


def _random_deep_factor(rng: random.Random, rank: int, b: Word) -> FreeFactorVertex:
    """Random free factor, conjugated to a random depth along b."""
    factor = random_free_factor(rank, rng.randint(1, rank - 1), rng.randint(0, 3), rng)
    conj = (b ** rng.randint(-2, 2)) * random_word(rng.randint(0, 3), rank, rng)
    return FreeFactorVertex(
        tuple(g.conjugated_by(conj) for g in factor.generators), rank
    )


def _find_second_minimizing_basis(
    rank: int, b: Word, seed
) -> tuple[WhAutomorphism, ...]:
    """A nontrivial chain whose inverse keeps b cyclically reduced at length |b|."""
    rng = _rng(seed, "second-basis")
    perm_count = math.factorial(rank) << rank

    def candidates():
        for _ in range(200):
            chain = [_signed_permutation_at(rank, rng.randrange(perm_count))]
            chain.extend(
                _random_multiplier_move(rng, rank) for _ in range(rng.randint(0, 3))
            )
            yield tuple(chain)
        # the pure generator swap always preserves boundary-word length
        swap = list(range(1, rank + 1))
        swap[0], swap[1] = swap[1], swap[0]
        yield (WhAutomorphism.permutation_move(swap, rank),)

    for chain in candidates():
        chain_inv = tuple(phi.inverse() for phi in reversed(chain))
        image = apply_automorphism(chain_inv, b)
        if len(image) != len(b) or not image.is_cyclically_reduced():
            continue
        if all(phi.is_identity_map() for phi in chain):
            continue
        return chain
    raise PreconditionError("no nontrivial second minimizing basis found")


# ---------------------------------------------------------------------------
# boundary-fixing automorphism of the one-holed torus


@dataclass(frozen=True)
class BoundaryAutomorphism:
    """Automorphism fixing the genus-one boundary word, with certificates.

    Built as the composite of two verified boundary-fixing twist moves; the
    homology action having |trace| > 2 certifies the mapping-class
    representative is pseudo-Anosov (one-holed torus criterion).
    build_boundary_pA raises InternalContradictionError unless both hold, so
    the report states them as constants.
    """

    x_image: Word
    y_image: Word
    homology: tuple[tuple[int, int], tuple[int, int]]
    chain: tuple[WhAutomorphism, ...]
    inverse_chain: tuple[WhAutomorphism, ...]

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
    """The automorphism x -> xy, y -> yxy of the rank-2 group.

    It is the composite of the twists x -> xy and y -> yx (each fixes the
    commutator boundary word exactly), fixes the boundary word itself, and
    acts on homology by [[1,1],[1,2]] with trace 3 > 2.
    """
    rank = 2
    b = boundary_word(rank)
    sigma = WhAutomorphism.multiplier_move(-2, {-2, 1}, rank)  # x -> xy
    tau = WhAutomorphism.multiplier_move(-1, {-1, 2}, rank)  # y -> yx
    for phi in (sigma, tau):
        if phi(b) != b:
            raise InternalContradictionError("twist move does not fix the boundary")
    chain = (tau, sigma)  # tau applied first
    x, y = Word((1,), rank), Word((2,), rank)
    x_img = apply_automorphism(chain, x)
    y_img = apply_automorphism(chain, y)
    if apply_automorphism(chain, b) != b:
        raise InternalContradictionError("composite does not fix the boundary")
    hom = (exponent_sums(x_img), exponent_sums(y_img))
    # columns of the homology matrix are the image exponent vectors
    matrix = ((hom[0][0], hom[1][0]), (hom[0][1], hom[1][1]))
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    trace = matrix[0][0] + matrix[1][1]
    if abs(det) != 1:
        raise InternalContradictionError("homology action is not invertible")
    if abs(trace) <= 2:
        raise InternalContradictionError(
            f"homology trace {trace} does not certify a pseudo-Anosov"
        )
    inverse_chain = (sigma.inverse(), tau.inverse())
    for gen, image in ((x, x_img), (y, y_img)):
        if apply_automorphism(inverse_chain, image) != gen:
            raise InternalContradictionError(
                f"inverse chain does not send {image} back to {gen}"
            )
    return BoundaryAutomorphism(
        x_image=x_img,
        y_image=y_img,
        homology=matrix,
        chain=chain,
        inverse_chain=inverse_chain,
    )


# ---------------------------------------------------------------------------
# the two-parameter orbit grid


# the |k| by which every row of this psi meets a step premise (``_grid_row``)
_DEPTH = 2


def _grid_values(radius_r: tuple[int, int], radius_k: int) -> tuple[
    dict[int, tuple[int, ...]], dict[int, tuple], Word, BoundaryAutomorphism, Iterator
]:
    """Factor invariants over the orbit grid psi^r ad_b^k(<x>), as
    {r: the values at k = -radius_k..radius_k} for r in radius_r; the
    certified ends of psi^r(x), with its letter counts, by r in radius_r
    (``_orbit_ends``); b, psi; and the walk of the ends of psi^r(x) for
    r past radius_r, which goes on to the first repeated key.

    Certificate, checked on every call: psi and psi^-1 are positive
    substitutions on {x, y} and {x, Y} (``_positive_substitution``), so
    w = psi^r(x) is reduced and cyclically reduced, and its ends iterate
    on windows (``_orbit_ends``) without building w.

    Each row r is evaluated on windows only at |k| <= depth =
    min(_DEPTH, radius_k), and beyond that by the b-conjugation step
    (``_grid_row``).  A window evaluation never guesses:
    ``_cyclic_value_from_ends`` returns the exact value and end letters
    or raises.  The windows hold (2 depth + 1)|b| letters, independent of
    the radius, and depth 2 decides every row of this psi; a row whose
    step premise still fails there raises.  A row depends only on its key
    (head, hidden > 0, tail), so rows with equal keys share one evaluation
    and one tuple; ``_pair_classes`` merges equal rows by value.
    """
    psi = build_boundary_pA()
    b = boundary_word(2)
    bl, binv = b.letters, b.inverse().letters
    lo_r, hi_r = radius_r
    depth = min(_DEPTH, radius_k)
    window = (2 * depth + 1) * len(bl)
    ends = {}
    # psi's walk comes last, so ``walk`` goes on from r = hi_r + 1
    for chain, sign, steps in ((psi.inverse_chain, -1, -lo_r), (psi.chain, 1, hi_r)):
        walk = _orbit_ends(_positive_substitution(chain), steps, window)
        ends.update((sign * r, end) for r, end in zip(range(steps + 1), walk))
    rows = {}
    values = {}
    for r in range(lo_r, hi_r + 1):
        head, hidden, tail, _ = ends[r]
        key = head, hidden > 0, tail
        if key not in rows:
            rows[key] = _grid_row(head, hidden, tail, depth, radius_k, bl, binv)
        values[r] = rows[key]
    return values, ends, b, psi, walk


def _grid_row(head, hidden, tail, depth, radius_k, bl, binv) -> tuple[int, ...]:
    """The values at k = -radius_k..radius_k of the grid row whose
    psi^r(x) = w has ends (head, hidden, tail).  Raise
    InternalContradictionError if a side meets no step premise by
    |k| = depth < radius_k.

    Step lemma.  Let g_k be the reduced form of b^k w b^-k, g_k = u c u^-1
    with u its longest conjugator (``_peel``), and value(k) the number K
    of whole b blocks that u starts with if K >= 1, else minus the number
    of whole b^-1 blocks it starts with (counted within u, as
    ``_cyclic_value_from_ends`` does).  Premise at k: b[-1] != g_k[0]^-1
    and g_k[-1] != b[-1].  Then:

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
    depth is whole only if radius_k <= depth (every value a window
    evaluation), and raises otherwise.  The premise is read off the end
    letters that the window evaluation returns, which are exact, so no
    value is extrapolated without it.
    """
    at_zero = _cyclic_value_from_ends(head, hidden, tail, (), (), bl, binv)
    row = {0: at_zero[0]}
    for block, inverse, sign in ((bl, binv, 1), (binv, bl, -1)):
        value, first, last = at_zero
        j = 0
        while (first == -block[-1] or last == block[-1]) and j < radius_k:
            j += 1
            if j > depth:
                raise InternalContradictionError(
                    f"no b-conjugation step by |k| = {depth}: the grid row "
                    "cannot be extended without more window evaluations"
                )
            value, first, last = _cyclic_value_from_ends(
                head, hidden, tail, block * j, inverse * j, bl, binv
            )
            row[sign * j] = value
        for j in range(j + 1, radius_k + 1):
            value += sign
            row[sign * j] = value
    return tuple(row[k] for k in range(-radius_k, radius_k + 1))


# Factor-graph paths <x> -> <psi(x)> and <x> -> <b x b^-1> in rank 2, b the
# boundary word; _check_path verifies both on every quasiflat run.
_PSI_PATH = ("x", "xy")
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


def _pair_classes(
    grid: list[tuple[int, ...]], dstep: list[int]
) -> tuple[list[int], int]:
    """How many grid pairs fall in each class (m, l), as a flat histogram
    ``hist`` and its row width: class (m, l) is ``hist[m * width + l]``, so
    the rows m = 0 .. 2n - 2 follow one another and each lists l in order.

    ``grid[i][j]`` is the value at r = i - R, k = j - R.  A pair with row
    offset dr, column offset dk and values v1, v2 has m = dr + |dk| and the
    certified lower bound l = max(ceil(|v1 - v2| / 2), dstep[dr]).  Equal
    rows give equal pairs, so each distinct row is a kind: the column pairs
    of each ordered pair of kinds are tallied once by (|dk|, ceil(|dv| / 2))
    (``_column_pairs``), and each row offset dr adds every tally times the
    number of row pairs (i, i + dr) of its kinds.  With T distinct rows of
    n values the tallies cost O(T^2 n^2), and the row offsets n times T^2
    tallies of at most n (ceil(span / 2) + 1) entries, span the largest
    value difference; all of it is exact in Python ints for any grid.  The
    orbit grid has T = 2 (its rows r >= 0 are equal, and so are its rows
    r < 0) and tallies of O(n) entries, so it costs O(R^2).
    """
    n = len(grid)
    kinds: dict[tuple[int, ...], int] = {}
    kind = [kinds.setdefault(row, len(kinds)) for row in grid]
    rows, t = list(kinds), len(kinds)
    span = max(map(max, rows)) - min(map(min, rows))
    width = max((span + 1) // 2, max(dstep)) + 1
    hist = [0] * ((2 * n - 1) * width)  # class (m, l) at m * width + l
    tallies: dict[int, list[tuple[int, int, int]]] = {}
    scaled = [a * t for a in kind]  # the row pair (a, b) as a * T + b
    for dr in range(n):
        floor, shift = dstep[dr], dr * width
        for pair, count in Counter(map(operator.add, scaled[: n - dr], kind[dr:])).items():
            if pair not in tallies:
                a, b = divmod(pair, t)
                tallies[pair] = _column_pairs(rows[a], rows[b], span, width)
            tally = tallies[pair]
            if not dr:
                # a row with itself: both orders of each pair, and each
                # column with itself in class (0, 0)
                tally = [(base, half, found // 2) for base, half, found in tally if base]
            for base, half, found in tally:
                hist[shift + base + (half if half > floor else floor)] += count * found
    return hist, width


def _column_pairs(
    left: tuple[int, ...], right: tuple[int, ...], span: int, width: int
) -> list[tuple[int, int, int]]:
    """(|dk| * width, ceil(|v1 - v2| / 2), count) over the column pairs
    v1 = left[j], v2 = right[j + dk].

    Column j and value v are coded as j * scale + v.  The difference of two
    codes is dk * scale + dv with |dv| <= span < scale / 2, and its absolute
    value is |dk| * scale + dv', |dv'| = |dv|; so one C loop over the
    product of the codes counts every pair at once.
    """
    scale = 2 * span + 1
    found: dict[tuple[int, int], int] = {}
    for code, count in Counter(map(abs, itertools.starmap(operator.sub, itertools.product(
        [j * scale + v for j, v in enumerate(right)],
        [j * scale + v for j, v in enumerate(left)],
    )))).items():
        dk, dv = divmod(code + span, scale)
        key = dk * width, (abs(dv - span) + 1) // 2
        found[key] = found.get(key, 0) + count
    return [(base, half, count) for (base, half), count in found.items()]


def exp_quasiflat(radius: int = 8) -> ExperimentReport:
    """Distance bounds over the orbit grid psi^r ad_b^k(<x>), with a linear fit.

    The lower bound on the graph distance between two grid vertices is
    max(ceil(|delta invariant| / 2), Farey distance of the projected
    slopes); both maps are distance-decreasing, so the bound is certified.
    psi acts on slopes by its homology matrix, a Farey-graph isometry, so
    the 2R + 1 distances from the slope of psi^-R(x) give every pair.  The
    upper bound is (|dr| + |dk|) * c0, where c0 is the length of the longer
    of two fixed factor-graph paths, <x> -> <psi(x)> and <x> -> <b x b^-1>,
    each verified edge by edge on every run.

    The pairs are counted by class (m, l), m = |dr| + |dk| and l the lower
    bound (``_pair_classes``).  From the class counts come, exactly: the
    least-squares line lower ~ c * m - C0 from the integer moments of the
    pairs, the constant C that makes lower >= c * m - C hold for every
    pair, and the lower envelope min l over the pairs at each m = 1..4R,
    the best constants of the certified lower bound.  The fractions are
    reported as correctly rounded floats.  Values and slopes come from
    ``_grid_values``: a few end windows per row, the b-conjugation step
    and the letter counts of psi^r(x), which is never built.
    """
    R = radius
    values, ends, b, psi, _ = _grid_values((-R, R), R)
    x = Word((1,), 2)
    _check_path(_PSI_PATH, x, psi.x_image)
    _check_path(_AD_PATH, x, ad(b, x))
    c0 = max(1, len(_PSI_PATH) - 1, len(_AD_PATH) - 1)
    counts = [ends[r][3] for r in range(-R, R + 1)]
    slopes = [Slope(c.get(1, 0), c.get(2, 0) - c.get(-2, 0)) for c in counts]
    report = ExperimentReport(
        "quasiflat",
        {"rank": 2, "b": format_word(b), "grid_radius": R},
    )
    axis = range(-R, R + 1)
    for r, slope in zip(axis, map(str, slopes)):
        report.trials.extend(
            {"r": r, "k": k, "value": value, "slope": slope}
            for k, value in zip(axis, values[r])
        )
    # The slope of psi^r(x) is M^r (1, 0), M the homology matrix, and
    # build_boundary_pA checks det M = +-1.  GL_2(Z) acts on the Farey graph
    # by isometries, so the slopes at r1 and r2 lie dstep[|r1 - r2|] apart.
    dstep = [farey_distance(slopes[0], s) for s in slopes]
    hist, width = _pair_classes(list(values.values()), dstep)
    # One pass over the rows m = 1..4R of the histogram (m = 0 would pair a
    # point with itself): exact moments in Python ints, since at R = 64 the
    # products below overflow int64, the pairs above the path-witnessed upper
    # bound c0 * m, which certified lower bounds can never exceed, and the
    # least l at each m, the row's first nonzero class.
    n = sum_m = sum_mm = sum_l = sum_ml = above_upper = 0
    envelope = []
    weights = range(width)
    for m in range(1, 4 * R + 1):
        row = hist[m * width : (m + 1) * width]
        count = sum(row)
        weighted = sum(map(operator.mul, row, weights))
        n += count
        sum_m += count * m
        sum_mm += count * m * m
        sum_l += weighted
        sum_ml += weighted * m
        above_upper += sum(row[c0 * m + 1 :])
        envelope.append(next(l for l, found in enumerate(row) if found))
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
        "psi_path": list(_PSI_PATH),
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

    - A row depends only on its key (head, hidden > 0, tail), the end
      windows of psi^r(x); ``_grid_values`` shares rows on this fact.
    - Every image of psi is non-empty, so once the word is longer than
      both windows, the next key is a function of the current one, and
      before that the head is the whole word (``_orbit_ends``).  So the
      first repeated key proves that every later row is one that has
      already been evaluated: the rows r < rows_repeat_from are all the
      rows.
    - By the step lemma, which ``_grid_row`` proves and checks by |k| =
      depth (every row here reaches |k| = depth + 1, so a failed premise
      raises at every radius), each row has slope +-1 beyond |k| = depth:
      value(r, k + 1) = value(r, k) + 1 for k >= depth and value(r, k - 1)
      = value(r, k) - 1 for k <= -depth.  So the displacement is constant
      there, and its maximum over the distinct rows at |k| <= depth + 1
      is the supremum over the whole half-plane.

    The supremum is a finite maximum, so the report has no violations; a
    certificate that cannot be completed raises instead.  The rows
    r <= radius come from one ``_grid_values`` call at |k| <= max(radius,
    depth + 1); past the radius only the end windows are walked, and a row
    first met there is evaluated at |k| <= depth + 1 only.
    """
    R = radius
    width = max(R, _DEPTH + 1)
    values, ends, b, _, walk = _grid_values((0, R), width)
    ends.update(zip(itertools.count(R + 1), walk))
    report = ExperimentReport(
        "twist-stability",
        {"rank": 2, "b": format_word(b), "radius": R},
    )
    rs = list(range(R + 1))  # one int object per r, shared by the columns
    for k in range(-R, R + 1):
        column = [values[r][k + width] for r in rs]
        report.trials.extend(
            {"r": r, "k": k, "value": value, "displacement": abs(value - column[0])}
            for r, value in zip(rs, column)
        )
    bl, binv = b.letters, b.inverse().letters
    near = slice(width - _DEPTH - 1, width + _DEPTH + 2)
    rows = {}
    for r in itertools.count():
        head, hidden, tail, _ = ends[r]
        key = head, hidden > 0, tail
        if key in rows:
            break
        if r <= R:
            rows[key] = values[r][near]
        else:
            rows[key] = _grid_row(*key, _DEPTH, _DEPTH + 1, bl, binv)
    report.summary = {
        "sup_displacement": max(
            abs(v - v0) for row in rows.values() for v, v0 in zip(row, values[0][near])
        ),
        "rows_repeat_from": r,
    }
    return report


# ---------------------------------------------------------------------------
# boundary words minimize to twice the rank


def exp_boundary_length(rank: int = 4) -> ExperimentReport:
    """The surface boundary word of each rank n = 2..rank minimizes to
    cyclic length 2n and fills."""
    ranks = list(range(2, rank + 1))
    report = ExperimentReport("boundary-length", {"ranks": ranks})
    for n in ranks:
        w = boundary_word(n)
        cert = minimize_cyclic_length(w)
        verdict = classify(w, cert)
        ok = len(cert.minimized) == 2 * n and verdict == Classification.FILLING
        report.violations += not ok
        report.trials.append(
            {
                "rank": n,
                "word": format_word(w),
                "minimal_length": len(cert.minimized),
                "expected_length": 2 * n,
                "verdict": verdict.value,
                "ok": ok,
            }
        )
    report.summary = {"ranks": ranks}
    return report


# ---------------------------------------------------------------------------
# dispatch


def _parameters(fn) -> dict:
    """The parameters of fn with their defaults, in signature order."""
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()}


# name -> (function, the parameters run_experiment passes it).  Defaults
# live only in the signatures.  Every experiment accepts rank; one whose
# function takes no rank runs in rank 2 only.
EXPERIMENTS = {
    name: (fn, _parameters(fn))
    for name, fn in (
        ("lipschitz", exp_lipschitz),
        ("cancellation", exp_cancellation),
        ("zero-fiber", exp_fzero_fiber),
        ("basis-change", exp_basis_change),
        ("quasiflat", exp_quasiflat),
        ("boundary-length", exp_boundary_length),
        ("twist-stability", exp_twist_stability),
    )
}

EXPERIMENT_NAMES = tuple(EXPERIMENTS)

# The smallest value each integer parameter may take.
_MINIMUM = {"rank": 2, "trials": 1, "radius": 1}


def run_experiment(name: str, **kwargs) -> ExperimentReport:
    """Run a named experiment.

    Unknown names, parameters the experiment does not take and values that
    would crash it, pass vacuously or be ignored raise DomainError.  The
    function is looked up as a module attribute at call time, so that a
    wrapper written over that attribute (a call tracer, a test's fake) is
    what runs, and it is given its arguments positionally, in signature
    order.
    """
    if name not in EXPERIMENTS:
        raise DomainError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENT_NAMES)}"
        )
    fn, parameters = EXPERIMENTS[name]
    accepted = tuple(dict.fromkeys(("rank", *parameters)))
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise DomainError(
            f"{name} does not take {', '.join(unknown)}; it takes {', '.join(accepted)}"
        )
    for key, value in kwargs.items():
        if key in _MINIMUM and value < _MINIMUM[key]:
            raise DomainError(f"{key} must be at least {_MINIMUM[key]}, got {value}")
    if "rank" not in parameters:
        rank = kwargs.pop("rank", 2)
        if rank != 2:
            raise DomainError(f"{name} runs in rank 2 only, got rank {rank}")
    values = {**parameters, **kwargs}
    if "k_lo" in values and values["k_lo"] > values["k_hi"]:
        raise DomainError(
            f"empty exponent range: k_lo = {values['k_lo']} > k_hi = {values['k_hi']}"
        )
    return globals()[fn.__name__](*values.values())
