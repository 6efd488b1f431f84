"""Named, reproducible experiments with machine-readable reports.

Every experiment is deterministic for a fixed seed: per-trial random
streams are derived from (seed, experiment name, trial index), so reports
serialize byte-for-byte identically across runs.  Violation counts tally
per-trial breaches of the stated bound; for bounds that are theorems, any
violation signals an implementation bug.  Factor invariants are exact,
so every such bound is checked at full strength.
"""

from __future__ import annotations

import math
import operator
import random

from .errors import (
    DomainError,
    InternalContradictionError,
    PreconditionError,
    RankError,
)
from .factors import (
    _check_filling_minimal,
    _factor_value,
    _random_factor_letters,
    _trusted_factor,
    af_adjacent,
    random_free_factor,
)
from .orbit import exp_quasiflat, exp_twist_stability
from .report import ExperimentReport
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
    _apply_table,
    _checked_int,
    _chain_table,
    _random_letters,
    _times,
    ad,
    apply_automorphism,
    b_index,
    boundary_word,
    format_word,
    random_word,
)


def _rng(seed, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def _base_word(rank: int, b: Word | None) -> Word:
    """b, by default ``boundary_word(rank)``, checked to be of that rank
    (RankError) and filling at minimal length (``_check_filling_minimal``)."""
    b = boundary_word(rank) if b is None else b
    if b.rank != rank:
        raise RankError(f"b = {b} has rank {b.rank}, not the experiment's rank {rank}")
    _check_filling_minimal(b)
    return b


def _b_powers(b: Word) -> tuple[tuple[int, ...], ...]:
    """The letters of b^0, b^1, b^2, b^-2 and b^-1, in that order, so that
    ``powers[k]`` spells b^k for every k in -2..2."""
    return tuple((b**k).letters for k in (0, 1, 2, -2, -1))


def _random_edge_images(
    rng: random.Random, rank: int, b_powers
) -> tuple[tuple[int, ...], ...]:
    """The letters of the images of the basis x_1..x_N under a random
    automorphism theta, with b^k spelled ``b_powers[k]`` (``_b_powers``).

    theta mixes multiplier bursts with conjugations; conjugating by powers
    of b moves factors to varying depths, so the sampled edges exercise
    the invariant away from zero.  Each step phi is composed on the left,
    theta' = phi o theta, so theta'(x_i) = phi(theta(x_i)): a burst applies
    its moves to each image and a conjugation by w maps each image u to
    w u w^-1.  Reduced words are unique, so the images equal those of the
    equivalent chain of single-letter Whitehead moves letter for letter.
    Draws are retried while the images exceed 110 letters in total; after
    40 tries theta is the identity.

    The images are letter tuples from draw to return, and no Word is
    built.  Every draw is the one the sampler that stepped Words made, in
    the same order (a burst's moves are applied as they are drawn, and
    applying one draws nothing), so the stream is consumed call for call
    as then, the images are the same, and seeded reports are byte-identical.
    """
    basis = tuple((i,) for i in range(1, rank + 1))
    for _ in range(40):
        images = basis
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.65:
                if roll < 0.45:
                    w = b_powers[rng.choice((-2, -1, 1, 2))]
                else:
                    w = _random_letters(rng.randint(1, 3), rank, rng)
                images = _conjugates(images, w)
            else:
                for _ in range(rng.randint(1, 2)):
                    table = _random_multiplier_move(rng, rank).table
                    images = tuple(_apply_table(table, u) for u in images)
        if sum(map(len, images)) <= 110:
            return images
    return basis


def _conjugates(images, w: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """w u w^-1, reduced, for each reduced letter tuple u of ``images``."""
    w_inv = tuple(map(operator.neg, reversed(w)))
    return tuple(_times(_times(w, u), w_inv) for u in images)


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
    and 2 for rank 2.  Every sampled pair must pass ``af_adjacent``'s edge
    test; one that does not raises ``InternalContradictionError``.

    The images are drawn as letter tuples (``_random_edge_images``), and
    each factor is a ``FreeFactorVertex`` on them, built by
    ``factors._trusted_factor`` with no Word.  A cyclic factor is
    edge-tested by the letter body of ``is_basis_pair`` or ``_in_cyclic``
    and valued by ``_cyclic_value``, with no fold; the two-generator side
    of a nested pair is folded once, for both its edge test and its
    value.  b is checked, and its powers spelled, once before the trial
    loop.
    """
    b = _base_word(rank, b)
    b_powers = _b_powers(b)
    bl, binv = b_powers[1], b_powers[-1]
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
        images = _random_edge_images(rng, rank, b_powers)
        if rank == 2:
            u, v = images
            fb = _trusted_factor((v,), rank)
        else:
            i1, i2 = sorted(rng.sample(range(1, rank + 1), 2))
            u = images[i1 - 1]
            fb = _trusted_factor((u, images[i2 - 1]), rank)
        fa = _trusted_factor((u,), rank)
        if not af_adjacent(fa, fb):
            raise InternalContradictionError(
                "the sampled factors are not adjacent in the free factor graph"
            )
        value_a = _factor_value(fa, b, bl, binv)
        value_b = _factor_value(fb, b, bl, binv)
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
    b = _base_word(rank, b)
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
    b = _base_word(rank, b)
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

    Each factor is drawn as letter tuples (``_random_deep_factor``) and
    mapped to the second basis by one letter table; each side is a
    ``FreeFactorVertex`` on its letters, built by
    ``factors._trusted_factor`` with no Word.  A cyclic factor is valued
    by ``_cyclic_value``; only a factor with two or more generators has
    its graph searched.
    b and b_t are checked, b's powers are spelled, and b_t is spelled both
    ways, once before the trial loop.  b_t is the image of b that
    ``_find_second_minimizing_basis`` found at b's length, under the
    inverse chain that it hands back with the chain; that inverse also
    gives the second basis's letter table.
    """
    b = _base_word(rank, b)
    b_powers = _b_powers(b)
    basis_chain, chain_inv, b_t = _find_second_minimizing_basis(rank, b, seed)
    # the second basis's letter images: each factor is one reduction
    table = _chain_table(chain_inv, rank)
    _check_filling_minimal(b_t)
    bl, binv = b_powers[1], b_powers[-1]
    bl_t, binv_t = b_t.letters, b_t.inverse().letters
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
        gens = _random_deep_factor(rng, rank, b_powers)
        factor = _trusted_factor(gens, rank)
        vs = _factor_value(factor, b, bl, binv)
        factor_t = _trusted_factor(tuple(_apply_table(table, g) for g in gens), rank)
        vt = _factor_value(factor_t, b_t, bl_t, binv_t)
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


def _random_deep_factor(
    rng: random.Random, rank: int, b_powers
) -> tuple[tuple[int, ...], ...]:
    """The generators' letters of a random free factor, conjugated to a
    random depth along b: by b^k w for k in -2..2 and a random word w of
    at most 3 letters, drawn in that order, with b^k spelled
    ``b_powers[k]`` (``_b_powers``).

    The factor's rank and chain length are drawn here, and its letters
    come from ``factors._random_factor_letters``, the sampler that
    ``random_free_factor`` wraps, so the stream is consumed draw for draw
    as when this called ``random_free_factor``.  No Word is built: the
    caller makes the factor with ``factors._trusted_factor``.
    """
    gens = _random_factor_letters(
        rng, rank, rng.randint(1, rank - 1), rng.randint(0, 3)
    )
    conj = _times(
        b_powers[rng.randint(-2, 2)], _random_letters(rng.randint(0, 3), rank, rng)
    )
    return _conjugates(gens, conj)


def _find_second_minimizing_basis(
    rank: int, b: Word, seed
) -> tuple[tuple[WhAutomorphism, ...], tuple[WhAutomorphism, ...], Word]:
    """A nontrivial chain whose inverse keeps b cyclically reduced at length
    |b|, that inverse (the inverted moves in reverse order), and b's image
    under it."""
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
        return chain, chain_inv, image
    raise PreconditionError("no nontrivial second minimizing basis found")


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
    """The parameters of fn with their defaults, in signature order.
    Every parameter of an experiment has a default, so the two line up."""
    code = fn.__code__
    return dict(zip(code.co_varnames[: code.co_argcount], fn.__defaults__, strict=True))


# name -> (function, the parameters run_experiment passes it).  Defaults
# live only in the signatures.  Every experiment accepts rank; one whose
# function takes no rank runs in rank 2 only.  quasiflat and
# twist-stability are imported from ``orbit`` and bound here by name, so
# run_experiment's lookup finds them too.
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

# The integer parameters, each with the smallest value it may take (None
# for no bound).
_INTEGERS = {"rank": 2, "trials": 1, "radius": 1, "k_lo": None, "k_hi": None}


def run_experiment(name: str, **kwargs) -> ExperimentReport:
    """Run a named experiment.

    Unknown names, parameters the experiment does not take and values that
    would crash it, pass vacuously or be ignored raise DomainError; the
    integer parameters are read through ``words._checked_int``
    (``operator.index``), so one that is not an integer is refused too,
    and ``seed`` may be anything.  The function is looked up as a module
    attribute at call time, so that a wrapper written over that attribute
    (a call tracer, a test's fake) is what runs, and it is given its
    arguments positionally, in signature order.
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
        if key in _INTEGERS:
            kwargs[key] = _checked_int(value, key, _INTEGERS[key])
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
