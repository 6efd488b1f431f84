from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from freefactor import (
    DomainError,
    Slope,
    Word,
    apply_automorphism,
    boundary_word,
    farey_distance,
    parse_word,
    random_word,
)

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def W(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def psi_power(psi, w: Word, power: int = 1) -> Word:
    """psi^power(w) for a BoundaryAutomorphism psi, built letter by letter:
    one application of psi's chain, or of its inverse chain, per step."""
    chain = psi.chain if power >= 0 else psi.inverse_chain
    for _ in range(abs(power)):
        w = apply_automorphism(chain, w)
    return w


@pytest.fixture
def b2() -> Word:
    return boundary_word(2)


@pytest.fixture
def b3() -> Word:
    return boundary_word(3)


def random_element(factor, rng, max_syllables=4):
    """A nontrivial product of the factor's generators (freely reduced
    indices), drawn with ``rng``."""
    gens = factor.generators
    for _ in range(64):
        length = rng.randint(1, max_syllables)
        idx = []
        choices = [i + 1 for i in range(len(gens))]
        choices += [-c for c in choices]
        for _ in range(length):
            allowed = [c for c in choices if not idx or c != -idx[-1]]
            idx.append(rng.choice(allowed))
        w = Word.identity(factor.rank_ambient)
        for s in idx:
            g = gens[abs(s) - 1]
            w = w * (g if s > 0 else g.inverse())
        if not w.is_identity():
            return w
    raise DomainError("could not sample a nontrivial element")


def reduced_loops(graph, max_len):
    """Every nonempty reduced basepoint loop of at most max_len letters."""
    letters = [l for i in range(1, graph.rank + 1) for l in (i, -i)]
    stack = [((), graph.basepoint)]
    while stack:
        path, v = stack.pop()
        if path and v == graph.basepoint:
            yield path
        if len(path) < max_len:
            for letter in letters:
                target = graph.step(v, letter)
                if target is not None and (not path or letter != -path[-1]):
                    stack.append((path + (letter,), target))


def random_cyclically_reduced(rng, rank, max_len):
    """A random nontrivial cyclically reduced word of at most max_len letters."""
    while True:
        c = random_word(rng.randint(1, max_len), rank, rng)
        if c.is_cyclically_reduced():
            return c


def oracle_quasiflat_pairs(report, c0: int) -> dict:
    """The per-pair loop that exp_quasiflat's pair classes replaced, run on
    the grid values and slopes of its report, with the least-squares line
    and its cover from exact Fraction moments of the pairs.

    ``pairs_below_line`` counts, exactly and pair by pair, the pairs below
    the line c * m - C, where C is the cover that the report's own
    ``lower_envelope`` gives: a count above 0 is a pair under the envelope
    that the report states."""
    points = [(t["r"], t["k"], t["value"], Slope.from_string(t["slope"])) for t in report.trials]
    ms, lowers = [], []
    for idx, (r1, k1, v1, s1) in enumerate(points):
        for r2, k2, v2, s2 in points[idx + 1 :]:
            lowers.append(max((abs(v1 - v2) + 1) // 2, farey_distance(s1, s2)))
            ms.append(abs(r1 - r2) + abs(k1 - k2))
    n = len(ms)
    mean_m, mean_l = Fraction(sum(ms), n), Fraction(sum(lowers), n)
    var_m = Fraction(sum(m * m for m in ms), n) - mean_m**2
    cov = Fraction(sum(m * l for m, l in zip(ms, lowers)), n) - mean_m * mean_l
    c = cov / var_m
    intercept = mean_l - c * mean_m
    cover = max(0, max(c * m - l for m, l in set(zip(ms, lowers))))
    envelope = {}
    for m, l in zip(ms, lowers):
        envelope[m] = min(l, envelope.get(m, l))
    stated = enumerate(report.summary["lower_envelope"], 1)
    stated_cover = max(0, max(c * m - l for m, l in stated))
    return {
        "fit_slope": float(c),
        "fit_intercept": float(intercept),
        "cover_constant": float(cover),
        "lower_envelope": [envelope[m] for m in range(1, max(ms) + 1)],
        "pairs": n,
        "pairs_below_line": sum(1 for m, l in zip(ms, lowers) if l < c * m - stated_cover),
        "pairs_above_upper_bound": sum(1 for m, l in zip(ms, lowers) if l > c0 * m),
        "polyfit": np.polyfit(np.array(ms, dtype=float), np.array(lowers, dtype=float), 1),
    }
