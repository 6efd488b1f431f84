import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import freefactor
from freefactor import (
    BReducedDecomposition,
    DomainError,
    FreeFactorVertex,
    RankError,
    Slope,
    Word,
    ad,
    apply_automorphism,
    b_index,
    boundary_word,
    farey_distance,
    parse_word,
    random_word,
)
from freefactor.experiments import _b_powers, _random_deep_factor, _random_edge_images
from freefactor.whitehead import _random_multiplier_move
from freefactor.words import _apply_table

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


# ---------------------------------------------------------------------------
# the cost of each test: its wall time and the rise in the process's peak
# RSS that it caused, so that a test that grows 10x slower or holds
# gigabytes shows in the run that changes it

_STATUS = Path("/proc/self/status")
_COSTS: list[tuple[float, int | None, str]] = []  # (seconds, peak rise in kB, node id)


def _peak_kb() -> int | None:
    """This process's high-water RSS, VmHWM, in kB; None where the kernel
    does not report it."""
    try:
        status = _STATUS.read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    before, start = _peak_kb(), time.perf_counter()
    yield
    seconds, after = time.perf_counter() - start, _peak_kb()
    rise = None if before is None or after is None else after - before
    _COSTS.append((seconds, rise, item.nodeid))


def pytest_terminal_summary(terminalreporter):
    if not _COSTS:
        return
    write = terminalreporter.write_line
    terminalreporter.section("test cost: wall time, and the rise in peak RSS")
    risen = sorted((c for c in _COSTS if c[1] and c[1] >= 1024), key=lambda c: -c[1])
    for title, costs in (
        ("slowest", sorted(_COSTS, key=lambda c: -c[0])), ("largest peak rise", risen)
    ):
        write(title + ":")
        for seconds, rise, nodeid in costs[:10]:
            shown = "" if rise is None else f"  +{rise / 1024:.1f} MB"
            write(f"{seconds:8.2f} s{shown}  {nodeid}")


def fresh_python(*args) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this package."""
    src = str(Path(freefactor.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def W(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def psi_power(psi, w: Word, power: int = 1) -> Word:
    """psi^power(w) for a BoundaryAutomorphism psi, built letter by letter:
    one application of psi's letter-image table, or of its inverse's, per
    step, and the result checked by ``Word``."""
    table = psi.table if power >= 0 else psi.inverse_table
    letters = w.letters
    for _ in range(abs(power)):
        letters = _apply_table(table, letters)
    return Word(letters, w.rank)


@pytest.fixture
def b2() -> Word:
    return boundary_word(2)


@pytest.fixture
def b3() -> Word:
    return boundary_word(3)


def oracle_letter_image(phi, letter: int) -> tuple[int, ...]:
    """The image of one letter under a Whitehead automorphism, read off its
    fields (the per-letter derivation that ``WhAutomorphism.table``
    replaced): a multiplier move sends v != a^+-1 to a^[v^-1 in Z] v
    a^-[v in Z] and fixes a^+-1; a permutation sends +-i to the signed
    image of generator i."""
    if phi.kind == "multiplier":
        a = phi.multiplier
        if letter == a or letter == -a:
            return (letter,)
        image = []
        if -letter in phi.zset:
            image.append(a)
        image.append(letter)
        if letter in phi.zset:
            image.append(-a)
        return tuple(image)
    img = phi.images[abs(letter) - 1]
    return (img,) if letter > 0 else (-img,)


def oracle_random_word(length: int, rank: int, rng) -> Word:
    """The Word-level sampler that random_word replaced: the candidate list
    rebuilt for every letter, and the letters checked by Word."""
    if length < 0:
        raise DomainError("length must be nonnegative")
    if rank < 2:
        raise RankError(f"rank must be at least 2, got {rank}")
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    letters: list[int] = []
    for _ in range(length):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters), rank)


def oracle_b_reduced_decomposition(w: Word, b: Word) -> BReducedDecomposition:
    """The four-scan b_reduced_decomposition that the conjugator reader
    ``words._b_exponent`` replaced: k leading b blocks against k trailing
    b^-1 blocks, capped by 2k|b| < |w|, and failing that the same for
    b^-1; the core is re-checked by ``Word``."""
    n, m = len(w), len(b)
    if n == 0:
        return BReducedDecomposition(0, w, b)
    cap = (n - 1) // (2 * m)
    ls, bl, binv = w.letters, b.letters, b.inverse().letters

    def leading(block):
        count = 0
        while count < cap and ls[count * m : (count + 1) * m] == block:
            count += 1
        return count

    def trailing(block):
        count = 0
        while count < cap and ls[n - (count + 1) * m : n - count * m] == block:
            count += 1
        return count

    k = min(leading(bl), trailing(binv)) or -min(leading(binv), trailing(bl))
    cut = abs(k) * m
    return BReducedDecomposition(k, Word(ls[cut : n - cut], w.rank), b)


def oracle_random_free_factor(
    rank_ambient: int, factor_rank: int, chain_length: int, rng
) -> FreeFactorVertex:
    """The Word-level sampler that random_free_factor replaced: theta
    applied to each subset generator as a Word."""
    subset = tuple(sorted(rng.sample(range(1, rank_ambient + 1), factor_rank)))
    chain = tuple(
        _random_multiplier_move(rng, rank_ambient) for _ in range(chain_length)
    )
    gens = tuple(apply_automorphism(chain, Word((s,), rank_ambient)) for s in subset)
    return FreeFactorVertex(gens, rank_ambient)


def edge_images(rng, rank: int, b: Word) -> tuple[Word, ...]:
    """``experiments._random_edge_images`` with b's powers spelled for it,
    each image's letters checked by ``Word``."""
    images = _random_edge_images(rng, rank, _b_powers(b))
    assert all(type(u) is tuple for u in images)
    return tuple(Word(u, rank) for u in images)


def deep_factor(rng, rank: int, b: Word) -> FreeFactorVertex:
    """The factor whose generators ``experiments._random_deep_factor``
    draws, with b's powers spelled for it, each generator's letters
    checked by ``Word``."""
    gens = _random_deep_factor(rng, rank, _b_powers(b))
    assert all(type(g) is tuple for g in gens)
    return FreeFactorVertex(tuple(Word(g, rank) for g in gens), rank)


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


def oracle_zero_fiber_row(a: Word, b: Word, k_lo: int, k_hi: int) -> list[int]:
    """The materialising loop that zero-fiber's one ``orbit._grid_row``
    read replaced: each conjugate b^k a b^-k built and its exponent read
    by ``b_index``, O(K^2 |b|) letters over a window of K values."""
    return [b_index(ad(b, a, k), b) for k in range(k_lo, k_hi + 1)]


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
