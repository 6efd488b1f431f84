import pytest
from hypothesis import settings

from freefactor import (
    DomainError,
    Word,
    apply_automorphism,
    boundary_word,
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
