import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freefactor import (
    DomainError,
    NotCyclicallyReducedError,
    RankError,
    Word,
    WordSyntaxError,
    ad,
    apply_automorphism,
    b_index,
    b_reduced_decomposition,
    boundary_word,
    cyclic_reduce,
    format_word,
    free_reduce,
    parse_word,
    random_word,
)
from freefactor import words
from freefactor.words import _apply_table, _chain_table, _letter_table
from freefactor.whitehead import (
    WhAutomorphism,
    _moves_per_multiplier,
    _multiplier_move_at,
    _signed_permutation_at,
)

from conftest import (
    W,
    fresh_python,
    oracle_b_reduced_decomposition,
    oracle_letter_image,
    oracle_random_word,
)


def naive_reduce(letters):
    """Independent oracle: repeatedly delete the first adjacent inverse pair."""
    out = list(letters)
    while True:
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                break
        else:
            return tuple(out)


def letters_strategy(rank=3, max_size=30):
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))
    return st.lists(letter, max_size=max_size)


def test_module_doctests():
    import doctest

    import freefactor.words

    assert doctest.testmod(freefactor.words).failed == 0


@pytest.mark.parametrize("rank", [2.0, 2.5, "2", None])
def test_word_rank_must_be_an_integer(rank):
    with pytest.raises(DomainError, match="rank must be an integer"):
        Word((1,), rank)
    with pytest.raises(DomainError, match="rank must be an integer"):
        parse_word("x", rank)
    for w in (Word((1, -2), np.int64(2)), parse_word("xY", np.int64(2))):
        assert type(w.rank) is int and w == Word((1, -2), 2)
    with pytest.raises(RankError, match="rank must be at least 2, got 1"):
        Word((1,), np.int64(1))
    with pytest.raises(RankError, match="rank must be at least 2, got 1"):
        parse_word("x", 1)


class TestParse:
    def test_compact(self):
        assert parse_word("xyX", 2).letters == (1, 2, -1)

    def test_cancellation(self):
        assert parse_word("xX", 2).letters == ()

    def test_token_form(self):
        assert parse_word("x1 X2 x1", 3).letters == (1, -2, 1)

    def test_identity_spellings(self):
        assert parse_word("1", 2).is_identity()
        assert parse_word("", 2).is_identity()

    def test_unknown_token(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x1 q2", 3)

    def test_index_exceeds_rank(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x3", 2)
        with pytest.raises(WordSyntaxError):
            parse_word("z", 2)

    @pytest.mark.parametrize("text", ["x0", "X0", "x1 x0", "x4"])
    def test_token_index_outside_the_alphabet(self, text):
        # an index of 0 is as out of range as one past the rank
        with pytest.raises(WordSyntaxError, match=r"^generator index \d+ is not in 1\.\.3$"):
            parse_word(text, 3)

    def test_rank_too_small(self):
        with pytest.raises(RankError):
            parse_word("x", 1)

    @given(letters_strategy())
    @settings(max_examples=60)
    def test_round_trip(self, letters):
        w = Word.from_letters(letters, 3)
        assert parse_word(format_word(w), 3) == w

    def test_token_round_trip(self):
        w = Word((1, -27, 3), 30)
        assert parse_word(format_word(w), 30) == w


class TestFreeReduce:
    def test_simple(self):
        assert free_reduce([1, 2, -2, 3]) == (1, 3)

    def test_empty(self):
        assert free_reduce([]) == ()

    def test_triple_conjugate_length(self):
        # no junction cancellation at all: 12 + 1 + 12 letters survive
        b = W("xyXY")
        seq = b.letters * 3 + (1,) + b.inverse().letters * 3
        reduced = free_reduce(seq)
        assert reduced == naive_reduce(seq)
        assert len(reduced) == 25
        assert reduced[:13] == b.letters * 3 + (1,)

    @given(letters_strategy())
    @settings(max_examples=100)
    def test_matches_naive_oracle(self, letters):
        assert free_reduce(letters) == naive_reduce(letters)

    @given(letters_strategy())
    @settings(max_examples=60)
    def test_involution(self, letters):
        w = Word.from_letters(letters, 3)
        assert (w * w.inverse()).is_identity()

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(DomainError):
            Word((1, -1), 2)


class TestCyclicReduce:
    def test_conjugate(self):
        d = cyclic_reduce(W("xyX"))
        assert (d.conjugator, d.core) == (W("x"), W("y"))

    def test_already_reduced(self):
        d = cyclic_reduce(W("xyXY"))
        assert d.conjugator.is_identity()
        assert d.core == W("xyXY")

    def test_partial_peel(self):
        d = cyclic_reduce(W("xxyX"))
        assert (d.conjugator, d.core) == (W("x"), W("xy"))

    @given(letters_strategy())
    @settings(max_examples=80)
    def test_reassembly(self, letters):
        w = Word.from_letters(letters, 3)
        d = cyclic_reduce(w)
        assert d.core.is_cyclically_reduced()
        assert d.conjugator * d.core * d.conjugator.inverse() == w


def brute_force_b_exponent(w: Word, b: Word) -> int:
    """Oracle: scan every k and test the literal prefix/suffix pattern."""
    best = 0
    m = len(b)
    for k in range(-(len(w) // m), len(w) // m + 1):
        block = abs(k) * m
        if k == 0 or 2 * block >= len(w):
            continue
        if (
            w.letters[:block] == (b**k).letters
            and w.letters[-block:] == (b**-k).letters
            and abs(k) > abs(best)
        ):
            best = k
    return best


class TestBReduced:
    def test_constructed(self, b2):
        w = (b2**2) * W("x") * (b2**-2)
        d = b_reduced_decomposition(w, b2)
        assert d.k == 2
        assert d.core == W("x")

    def test_powers_of_b(self, b2):
        for m in (1, 2, 3, 5):
            assert b_index(b2**m, b2) == 0

    def test_conjugated_deep_word(self, b2):
        w = W("y") * (b2**3) * W("x") * (b2**-3) * W("Y")
        assert b_index(w, b2) == 0
        assert b_index(w, b2) == brute_force_b_exponent(w, b2)

    def test_identity(self, b2):
        d = b_reduced_decomposition(Word.identity(2), b2)
        assert d.k == 0 and d.core.is_identity()

    def test_rejects_bad_b(self):
        with pytest.raises(NotCyclicallyReducedError):
            b_reduced_decomposition(W("x"), W("xyX"))
        with pytest.raises(NotCyclicallyReducedError):
            b_reduced_decomposition(W("x"), Word.identity(2))

    @given(letters_strategy(rank=2, max_size=24))
    @settings(max_examples=150)
    def test_matches_brute_force(self, letters):
        b = W("xyXY")
        w = Word.from_letters(letters, 2)
        assert b_index(w, b) == brute_force_b_exponent(w, b)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_oracles_on_constructed_words(self, rank):
        # b^k c b^-k for |k| <= 4 of both signs; short or b-like cores
        # cancel into the b blocks or extend them
        b = boundary_word(rank)
        rng = random.Random(3300 + rank)
        ks = set()
        for _ in range(600):
            k = rng.randint(-4, 4)
            if rng.random() < 0.25:
                c = b ** rng.choice((-1, 1)) * random_word(rng.randint(0, 3), rank, rng)
            else:
                c = random_word(rng.randint(0, 10), rank, rng)
            w = ad(b, c, k)
            d = b_reduced_decomposition(w, b)
            assert d == oracle_b_reduced_decomposition(w, b), (w, k)
            assert d.k == brute_force_b_exponent(w, b), (w, k)
            ks.add(d.k)
        assert set(range(-4, 5)) <= ks

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_oracles_on_random_words(self, rank):
        b = boundary_word(rank)
        rng = random.Random(3400 + rank)
        for _ in range(600):
            w = random_word(rng.randint(0, 30), rank, rng)
            d = b_reduced_decomposition(w, b)
            assert d == oracle_b_reduced_decomposition(w, b), w
            assert d.k == brute_force_b_exponent(w, b), w

    @given(letters_strategy(rank=2, max_size=24))
    @settings(max_examples=100)
    def test_round_trip_no_cancellation(self, letters):
        b = W("xyXY")
        w = Word.from_letters(letters, 2)
        d = b_reduced_decomposition(w, b)
        reassembled = (b**d.k).letters + d.core.letters + (b**-d.k).letters
        assert reassembled == w.letters  # zero cancellation at the junctions

    @given(letters_strategy(rank=2, max_size=16), st.integers(0, 3))
    @settings(max_examples=120)
    def test_shift_identity(self, letters, k):
        b = W("xyXY")
        w = Word.from_letters(letters, 2)
        j = b_index(w, b)
        # the identity needs reduced junctions when j == 0
        if j < 0 or w.is_identity():
            return
        if w.letters[0] == -b.letters[-1] or w.letters[-1] == b.letters[-1]:
            return
        shifted = ad(b, w, k)
        d0 = b_reduced_decomposition(w, b)
        d1 = b_reduced_decomposition(shifted, b)
        assert d1.k == j + k
        assert d1.core == d0.core  # core untouched by the conjugation

    def test_shift_identity_counterexample_guarded(self, b2):
        # junction cancellation breaks the naive shift: b * yx * b^-1 has
        # exponent 0, not 1
        w = W("yx")
        assert b_index(w, b2) == 0
        assert b_index(ad(b2, w, 1), b2) == 0


class TestApplyAutomorphism:
    def test_identity_chain(self):
        w = W("xyXY")
        assert apply_automorphism((), w) == w

    def test_twist_fixes_commutator(self, b2):
        sigma = WhAutomorphism.multiplier_move(-2, {-2, 1}, 2)  # x -> xy
        assert apply_automorphism([sigma], b2) == b2

    def test_conjugation_move(self, b2):
        # single-letter conjugation moves compose to conjugation by b
        letters = frozenset({1, -1, 2, -2})
        chain = [
            WhAutomorphism.multiplier_move(l, letters - {-l}, 2)
            for l in reversed(b2.letters)
        ]
        assert apply_automorphism(chain, W("x")) == b2 * W("x") * b2.inverse()
        assert apply_automorphism(chain, W("x")) == W("xyXYxyxYX")

    def test_composition_order(self):
        sigma = WhAutomorphism.multiplier_move(-2, {-2, 1}, 2)  # x -> xy
        tau = WhAutomorphism.multiplier_move(-1, {-1, 2}, 2)  # y -> yx
        # [tau, sigma] applies tau first: x -> xy, y -> yxy
        assert apply_automorphism((tau, sigma), W("x")) == W("xy")
        assert apply_automorphism((tau, sigma), W("y")) == W("yxy")
        # the reversed chain gives a different automorphism
        assert apply_automorphism((sigma, tau), W("x")) == W("xyx")
        assert apply_automorphism((sigma, tau), W("y")) == W("yx")

    def test_rank_mismatch(self):
        sigma = WhAutomorphism.multiplier_move(-2, {-2, 1}, 2)
        with pytest.raises(RankError):
            apply_automorphism([sigma], W("x", 3))


class TestRandomWord:
    def test_zero_length(self):
        assert random_word(0, 2, 1).is_identity()

    def test_single_letter(self):
        assert random_word(1, 2, 1).letters[0] in (1, -1, 2, -2)

    def test_exact_length_and_reduced(self):
        for L in (1, 5, 40):
            w = random_word(L, 3, L)
            assert len(w) == L

    def test_determinism(self):
        assert random_word(20, 2, 42) == random_word(20, 2, 42)
        rng1, rng2 = random.Random(5), random.Random(5)
        assert random_word(15, 3, rng1) == random_word(15, 3, rng2)

    def test_negative_length(self):
        with pytest.raises(DomainError):
            random_word(-1, 2, 0)


    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 26, 27, 40, 1000, 10_000])
    def test_matches_word_level_sampler(self, rank):
        # the same letters, and the stream left where the per-letter
        # sampler left it, so every draw after it is unchanged; the oracle
        # builds a 2*rank list per letter, so the high ranks take 8 seeds
        for seed in range(300 if rank <= 40 else 8):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            length = seed % 13
            w = random_word(length, rank, rng)
            assert w == oracle_random_word(length, rank, oracle_rng), seed
            assert rng.getstate() == oracle_rng.getstate(), seed
            assert Word(w.letters, rank) == w

    def test_huge_rank_under_an_address_limit(self):
        # each letter is an index draw mapped by arithmetic, so no draw
        # holds rank-sized memory: a child limited to 400 MB of address
        # space draws 300 eight-letter words at rank 10^6, where a cache of
        # one 2*rank-letter candidate tuple per previous letter ran out of
        # memory
        script = (
            "import random, resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))\n"
            "from freefactor import random_word\n"
            "rng = random.Random(1)\n"
            "start = time.perf_counter()\n"
            "for _ in range(300):\n"
            "    random_word(8, 10**6, rng)\n"
            "print(time.perf_counter() - start)\n"
        )
        done = fresh_python("-c", script)
        child = f"exit {done.returncode}, stdout {done.stdout!r}, stderr {done.stderr!r}"
        assert done.returncode == 0, child
        assert float(done.stdout) < 1, child

    @pytest.mark.parametrize("length,rank", [(2.5, 2), (3.0, 2), ("3", 2), (3, 2.5), (3, 3.0)])
    def test_non_integer_arguments(self, length, rank):
        with pytest.raises(DomainError, match="must be an integer"):
            random_word(length, rank, 0)

    def test_rank_below_two(self):
        with pytest.raises(RankError):
            random_word(3, 1, 0)

    @pytest.mark.parametrize("seed", [(1, 2), [1], {}])
    def test_unreadable_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be None, an int.* or a random.Random"):
            random_word(20, 4, seed)

    @pytest.mark.parametrize("seed", [None, 7, 2.5, "seven", b"seven", bytearray(b"7")])
    def test_readable_seed_seeds_a_stream(self, seed):
        w = random_word(20, 4, seed)
        if seed is not None:
            assert w == random_word(20, 4, random.Random(seed))


def oracle_format_word(w: Word) -> str:
    """The per-letter formatter that the letter table replaced."""
    if not w.letters:
        return "1"
    if w.rank <= 26:
        chars = []
        for letter in w.letters:
            c = words.GENERATOR_CHARS[abs(letter) - 1]
            chars.append(c.upper() if letter < 0 else c)
        return "".join(chars)
    return " ".join(("x" if l > 0 else "X") + str(abs(l)) for l in w.letters)


class TestFormatWord:
    @pytest.mark.parametrize("rank", range(2, 31))
    def test_matches_per_letter_formatter(self, rank):
        rng = random.Random(rank)
        every_letter = Word((*range(1, rank + 1), *range(-1, -rank - 1, -1)), rank)
        samples = [Word.identity(rank), every_letter]
        samples += [random_word(rng.randint(1, 40), rank, rng) for _ in range(50)]
        for w in samples:
            assert format_word(w) == oracle_format_word(w), w.letters
            assert parse_word(format_word(w), rank) == w


# ---------------------------------------------------------------------------
# The reduce-everything forms of product, power and automorphism application
# that the library replaced with junction-only cancellation and image tables;
# each rebuilds its result from all of its letters through the full check.


def oracle_inverse(w: Word) -> Word:
    return Word(tuple(-l for l in reversed(w.letters)), w.rank)


def oracle_mul(a: Word, b: Word) -> Word:
    return Word.from_letters(a.letters + b.letters, a.rank)


def oracle_pow(w: Word, n: int) -> Word:
    base = w if n >= 0 else oracle_inverse(w)
    return Word.from_letters(base.letters * abs(n), w.rank)


def oracle_ad(b: Word, w: Word, k: int) -> Word:
    return oracle_mul(oracle_mul(oracle_pow(b, k), w), oracle_pow(b, -k))


def oracle_apply(chain, w: Word) -> Word:
    for phi in chain:
        image = []
        for letter in w.letters:
            image.extend(oracle_letter_image(phi, letter))
        w = Word(free_reduce(image), w.rank)
    return w


def assert_same(result: Word, expected: Word):
    assert result.letters == expected.letters
    assert result.rank == expected.rank
    # the full check accepts every derived word
    assert Word(result.letters, result.rank) == result


ranks = st.integers(2, 5)


def word_of(rank, max_size=16):
    return letters_strategy(rank, max_size).map(lambda ls: Word.from_letters(ls, rank))


@st.composite
def word_pairs(draw):
    """Two words of one rank, a = p q and b = q^-1 r, so that up to |q|
    letters cancel at the junction of a * b."""
    rank = draw(ranks)
    p, q, r = (draw(word_of(rank)) for _ in range(3))
    return oracle_mul(p, q), oracle_mul(oracle_inverse(q), r)


@st.composite
def conjugates(draw, rank=None):
    """u c u^-1 for random u and c: usually not cyclically reduced."""
    rank = draw(ranks) if rank is None else rank
    u, c = draw(word_of(rank)), draw(word_of(rank))
    return oracle_mul(oracle_mul(u, c), oracle_inverse(u))


@st.composite
def automorphism_chains(draw):
    rank = draw(ranks)
    chain = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            count = 2 * rank * _moves_per_multiplier(rank)
            chain.append(_multiplier_move_at(rank, draw(st.integers(0, count - 1))))
        else:
            count = math.factorial(rank) << rank
            chain.append(_signed_permutation_at(rank, draw(st.integers(0, count - 1))))
    return rank, tuple(chain)


class TestDerivedWordsMatchOracles:
    @given(word_pairs())
    @settings(max_examples=200)
    def test_product(self, pair):
        a, b = pair
        assert_same(a * b, oracle_mul(a, b))
        assert_same(b * a, oracle_mul(b, a))

    @given(ranks.flatmap(word_of))
    @settings(max_examples=100)
    def test_total_cancellation(self, w):
        assert_same(w * w.inverse(), Word.identity(w.rank))
        assert_same(w.inverse() * w, Word.identity(w.rank))
        assert_same(w.inverse(), oracle_inverse(w))

    @given(ranks.flatmap(word_of))
    @settings(max_examples=100)
    def test_identity_operands(self, w):
        e = Word.identity(w.rank)
        assert_same(w * e, w)
        assert_same(e * w, w)
        assert_same(e * e, e)

    @given(conjugates(), st.integers(-3, 3))
    @settings(max_examples=200)
    def test_power(self, w, n):
        assert_same(w**n, oracle_pow(w, n))

    @given(st.data())
    @settings(max_examples=150)
    def test_ad(self, data):
        rank = data.draw(ranks)
        b = data.draw(word_of(rank, 8).filter(lambda b: not b.is_identity()))
        w = data.draw(conjugates(rank) | word_of(rank))
        k = data.draw(st.integers(-3, 3))
        assert_same(ad(b, w, k), oracle_ad(b, w, k))
        assert_same(w.conjugated_by(b), oracle_ad(b, w, 1))

    @given(automorphism_chains(), st.data())
    @settings(max_examples=200)
    def test_apply_automorphism(self, rank_chain, data):
        rank, chain = rank_chain
        w = data.draw(word_of(rank, 24))
        assert_same(apply_automorphism(chain, w), oracle_apply(chain, w))

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6, 7, 8])
    def test_composed_chain_table(self, rank):
        # one reduction through the composed table is the sequential
        # application of the chain, move by move; the table, built from
        # the generators' images alone, holds every letter's image under
        # the per-letter oracle
        rng = random.Random(rank)
        moves = 2 * rank * _moves_per_multiplier(rank)
        perms = math.factorial(rank) << rank
        for _ in range(60):
            chain = tuple(
                _multiplier_move_at(rank, rng.randrange(moves))
                if rng.random() < 0.7
                else _signed_permutation_at(rank, rng.randrange(perms))
                for _ in range(rng.randint(1, 4))
            )
            table = _chain_table(chain, rank)
            assert len(table) == 2 * rank + 1 and table[0] == ()
            for letter in (*range(1, rank + 1), *range(-rank, 0)):
                assert table[letter] == oracle_apply(chain, Word((letter,), rank)).letters
            for _ in range(10):
                w = random_word(rng.randint(0, 20), rank, rng)
                expected = oracle_apply(chain, w)
                assert _apply_table(table, w.letters) == expected.letters
                assert apply_automorphism(chain, w) == expected

    @pytest.mark.parametrize("rank", [2, 5, 8])
    def test_letter_table_inverts_each_image(self, rank):
        # entry i is generator i's image and entry -i its inverse, whether
        # the image has one letter or several
        rng = random.Random(rank)
        for _ in range(50):
            images = [random_word(rng.randint(1, 6), rank, rng).letters for _ in range(rank)]
            table = _letter_table(images)
            assert len(table) == 2 * rank + 1 and table[0] == ()
            for i, image in enumerate(images, 1):
                assert table[i] == image
                assert table[-i] == Word(image, rank).inverse().letters

    @given(conjugates())
    @settings(max_examples=100)
    def test_cyclic_reduce_parts(self, w):
        d = cyclic_reduce(w)
        for part in (d.conjugator, d.core):
            assert Word(part.letters, part.rank) == part


class TestBoundaryStillChecks:
    @pytest.mark.parametrize(
        "letters,error",
        [((1, -1), DomainError), ((3,), WordSyntaxError), ((0,), WordSyntaxError)],
    )
    def test_constructor(self, letters, error):
        with pytest.raises(error):
            Word(letters, 2)

    def test_from_letters(self):
        with pytest.raises(WordSyntaxError):
            Word.from_letters([5], 2)

    def test_list_letters_become_a_tuple(self):
        listed = Word([1, 2], 2)
        assert listed.letters == (1, 2) and type(listed.letters) is tuple
        assert listed == Word((1, 2), 2) and hash(listed) == hash(Word((1, 2), 2))
        assert listed * Word((1,), 2) == Word((1, 2, 1), 2)
        assert Word(iter([2, -1]), 2) == W("yX")

    @pytest.mark.parametrize("letters", [5, None, 1.5])
    def test_letters_not_a_sequence(self, letters):
        with pytest.raises(DomainError, match="letters must be a sequence"):
            Word(letters, 2)

    def test_automorphism_image_outside_rank(self):
        class Escapes:
            """Duck-typed automorphism whose image of x leaves the rank."""

            rank = 2

            def letter_image(self, letter):
                return (3,) if letter == 1 else (letter,)

        # only a WhAutomorphism, whose table was checked when it was built,
        # is applied; a move whose image leaves the rank cannot be built
        for element in (Escapes(), object(), None):
            with pytest.raises(DomainError, match="not a Whitehead automorphism"):
                apply_automorphism([element], W("yx"))
        with pytest.raises(RankError):
            WhAutomorphism.multiplier_move(1, {1, 3}, 2)

    def test_trusted_constructor_is_private(self):
        import freefactor

        assert not hasattr(freefactor, "_trusted_word")
        assert all(v is not words._trusted_word for v in vars(freefactor).values())
