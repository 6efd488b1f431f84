"""Words in a finitely generated free group.

Letters are nonzero integers: ``+i`` is the ``i``-th generator and ``-i``
its inverse, ``1 <= i <= rank``.  Words are kept freely reduced at all
times; the empty word is the identity.

Two interchangeable text forms are accepted:

* compact -- one character per letter.  Generators are the lowercase
  letters ``x y z a b c ... w`` *in that order* (so ``x`` is generator 1,
  ``y`` is 2, ``z`` is 3, then ``a`` is 4 and so on up to ``w`` = 26);
  the uppercase letter is the inverse.  ``"xyX"`` reads x y x^-1.
* tokens -- whitespace-separated ``x<i>`` / ``X<i>``, e.g. ``"x1 X2 x1"``.

``"1"`` (or the empty string) denotes the identity.  Canonical output is
the compact form whenever the rank allows it.

Letters are checked where they come in from outside: ``Word(...)``,
``Word.from_letters``, ``parse_word`` and ``random_word`` check every
letter against the alphabet and reject an unreduced word, and
``apply_automorphism`` checks each automorphism's letter images once, when
it first builds that automorphism's image table.  A word derived from
checked words of one rank is built by the private ``_trusted_word`` with
no re-check: it is a product, power, slice or inverse of reduced words
over that alphabet, so its letters are in the alphabet already, and each
operation cancels wherever two reduced words meet (``*`` scans only the
junction; ``**`` writes w = u c u^-1 with c cyclically reduced and
returns u c^n u^-1, which is reduced as written).

All values are immutable after construction and every operation is pure,
so concurrent callers need no coordination.
"""

from __future__ import annotations

import itertools
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from operator import neg

from .errors import (
    DomainError,
    InternalContradictionError,
    NotCyclicallyReducedError,
    RankError,
    WordSyntaxError,
)

GENERATOR_CHARS = "xyzabcdefghijklmnopqrstuvw"
_CHAR_TO_INDEX = {c: i + 1 for i, c in enumerate(GENERATOR_CHARS)}
_TOKEN_RE = re.compile(r"^([xX])([0-9]+)$")


def free_reduce(letters) -> tuple[int, ...]:
    """Freely reduce a letter sequence by stack cancellation.

    The result has no adjacent inverse pair and represents the same group
    element; its length is minimal among words equal to the input.
    """
    out: list[int] = []
    push, pop = out.append, out.pop
    cancel = None  # the letter that would cancel the top of ``out``
    for letter in letters:
        if letter == cancel:
            pop()
            cancel = -out[-1] if out else None
        else:
            push(letter)
            cancel = -letter
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word over the rank-``rank`` alphabet."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise RankError(f"rank must be at least 2, got {self.rank}")
        prev = 0
        for letter in self.letters:
            if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
                raise WordSyntaxError(
                    f"letter {letter!r} outside alphabet of rank {self.rank}"
                )
            if letter == -prev:
                raise DomainError("word is not freely reduced")
            prev = letter

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls((), rank)

    @classmethod
    def from_letters(cls, letters, rank: int) -> "Word":
        """Build a word from an arbitrary letter sequence, reducing it."""
        return cls(free_reduce(letters), rank)

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def is_cyclically_reduced(self) -> bool:
        ls = self.letters
        return len(ls) < 2 or ls[0] != -ls[-1]

    def inverse(self) -> "Word":
        return _trusted_word(tuple(map(neg, reversed(self.letters))), self.rank)

    def __mul__(self, other: "Word") -> "Word":
        """The reduced product: only the junction of two reduced words can
        cancel, so the scan stops at the first letter pair that does not."""
        if self.rank != other.rank:
            raise RankError("cannot multiply words of different ranks")
        a, b = self.letters, other.letters
        n, k = len(a), 0
        stop = min(n, len(b))
        while k < stop and a[n - 1 - k] == -b[k]:
            k += 1
        return _trusted_word(a[: n - k] + b[k:] if k else a + b, self.rank)

    def __pow__(self, n: int) -> "Word":
        """w^n as u c^n u^-1, where w = u c u^-1 with c cyclically reduced:
        every junction of that product is reduced, so nothing cancels."""
        ls = self.letters
        i = _peel(ls)
        core = ls[i : len(ls) - i]
        if n < 0:
            core = tuple(map(neg, reversed(core)))
        return _trusted_word(
            ls[:i] + core * abs(n) + ls[len(ls) - i :] if n else (), self.rank
        )

    def conjugated_by(self, g: "Word") -> "Word":
        """Return g * self * g^-1."""
        return g * self * g.inverse()

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, rank={self.rank})"


# The slot descriptors' setters write a frozen Word's two fields directly,
# without the lookup ``object.__setattr__`` makes per call.
_set_letters = Word.letters.__set__
_set_rank = Word.rank.__set__


def _trusted_word(letters: tuple[int, ...], rank: int) -> Word:
    """A Word built without ``__post_init__``'s check.

    Only for letters derived from checked words of the same rank (see the
    module docstring): the caller guarantees a freely reduced tuple over
    the rank-``rank`` alphabet.
    """
    w = object.__new__(Word)
    _set_letters(w, letters)
    _set_rank(w, rank)
    return w


def parse_word(text: str, rank: int) -> Word:
    """Parse compact or token form; the result is freely reduced.

    >>> parse_word("xyX", 2).letters
    (1, 2, -1)
    >>> parse_word("xX", 2).letters
    ()
    >>> parse_word("x1 X2 x1", 3).letters
    (1, -2, 1)
    """
    if rank < 2:
        raise RankError(f"rank must be at least 2, got {rank}")
    text = text.strip()
    if text in ("", "1"):
        return Word.identity(rank)
    letters = []
    if any(ch.isspace() for ch in text) or any(ch.isdigit() for ch in text):
        for token in text.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise WordSyntaxError(f"unknown token {token!r}")
            index = int(m.group(2))
            if not 1 <= index <= rank:
                raise WordSyntaxError(
                    f"generator index {index} exceeds rank {rank}"
                )
            letters.append(index if m.group(1) == "x" else -index)
    else:
        for ch in text:
            index = _CHAR_TO_INDEX.get(ch.lower())
            if index is None:
                raise WordSyntaxError(f"unknown character {ch!r}")
            if index > rank:
                raise WordSyntaxError(
                    f"generator {ch.lower()!r} (index {index}) exceeds rank {rank}"
                )
            letters.append(-index if ch.isupper() else index)
    return Word.from_letters(letters, rank)


def format_word(w: Word) -> str:
    """Canonical text of a word: compact for rank <= 26, tokens otherwise."""
    if not w.letters:
        return "1"
    if w.rank <= 26:
        chars = []
        for letter in w.letters:
            c = GENERATOR_CHARS[abs(letter) - 1]
            chars.append(c.upper() if letter < 0 else c)
        return "".join(chars)
    return " ".join(
        ("x" if l > 0 else "X") + str(abs(l)) for l in w.letters
    )


@dataclass(frozen=True, slots=True)
class CyclicDecomposition:
    """w == conjugator * core * conjugator^-1 with the core cyclically reduced."""

    conjugator: Word
    core: Word


def cyclic_reduce(w: Word) -> CyclicDecomposition:
    """Peel matching end letters until the core is cyclically reduced.

    The conjugator is the longest possible, so the decomposition is unique.
    """
    ls = w.letters
    i = _peel(ls)
    return CyclicDecomposition(
        _trusted_word(ls[:i], w.rank), _trusted_word(ls[i : len(ls) - i], w.rank)
    )


def _times(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """``Word.__mul__`` on reduced letter tuples: only the junction cancels."""
    n, k = len(a), 0
    stop = min(n, len(b))
    while k < stop and a[n - 1 - k] == -b[k]:
        k += 1
    return a[: n - k] + b[k:]


def _peel(ls: tuple[int, ...]) -> int:
    """Length of the longest conjugator u with ls == u c u^-1."""
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    return i


@dataclass(frozen=True, slots=True)
class BReducedDecomposition:
    """w == b^k * core * b^-k as reduced words, with |k| maximal."""

    k: int
    core: Word
    b: Word


def _require_axis_word(b: Word) -> None:
    """An axis of b, and a b-decomposition, need b nonempty and cyclically reduced."""
    if b.is_identity():
        raise NotCyclicallyReducedError("b must be nonempty")
    if not b.is_cyclically_reduced():
        raise NotCyclicallyReducedError(f"b = {b} is not cyclically reduced")


def _leading_power(seq: tuple[int, ...], block: tuple[int, ...], cap: int) -> int:
    m = len(block)
    count = 0
    while count < cap and seq[count * m : (count + 1) * m] == block:
        count += 1
    return count


def _trailing_power(seq: tuple[int, ...], block: tuple[int, ...], cap: int) -> int:
    n, m = len(seq), len(block)
    count = 0
    while count < cap and seq[n - (count + 1) * m : n - count * m] == block:
        count += 1
    return count


def b_reduced_decomposition(w: Word, b: Word) -> BReducedDecomposition:
    """Strip the maximal balanced b-power: w == b^k * core * b^-k, |k| maximal.

    Both junctions of the returned decomposition are reduced (the
    concatenation is letter-for-letter equal to ``w``).  A reduced word
    cannot begin with both ``b`` and ``b^-1``, so the maximizer is unique;
    positive and negative k are mutually exclusive.  The identity word gets
    k = 0 with an empty core.
    """
    if w.rank != b.rank:
        raise RankError("w and b must have the same rank")
    _require_axis_word(b)
    n, m = len(w), len(b)
    if n == 0:
        return BReducedDecomposition(0, w, b)
    # k copies in front and k in back need 2*k*m < n: an empty core would
    # force cancellation between b^k and b^-k.
    cap = (n - 1) // (2 * m)
    bl = b.letters
    binv = b.inverse().letters
    k = min(_leading_power(w.letters, bl, cap), _trailing_power(w.letters, binv, cap))
    if k == 0:
        k = -min(
            _leading_power(w.letters, binv, cap),
            _trailing_power(w.letters, bl, cap),
        )
    cut = abs(k) * m
    core = _trusted_word(w.letters[cut : n - cut], w.rank)
    return BReducedDecomposition(k, core, b)


def b_index(w: Word, b: Word) -> int:
    """The exponent k of the maximal balanced decomposition w == b^k core b^-k."""
    return b_reduced_decomposition(w, b).k


def ad(b: Word, w: Word, k: int = 1) -> Word:
    """Conjugate: the reduction of b^k * w * b^-k."""
    return (b**k) * w * (b**-k)


# Image tables kept: one per Whitehead move at ranks 2-5 fits, as in the
# whitehead unrankers' caches.
_IMAGE_TABLES = 4096


@lru_cache(maxsize=_IMAGE_TABLES)
def _image_table(phi) -> tuple[tuple[int, ...], ...]:
    """phi's image of every letter, indexed by the letter itself.

    The tuple has 2*rank + 1 entries, so Python's negative indexing puts
    the image of -i at index -i.  Every image letter is checked here, once
    per automorphism, against the rank-``phi.rank`` alphabet.
    """
    rank = phi.rank
    table = [()] * (2 * rank + 1)
    for letter in (*range(1, rank + 1), *range(-rank, 0)):
        image = tuple(phi.letter_image(letter))
        for l in image:
            if not isinstance(l, int) or l == 0 or abs(l) > rank:
                raise WordSyntaxError(
                    f"image letter {l!r} outside alphabet of rank {rank}"
                )
        table[letter] = image
    return tuple(table)


def apply_automorphism(chain, w: Word) -> Word:
    """Apply a sequence of automorphisms left to right.

    A chain ``[g1, g2]`` acts as the composite ``g2 o g1`` (g1 first).  Each
    element must be hashable and expose ``rank`` and
    ``letter_image(letter) -> tuple``; its letter images are read once into
    a bounded cache.  Each step concatenates the images of w's letters and
    freely reduces the result once.
    """
    for phi in chain:
        if phi.rank != w.rank:
            raise RankError(
                f"automorphism of rank {phi.rank} applied to word of rank {w.rank}"
            )
        images = map(_image_table(phi).__getitem__, w.letters)
        w = _trusted_word(free_reduce(itertools.chain.from_iterable(images)), w.rank)
    return w


def _positive_substitution(chain) -> dict[int, tuple[int, ...]]:
    """A rank-2 chain's images of the letters of {x, y} or of {x, Y},
    whichever alphabet A has every image a word over A, so that no power
    of the chain cancels on a word over A.  Raise
    InternalContradictionError if neither does."""
    images = {l: apply_automorphism(chain, Word((l,), 2)).letters for l in (1, 2, -2)}
    for alphabet in ((1, 2), (1, -2)):
        if all(set(images[a]) <= set(alphabet) for a in alphabet):
            return {a: images[a] for a in alphabet}
    raise InternalContradictionError(
        "the automorphism is a positive substitution on neither {x, y} nor {x, Y}"
    )


def _orbit_ends(images: dict, steps: int, window: int) -> Iterator[tuple]:
    """Yield (head, hidden, tail, letter counts) of sigma^r(x), r = 0, 1,
    ..., for the positive substitution sigma = ``images``.  A word longer
    than 2 * window keeps window letters at each end and counts the rest
    as ``hidden``; a shorter one is all ``head``.  No image is empty and
    nothing cancels, so the ends of sigma(w) are those of sigma applied to
    the ends of w, and the counts go through sigma's count matrix.

    The walk runs to r = steps, and on past it, for a caller that reads
    on, until the key (head, hidden > 0, tail) of some r repeats an
    earlier one; that entry is the last.  The key of sigma(w) is a
    function of the key of w: a word of at most 2 * window letters is its
    head, and once longer, the images of its window-letter ends hold at
    least window letters each and its image is longer still.  So from the
    first repeated key on, the keys cycle.  Past steps only the windows
    are walked: an entry there has no counts (None), and its hidden is
    only whether the word is longer than 2 * window.
    """
    head, tail, counts = (1,), (), {1: 1}
    seen = set()
    for r in itertools.count():
        if r:
            head, tail = (
                tuple(itertools.chain.from_iterable(map(images.__getitem__, seq)))
                for seq in (head, tail)
            )
            counts = {
                a: sum(n * images[c].count(a) for c, n in counts.items())
                for a in images
            } if r <= steps else None
        if counts:
            hidden = max(0, sum(counts.values()) - 2 * window)
        else:
            hidden = bool(tail) or len(head) > 2 * window
        if hidden:
            head, tail = head[:window], (tail or head)[-window:]
        yield head, hidden, tail, counts
        key = head, hidden > 0, tail
        if r >= steps and key in seen:
            return
        seen.add(key)


def random_word(length: int, rank: int, seed) -> Word:
    """Uniformly random reduced word of exactly ``length`` letters.

    The first letter is uniform over the 2*rank letters, each later letter
    uniform over the 2*rank - 1 non-cancelling choices.  ``seed`` may be an
    int, a string, or a ``random.Random`` instance; fixed seeds reproduce.
    """
    if length < 0:
        raise DomainError("length must be nonnegative")
    if rank < 2:
        raise RankError(f"rank must be at least 2, got {rank}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    letters: list[int] = []
    for _ in range(length):
        choices = [l for l in alphabet if not letters or l != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters), rank)
