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
``Word.from_letters`` and ``parse_word`` check every letter against the
alphabet and reject an unreduced word, ``random_word`` draws each letter
from the alphabet minus the one letter that would cancel, and
``apply_automorphism`` reads letter images off ``WhAutomorphism.table``,
checked when the automorphism was built.  A word derived from
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
import operator
import random
import re
from functools import lru_cache
from operator import attrgetter, neg

from .errors import (
    DomainError,
    NotCyclicallyReducedError,
    RankError,
    WordSyntaxError,
)

GENERATOR_CHARS = "xyzabcdefghijklmnopqrstuvw"
_CHAR_TO_INDEX = {c: i + 1 for i, c in enumerate(GENERATOR_CHARS)}
_TOKEN_RE = re.compile(r"^([xX])([0-9]+)$")
# The compact text of every letter of rank <= 26, indexed by the letter
# itself: 53 entries, so negative indexing puts the text of -i at index -i.
_LETTER_TEXT = ("", *GENERATOR_CHARS, *GENERATOR_CHARS[::-1].upper())


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


class _Value:
    """Equality and repr over the fields named in ``_fields``, in order,
    as ``dataclasses`` writes them: equal iff of the same class with equal
    fields, and ``Name(field=value, ...)``.  A subclass sets its fields in
    its own ``__init__``.  Without ``__hash__`` it is unhashable, as a
    mutable dataclass is.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        # _key(v) is the tuple of v's fields
        if "_fields" in cls.__dict__:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class _Frozen(_Value):
    """An immutable ``_Value``: hashed by its fields, refusing assignment
    and deletion with AttributeError, as a frozen dataclass.  Its
    ``__init__`` takes the fields positionally, in ``_fields`` order,
    writes them past ``__setattr__`` and then calls ``__post_init__``,
    which checks nothing unless a subclass overrides it.  Copies and
    pickles are rebuilt by ``__init__`` from ``_fields``, which are its
    arguments unless the subclass overrides ``__reduce__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{self.__class__.__qualname__}() takes {len(self._fields)} "
                f"arguments ({', '.join(self._fields)}), got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)


def _as_tuple(items, what: str) -> tuple:
    """``items`` as a tuple; DomainError if it is not a sequence."""
    if type(items) is tuple:
        return items
    try:
        return tuple(items)
    except TypeError:
        raise DomainError(f"{what} must be a sequence, got {items!r}") from None


class Word(_Frozen):
    """A freely reduced word over the rank-``rank`` alphabet.

    ``rank`` is read through ``operator.index``, so a numpy integer is
    stored as an int; one that is not an integer is a DomainError, and one
    below 2 a RankError.
    """

    __slots__ = _fields = ("letters", "rank")

    def __init__(self, letters, rank: int):
        _set_letters(self, _as_tuple(letters, "letters"))
        _set_rank(self, _checked_int(rank, "rank", 2, error=RankError))
        self.__post_init__()

    def __post_init__(self):
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
        return _trusted_word(_times(self.letters, other.letters), self.rank)

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
# past ``_Frozen.__setattr__``.
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
    rank = _checked_int(rank, "rank", 2, error=RankError)
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
                    f"generator index {index} is not in 1..{rank}"
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
        return "".join(map(_LETTER_TEXT.__getitem__, w.letters))
    return " ".join(
        ("x" if l > 0 else "X") + str(abs(l)) for l in w.letters
    )


class CyclicDecomposition(_Frozen):
    """w == conjugator * core * conjugator^-1 with the core cyclically reduced."""

    __slots__ = _fields = ("conjugator", "core")


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
    """The reduced product of reduced letter tuples (``Word.__mul__``):
    only the junction cancels."""
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


class BReducedDecomposition(_Frozen):
    """w == b^k * core * b^-k as reduced words, with |k| maximal."""

    __slots__ = _fields = ("k", "core", "b")


def _require_axis_word(b: Word) -> None:
    """An axis of b, and a b-decomposition, need b nonempty and cyclically reduced."""
    if b.is_identity():
        raise NotCyclicallyReducedError("b must be nonempty")
    if not b.is_cyclically_reduced():
        raise NotCyclicallyReducedError(f"b = {b} is not cyclically reduced")


def _b_exponent(
    ls: tuple[int, ...], i: int, bl: tuple[int, ...], binv: tuple[int, ...]
) -> tuple[int, int | None]:
    """The balanced b-exponent of the reduced word ``ls``, for a nonempty
    cyclically reduced b with letters ``bl`` and inverse letters ``binv``,
    read off its longest conjugator u = ls[:i] (``i = _peel(ls)``): the
    number K of whole b blocks that u starts with if K >= 1, else minus
    the number J of whole b^-1 blocks it starts with.  The second value,
    for a caller choosing a witness, is the letter that would continue the
    next b^-1 block when the value is -J and the rest of u after those
    blocks is a proper (possibly empty) prefix of b^-1; None otherwise.

    Proof.  Let w = u c u^-1 be nonempty, so that c is nonempty and
    cyclically reduced.  w = b^k m b^-k letter for letter (k >= 1, m
    nonempty) says that w and w^-1 = u c^-1 u^-1 both start with b^k and
    2k|b| < |w|.  The two agree on u and part right after it, at c[0]
    against c[-1]^-1, which differ as c is cyclically reduced.  So b^k is
    a prefix of both iff it is a prefix of u, and then 2k|b| <= 2|u| <
    |w| holds by itself: the largest such k is K.  With b^-1 for b, the
    largest k with w = b^-k m b^k is J.  b[0] != b[-1]^-1, so u does not
    start with both b and b^-1, and the exponent is K if K >= 1, else -J.
    The empty word peels to i = 0 and gets 0.
    """
    m = len(bl)
    cap = i // m
    k = 0
    while k < cap and ls[k * m : (k + 1) * m] == bl:
        k += 1
    if k:
        return k, None
    while k < cap and ls[k * m : (k + 1) * m] == binv:
        k += 1
    rest = ls[k * m : i]
    if len(rest) < m and rest == binv[: len(rest)]:
        return -k, binv[len(rest)]
    return -k, None


def b_reduced_decomposition(w: Word, b: Word) -> BReducedDecomposition:
    """Strip the maximal balanced b-power: w == b^k * core * b^-k, |k| maximal.

    Both junctions of the returned decomposition are reduced (the
    concatenation is letter-for-letter equal to ``w``).  The maximizer is
    unique, and k is read off the longest conjugator of w by
    ``_b_exponent``.  The identity word gets k = 0 with an empty core.
    """
    if w.rank != b.rank:
        raise RankError("w and b must have the same rank")
    _require_axis_word(b)
    ls, bl = w.letters, b.letters
    k = _b_exponent(ls, _peel(ls), bl, b.inverse().letters)[0]
    cut = abs(k) * len(bl)
    core = _trusted_word(ls[cut : len(ls) - cut], w.rank)
    return BReducedDecomposition(k, core, b)


def b_index(w: Word, b: Word) -> int:
    """The exponent k of the maximal balanced decomposition w == b^k core b^-k."""
    return b_reduced_decomposition(w, b).k


def ad(b: Word, w: Word, k: int = 1) -> Word:
    """Conjugate: the reduction of b^k * w * b^-k."""
    return (b**k) * w * (b**-k)


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


def _apply_table(table, letters: tuple[int, ...]) -> tuple[int, ...]:
    """The image of a letter tuple under a checked letter-image table, laid
    out as ``WhAutomorphism.table``: the images of its letters concatenated
    and freely reduced once."""
    return free_reduce(itertools.chain.from_iterable(map(table.__getitem__, letters)))


def apply_automorphism(chain, w: Word) -> Word:
    """Apply a sequence of automorphisms left to right.

    A chain ``[g1, g2]`` acts as the composite ``g2 o g1`` (g1 first).  Each
    element is a ``WhAutomorphism`` (anything else raises DomainError), and
    each step concatenates the images of w's letters in its checked
    ``table`` and freely reduces the result once.
    """
    for phi in chain:
        # the try costs nothing until it catches (Python 3.11+)
        try:
            rank, table = phi.rank, phi.table
        except AttributeError:
            raise DomainError(f"{phi!r} is not a Whitehead automorphism") from None
        if rank != w.rank:
            raise RankError(f"automorphism of rank {rank} on a word of rank {w.rank}")
        w = _trusted_word(_apply_table(table, w.letters), w.rank)
    return w


def _chain_table(chain, rank: int) -> tuple[tuple[int, ...], ...]:
    """The letter-image table, laid out as ``WhAutomorphism.table``, of
    the composite of ``chain`` applied left to right: each letter's image
    under ``apply_automorphism(chain, .)``.

    An automorphism is a homomorphism, so the image of a word is the
    product of its letters' images, and reduced words are unique: for a
    word w of this rank, ``_apply_table(table, w.letters)`` is the letters
    of ``apply_automorphism(chain, w)``, with one reduction in place of
    one per element of the chain.
    """
    letters = (*range(1, rank + 1), *range(-rank, 0))
    return (
        (),
        *(apply_automorphism(chain, _trusted_word((l,), rank)).letters for l in letters),
    )


def _checked_int(
    value, what: str, low: int | None, high: int | None = None, error=DomainError
) -> int:
    """``value`` as an int (``operator.index``) in [low, high], at least
    ``low`` when ``high`` is None, and any int when ``low`` is None;
    DomainError for a non-integer and ``error``, a DomainError, for one
    out of range."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if low is None:
        return value
    if value < low or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{what} must be {bounds}, got {value}")
    return value


# (rank, previous letter) choice tuples kept: every pair at ranks 2-26 fits
_CHOICE_TUPLES = 1024


@lru_cache(maxsize=_CHOICE_TUPLES)
def _letter_choices(rank: int, prev: int) -> tuple[int, ...]:
    """The letters that may follow ``prev`` in a reduced word, in the order
    x1..xr, X1..Xr: all 2*rank but prev^-1, and all 2*rank for prev = 0,
    which stands for no letter yet."""
    alphabet = (*range(1, rank + 1), *range(-1, -rank - 1, -1))
    return tuple(l for l in alphabet if l != -prev)


def _random_letters(length: int, rank: int, rng: random.Random) -> tuple[int, ...]:
    """The letters of ``random_word(length, rank, rng)``, for a checked
    length and rank: one ``rng.choice`` per letter over its choice tuple."""
    choice = rng.choice
    letters = []
    prev = 0
    for _ in range(length):
        prev = choice(_letter_choices(rank, prev))
        letters.append(prev)
    return tuple(letters)


def _random_stream(seed) -> random.Random:
    """``seed`` itself if it is a ``random.Random``, else a new stream seeded
    with it; DomainError, naming the accepted types, for a seed that
    ``random.Random`` refuses."""
    if isinstance(seed, random.Random):
        return seed
    try:
        return random.Random(seed)
    except TypeError:
        raise DomainError(
            "seed must be None, an int, a float, a str, bytes, a bytearray "
            f"or a random.Random, got {seed!r}"
        ) from None


def random_word(length: int, rank: int, seed) -> Word:
    """Uniformly random reduced word of exactly ``length`` letters.

    The first letter is uniform over the 2*rank letters, each later letter
    uniform over the 2*rank - 1 non-cancelling choices.  ``seed`` is a
    ``random.Random`` or a seed of one (``_random_stream``); fixed seeds
    reproduce.

    Each letter is one ``rng.choice`` over its candidates in the order
    x1..xr, X1..Xr without the inverse of the letter before, as the
    sampler that rebuilt that list for every letter drew it.  The stream
    is consumed call for call as then, and each draw picks the same
    letter, so every seeded report that samples words is byte-identical.
    """
    length = _checked_int(length, "length", 0)
    rank = _checked_int(rank, "rank", 2, error=RankError)
    rng = _random_stream(seed)
    return _trusted_word(_random_letters(length, rank, rng), rank)
