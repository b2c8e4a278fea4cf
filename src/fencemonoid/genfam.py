"""Named transformation families and distinguished generating sets.

The point-deleted identities eps_i, the near-identity rotations sig1 /
sig2 (mutually inverse, rank n-1), the prefix reversals gam_i, the
suffix reversal-shifts del_i, and the two-point-deleted interval
reversals beta_{i,j} are the building blocks of every factorization
this package produces.  set_j collects all elements of rank >= n-2
(a generating set for every n); set_g is {id, sig1, sig2} + gammas +
deltas, the least generating set when n is even, of size n+1.  A
:class:`Word` is a product of elements, and :func:`_value` folds one
into the bytes image it evaluates to, through
:func:`~fencemonoid.pinj.translate_table`.

Every interval move, here and in :mod:`factor` (the reversals and
shifts of the constructive factorization), is laid out by one builder,
:func:`interval_map`: fixed prefix, at most one dropped point, the
moved interval, a gap of dropped points, fixed suffix.  Every letter
is a :class:`Letter`, checked and given its table by one gate,
:func:`checked_letter`; :func:`named` is the one place where a
:class:`GeneratorSpec` becomes a letter, which keeps it as its name.
Over set_g, :func:`g_word_for` gives each letter the factorization
makes a closed-form word from one table of identities,
:func:`_table_word`; no word is searched for.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter

# closure is uncalled: the tracer's CLOSURE_BINDINGS time it, to report genfam.g_closure_s
from .enumeration import closure, place_blocks
from .fence import in_if
from .pinj import PartialInjection, SizeMismatchError, parse, translate_table


class BadIndexError(ValueError):
    """Interval or generator indices out of range for the ambient size."""


class OddAmbientError(ValueError):
    pass


class FactorizationError(RuntimeError):
    """A letter or a factorization step failed its check: a defect of the
    pipeline, which :func:`~fencemonoid.factor.factorize_j` and
    :func:`~fencemonoid.factor.factorize_g` raise, never answering with a
    word from another method."""


class Letter(PartialInjection):
    """A checked letter: an element of IF_n of rank >= n-2 that keeps its
    translate table ``_table`` and ``spec``, the :class:`GeneratorSpec`
    it was named by, or None.  It equals, hashes and multiplies as the
    element it is; only :func:`checked_letter` makes one."""

    __slots__ = ("_table", "spec")


def checked_letter(a: PartialInjection, spec=None) -> Letter:
    """The letter gate: ``a`` as a :class:`Letter` named ``spec``, once
    ``a`` is shown to have rank >= n-2 and to lie in IF_n; raises
    :class:`FactorizationError` otherwise.  Every memoised letter, named
    generator, reversal or rotation, passes here once, where it is made."""
    if a.rank < a.n - 2:
        raise FactorizationError(f"letter {a.encode()} is not high-rank")
    if not in_if(a):
        raise FactorizationError(f"letter {a.encode()} escapes the semigroup")
    letter = Letter(a.n, a.raw)
    letter._table = translate_table(a.raw)
    letter.spec = spec
    return letter


def interval_map(n: int, m: int, values, gap: int = 2) -> PartialInjection:
    """The interval move onto the sequence ``values``: fix {1..m-2}, drop
    m-1, send m, m+1, ... onto ``values`` in turn (0 drops a point), drop
    the next gap-1 points and fix the rest.  Dropped points past n are
    omitted; an interval that starts below 1 or runs past n raises."""
    end = m + len(values)  # the first point after the interval
    if m < 1 or gap < 1 or end > n + 1:
        raise BadIndexError(f"interval [{m}, {end - 1}] with gap {gap} does not fit in 1..{n}")
    return PartialInjection(n, (
        *range(1, m - 1), *(0,) * min(1, m - 1),
        *values,
        *(0,) * min(gap - 1, n + 1 - end), *range(end + gap - 1, n + 1),
    ))


def epsilon(n: int, i: int) -> PartialInjection:
    """Identity on {1..n} minus {i}: the rank n-1 idempotents."""
    if not 1 <= i <= n:
        raise BadIndexError(f"epsilon index must be in 1..{n}, got {i}")
    return interval_map(n, i + 1, (), 1)  # the empty move at i+1 drops only i


def sigma1(n: int) -> PartialInjection:
    """1 -> n, x -> x-2 for 3 <= x <= n; undefined at 2.  Rank n-1, even n only."""
    if n % 2 or n < 2:
        raise OddAmbientError(f"sigma1 needs even ambient size, got {n}")
    return _eta_left(n, n)


def sigma2(n: int) -> PartialInjection:
    """The inverse of sigma1: x -> x+2 for x <= n-2, n -> 1."""
    if n % 2 or n < 2:
        raise OddAmbientError(f"sigma2 needs even ambient size, got {n}")
    return _eta_right(n, n)


def gamma(n: int, i: int) -> PartialInjection:
    """Reverse {1..i-1} in place, fix {i+1..n}; undefined at i.  i even, 4 <= i <= n."""
    if i % 2 or not 4 <= i <= n:
        raise BadIndexError(f"gamma index must be even in 4..{n}, got {i}")
    return interval_map(n, 1, range(i - 1, 0, -1))


def delta(n: int, i: int) -> PartialInjection:
    """Fix {1..i-1}, reverse {i+1..n} in place; undefined at i.

    i odd, 1 <= i <= n-3; needs even n (the reversed suffix would flip
    parities otherwise and leave the semigroup).
    """
    if n % 2:
        raise OddAmbientError(f"delta needs even ambient size, got {n}")
    if i % 2 == 0 or not 1 <= i <= n - 3:
        raise BadIndexError(f"delta index must be odd in 1..{n - 3}, got {i}")
    return interval_map(n, i + 1, range(n, i, -1))


def beta(n: int, i: int, j: int) -> PartialInjection:
    """Reverse the open interval (i, j), fix everything outside {i, j}.

    Needs i < j of equal parity; self-inverse, rank n-2.
    """
    if not (1 <= i < j <= n):
        raise BadIndexError(f"beta needs 1 <= i < j <= {n}, got ({i}, {j})")
    if (j - i) % 2:
        raise BadIndexError(f"beta indices must share parity, got ({i}, {j})")
    return interval_map(n, i + 1, range(j - 1, i, -1))


_FAMILIES = ("id", "sig1", "sig2", "eps", "gam", "del", "beta")


class GeneratorSpec(tuple):
    """Symbolic reference to a named generator; serializes as e.g. ``gam:4``.

    The tuple (family, i, j), so it hashes and compares at C level, as
    that tuple: a spec equals the plain tuple of its fields.  Only the
    constructor validates the family.
    """

    __slots__ = ()

    def __new__(cls, family: str, i: int | None = None, j: int | None = None):
        if family not in _FAMILIES:
            raise BadIndexError(f"unknown family {family!r}")
        return tuple.__new__(cls, (family, i, j))

    family = property(itemgetter(0))
    i = property(itemgetter(1))
    j = property(itemgetter(2))

    def __reduce__(self):
        # rebuilt through __new__, so a copy is validated as a new spec is
        return type(self), tuple(self)

    def __repr__(self):
        return f"GeneratorSpec(family={self.family!r}, i={self.i!r}, j={self.j!r})"

    def text(self) -> str:
        if self.family == "beta":
            return f"beta:{self.i},{self.j}"
        if self.i is not None:
            return f"{self.family}:{self.i}"
        return self.family

    @classmethod
    def parse(cls, text: str) -> "GeneratorSpec":
        name, _, rest = text.strip().partition(":")
        if name == "beta":
            i, _, j = rest.partition(",")
            return cls("beta", int(i), int(j))
        if rest:
            return cls(name, int(rest))
        return cls(name)


@functools.lru_cache(maxsize=1024)
def named(n: int, spec: GeneratorSpec) -> Letter:
    """The generator ``spec`` names, as a :class:`Letter` on {1..n} that
    keeps ``spec`` and its translate table: the one place where a spec
    becomes a letter.  Memoised, so each named letter passes the gate
    :func:`checked_letter` once."""
    fam = spec.family
    if fam == "id":
        a = PartialInjection.identity(n)
    elif fam == "sig1":
        a = sigma1(n)
    elif fam == "sig2":
        a = sigma2(n)
    elif fam == "eps":
        a = epsilon(n, spec.i)
    elif fam == "gam":
        a = gamma(n, spec.i)
    elif fam == "del":
        a = delta(n, spec.i)
    else:
        a = beta(n, spec.i, spec.j)
    return checked_letter(a, spec)


# --- words -------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A sequence of letters, each an element of the same ambient size,
    with an evaluation contract: the product is taken left to right, and
    the empty word denotes the identity.  A :class:`Letter` named by a
    spec prints as its spec, any other letter as its image."""

    n: int
    letters: tuple = ()
    provenance: str = "direct"
    fallback = False  # a class constant: the v1 payload keeps the field
    bfs_letters = 0  # a class constant: the v1 payload keeps the field

    def __len__(self):
        return len(self.letters)

    def text(self) -> str:
        parts = [
            l.spec.text() if l.spec is not None else l.encode().partition(":")[2]
            for l in self.letters
        ]
        return " ".join([f"w{self.n}:"] + parts)


def _value(letters, n: int) -> bytes:
    """The bytes image of the product of the letters, which are elements;
    () is the identity.

    The fold runs on the :func:`~fencemonoid.pinj.translate_table`
    kernel: from the identity, each letter translates the running image
    through its table.  A :class:`Letter` keeps its table; any other
    element gets a throwaway one, so no caller's element keeps a table.
    A letter of another ambient size raises :class:`SizeMismatchError`,
    as the element product does."""
    acc = bytes(range(1, n + 1))
    for letter in letters:
        if letter.n != n:
            raise SizeMismatchError(f"ambient sizes differ: {n} != {letter.n}")
        acc = acc.translate(letter._table or translate_table(letter.raw))
    return acc


def parse_word(text: str) -> Word:
    """Inverse of :meth:`Word.text`: a spec token becomes its
    :func:`named` letter, a bracketed image a plain element.  Raw letters
    may contain spaces, so tokenization is bracket-aware."""
    text = text.strip()
    head, _, rest = text.partition(":")
    if not head.startswith("w"):
        raise ValueError(f"bad word literal: {text!r}")
    n = int(head[1:])
    letters = []
    tokens = rest.split()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("["):
            while not tok.endswith("]"):
                i += 1
                if i == len(tokens):
                    raise ValueError(f"bad word literal: {text!r}")
                tok += " " + tokens[i]
            letters.append(parse(f"n={n}:{tok}"))
        else:
            letters.append(named(n, GeneratorSpec.parse(tok)))
        i += 1
    return Word(n, tuple(letters))


def set_j(n: int):
    """All elements of rank >= n-2, built by direct high-rank generation.

    The block-placement generator of :mod:`enumeration` runs over the
    domains that omit at most two points, so the candidate space is tiny
    and never touches the full monoid.
    """
    if n < 1:
        raise BadIndexError("ambient size must be positive")
    pts = range(1, n + 1)
    domains = [
        tuple(x for x in pts if x not in omit)
        for k in range(3)
        for omit in itertools.combinations(pts, k)
    ]
    return tuple(PartialInjection(n, img) for img in sorted(place_blocks(n, domains)))


def set_g(n: int):
    """{id, sig1, sig2} + all gammas + all deltas: n+1 elements, even n."""
    if n % 2:
        raise OddAmbientError(f"the distinguished generating set needs even n, got {n}")
    gens = _g_letters(n)  # keyed by element, so equal elements collapse
    if len(gens) != n + 1:
        raise RuntimeError(f"set_g({n}) does not have n+1 distinct generators")
    return tuple(sorted(gens))


# --- expressing elements over set_g ----------------------------------------


def _eta_left(n: int, a: int) -> PartialInjection:
    """1 -> a, x -> x-2 for 3 <= x <= a, fix above a+1 (a even)."""
    return interval_map(n, 1, (a, 0, *range(1, a - 1)))


def _eta_right(n: int, c: int) -> PartialInjection:
    """x -> x+2 for x <= c-2, c -> 1, fix above c+1 (c even): the inverse
    of ``_eta_left(n, c)``, laid out directly."""
    return interval_map(n, 1, (*range(3, c + 1), 0, 1))


def _g(n: int, family: str, i: int | None = None) -> Letter:
    """The named letter of a set_g family on {1..n}."""
    return named(n, GeneratorSpec(family, i))


@functools.lru_cache(maxsize=8)
def _g_letters(n: int):
    """The n+1 distinguished generators of set_g, each element mapped to
    its named letter."""
    letters = [_g(n, "id"), _g(n, "sig1"), _g(n, "sig2")]
    letters += [_g(n, "gam", i) for i in range(4, n + 1, 2)]
    letters += [_g(n, "del", i) for i in range(1, n - 2, 2)]
    return dict(zip(letters, letters))


def _epsilon_word(n: int, i: int):
    """Two-letter expression for eps_i over set_g; total for even n."""
    if i % 2 == 0:
        if i == 2:
            return [_g(n, "sig1"), _g(n, "sig2")]
        return [_g(n, "gam", i)] * 2
    if i <= n - 3:
        return [_g(n, "del", i)] * 2
    return [_g(n, "sig2"), _g(n, "sig1")]  # i == n-1


def _table_word(n: int, target: PartialInjection):
    """Match ``target`` against the closed identity table; None if no hit.

    Covers the set_g members themselves, every partial identity of rank
    n-1 or n-2 (a product of eps words), the parity-repair rotations at
    every even a below n, and the interval reversals beta_{i,j} of span
    at least 4, which expand through the gamma/delta ranges.  These are
    all the letters :func:`~fencemonoid.factor._constructive` makes.
    """
    lookup = _g_letters(n)
    if target in lookup:
        return [lookup[target]]
    dom = target.domain()
    missing = sorted(set(range(1, n + 1)) - set(dom))
    if target.is_partial_identity() and 1 <= len(missing) <= 2:
        return [letter for i in missing for letter in _epsilon_word(n, i)]
    for a in range(2, n - 1, 2):
        # a rotation is sig1 or sig2 between del:(a+1) and del:(a-1); at
        # a = n-2 there is no del:(n-1), and the word needs none
        outer = [_g(n, "del", a + 1)] if a < n - 2 else []
        if target == _eta_left(n, a):
            return [*outer, _g(n, "sig1"), _g(n, "del", a - 1)]
        if target == _eta_right(n, a):
            return [_g(n, "del", a - 1), _g(n, "sig2"), *outer]
    if len(dom) == n - 2:
        (i, j) = missing
        if (j - i) % 2 == 0 and target == beta(n, i, j):
            if i % 2 == 1 and 1 <= n - j + i + 1 <= n - 3:
                return [_g(n, "del", i), _g(n, "del", n - j + i + 1), _g(n, "del", i)]
            if i % 2 == 0 and j - i >= 4:
                return [_g(n, "gam", j), _g(n, "gam", j - i), _g(n, "gam", j)]
    return None


@functools.lru_cache(maxsize=4096)
def g_word_for(n: int, target: PartialInjection) -> Word:
    """The closed-form word over set_g of the letter ``target``.

    The word comes from :func:`_table_word` and is checked by
    evaluation.  A target outside the table, or a table word that does
    not evaluate to it, raises :class:`FactorizationError`: there is no
    search to fall back on.  Words are memoised per (n, target); a
    :class:`Word` is frozen, so sharing one is safe.
    """
    if n % 2:
        raise OddAmbientError(f"set_g words need even n, got {n}")
    letters = _table_word(n, target)
    if letters is None:
        raise FactorizationError(f"{target.encode()} has no closed-form word over set_g({n})")
    if _value(letters, n) != target.raw:
        raise FactorizationError(f"the table word for {target.encode()} does not evaluate to it")
    return Word(n, tuple(letters), provenance="table")
