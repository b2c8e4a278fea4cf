"""Exact arithmetic of partial injective self-maps of {1..n}.

Elements act on the right: ``x(a*b) = (xa)b``, so products read left to
right.  An element is stored as its bytes image ``raw``, of length n,
where ``raw[x-1]`` is the image of ``x`` and 0 means "undefined"; this
is the one element format.  Values are immutable and freely shareable.

Every product has one kernel, :func:`translate_table`: for bytes
images ``a`` and ``b``, ``a.translate(translate_table(b))`` is the
image of ``a*b``, and :func:`inverse_img` is the inverse kernel.  The
bulk products of :mod:`enumeration` run on the bytes images of a table
and build each right factor's table once; a word folds left to right,
one letter at a time.  A :class:`~fencemonoid.genfam.Letter`, the
element the letter gate :func:`~fencemonoid.genfam.checked_letter`
returns, keeps its table; any other operand is given a throwaway one.
"""

from __future__ import annotations

MAX_N = 32  # below 256: a translate table holds points as byte values

# per n: the points 1..n as bytes, and n zeros followed by them
_POINTS = [(bytes(range(1, n + 1)), bytes(n) + bytes(range(1, n + 1))) for n in range(MAX_N + 1)]
# a bytes img translated through this table is its pattern of defined slots
DEFINED = b"\0" + b"\1" * 255


class OutOfRangeError(ValueError):
    pass


class DuplicateSourceError(ValueError):
    pass


class DuplicateTargetError(ValueError):
    pass


class SizeMismatchError(ValueError):
    pass


class PartialInjection:
    """A partial injective map on {1..n}.

    ``raw`` is the length-n bytes image; slot x-1 holds the image of x,
    with 0 as the "undefined" sentinel.  The constructor keeps bytes as
    given and converts any other sequence of ints once.  ``img`` is a
    read-only tuple view of ``raw`` for tuple readers, such as
    :func:`canonical_key`.  Instances compare by (n, raw), hash by raw
    and sort by raw (bytes of one length sort as the tuples do), which
    gives the canonical total order used for deterministic enumeration.
    ``_table`` and ``spec`` are class-level None defaults, which the
    product and the word fold read without a branch; only a
    :class:`~fencemonoid.genfam.Letter` holds values in them.
    """

    __slots__ = ("n", "raw")
    _table = spec = None

    def __init__(self, n: int, img):
        # Trusted fast constructor: callers guarantee injectivity/range.
        self.n = n
        self.raw = img if img.__class__ is bytes else bytes(img)

    @property
    def img(self) -> tuple[int, ...]:
        """The image as a tuple of ints, a read-only view of ``raw``."""
        return tuple(self.raw)

    @classmethod
    def make(cls, n: int, pairs) -> "PartialInjection":
        """Build from (source, target) pairs, validating all invariants."""
        if not 1 <= n <= MAX_N:
            raise OutOfRangeError(f"ambient size must be in 1..{MAX_N}, got {n}")
        img = [0] * n
        seen_targets = set()
        for x, y in pairs:
            if not (1 <= x <= n):
                raise OutOfRangeError(f"source {x} not in 1..{n}")
            if not (1 <= y <= n):
                raise OutOfRangeError(f"target {y} not in 1..{n}")
            if img[x - 1]:
                raise DuplicateSourceError(f"source {x} assigned twice")
            if y in seen_targets:
                raise DuplicateTargetError(f"target {y} hit twice (injectivity)")
            img[x - 1] = y
            seen_targets.add(y)
        return cls(n, img)

    @classmethod
    def identity(cls, n: int) -> "PartialInjection":
        return cls(n, range(1, n + 1))

    @classmethod
    def empty(cls, n: int) -> "PartialInjection":
        return cls(n, bytes(n))

    @classmethod
    def identity_on(cls, n: int, points) -> "PartialInjection":
        """The identity map restricted to the given subset of {1..n}."""
        img = [0] * n
        for x in points:
            if not (1 <= x <= n):
                raise OutOfRangeError(f"point {x} not in 1..{n}")
            img[x - 1] = x
        return cls(n, img)

    def __call__(self, x: int):
        """Image of x, or None when undefined."""
        if not (1 <= x <= self.n):
            raise OutOfRangeError(f"point {x} not in 1..{self.n}")
        v = self.raw[x - 1]
        return v if v else None

    def domain(self) -> tuple[int, ...]:
        return tuple(x for x, v in enumerate(self.raw, 1) if v)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(v for v in self.raw if v))

    @property
    def rank(self) -> int:
        return self.n - self.raw.count(0)

    def __mul__(self, other: "PartialInjection") -> "PartialInjection":
        if not isinstance(other, PartialInjection):
            return NotImplemented
        if self.n != other.n:
            raise SizeMismatchError(f"ambient sizes differ: {self.n} != {other.n}")
        table = other._table or translate_table(other.raw)
        return PartialInjection(self.n, self.raw.translate(table))

    def inverse(self) -> "PartialInjection":
        return PartialInjection(self.n, inverse_img(self.raw))

    def is_partial_identity(self) -> bool:
        return all(v == 0 or v == x for x, v in enumerate(self.raw, start=1))

    def encode(self) -> str:
        """Bit-exact text form, entries sorted by source: ``n=6:[1>3 2>2]``."""
        entries = " ".join(
            f"{x}>{v}" for x, v in enumerate(self.raw, start=1) if v
        )
        return f"n={self.n}:[{entries}]"

    def __eq__(self, other):
        return (
            isinstance(other, PartialInjection)
            and self.n == other.n
            and self.raw == other.raw
        )

    def __hash__(self):
        # the bytes object caches its own hash, and no hash is kept on the
        # element, so a copy in another process hashes as that process does
        return hash(self.raw)

    def __lt__(self, other: "PartialInjection"):
        if self.n != other.n:
            raise SizeMismatchError("cannot order maps of different ambient size")
        return self.raw < other.raw

    def __repr__(self):
        return f"<pinj {self.encode()}>"


def translate_table(img: bytes) -> bytes:
    """The product kernel: ``acc.translate(translate_table(b))`` is the
    bytes image of ``acc*b``, for bytes images ``acc`` and ``b``.

    Slot ``v`` of the 256-byte table holds the image of ``v`` under ``b``
    and slot 0 keeps "undefined" undefined; the slots past n are never
    read.  Points are byte values, so n stays below 256 (:data:`MAX_N`).
    """
    return (b"\0" + img).ljust(256, b"\0")


def inverse_img(img: bytes) -> bytes:
    """The inverse kernel: the bytes image of the inverse map, for a
    bytes image.  The table ``maketrans``
    builds sends every point to 0, then each image point back to its
    source."""
    points, unset = _POINTS[len(img)]
    return points.translate(bytes.maketrans(points + img, unset))


def parse(text: str) -> PartialInjection:
    """Inverse of :meth:`PartialInjection.encode`."""
    text = text.strip()
    if not text.startswith("n="):
        raise ValueError(f"bad element literal: {text!r}")
    head, _, body = text.partition(":")
    try:
        n = int(head[2:])
    except ValueError:
        raise ValueError(f"bad ambient size in {text!r}") from None
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad element literal: {text!r}")
    pairs = []
    try:
        for tok in body[1:-1].split():
            x, _, y = tok.partition(">")
            pairs.append((int(x), int(y)))
    except ValueError:
        raise ValueError(f"bad element literal: {text!r}") from None
    return PartialInjection.make(n, pairs)


def make(n: int, pairs) -> PartialInjection:
    return PartialInjection.make(n, pairs)


def compose(a: PartialInjection, b: PartialInjection) -> PartialInjection:
    """Right-action composition: x(ab) = (xa)b."""
    return a * b


def inverse(a: PartialInjection) -> PartialInjection:
    return a.inverse()


def identity_on(n: int, points) -> PartialInjection:
    return PartialInjection.identity_on(n, points)


def canonical_key(a: PartialInjection) -> tuple[int, ...]:
    """Canonical total-order key: equal keys iff equal maps."""
    return a.img
