"""Green's relations on the inverse semigroup of two-way fence-preserving maps.

One rule per relation.  R means equal domains, L equal images and H
both, as in any inverse subsemigroup of the symmetric inverse monoid
(Howie 1995, Prop. 5.1.2).  J means equal block fingerprints: counts of
the domain's maximal consecutive runs (blocks) by size, plus, for each
odd size >= 3, how many of those blocks start at an odd position.  D
means J, as in any finite semigroup.  A witness pair (g, d) with
b = g*a*d matches blocks of equal size and maps each monotonically up or
down according to the parity of the matched endpoints.

Everything here presumes maps that preserve the fence in both
directions; whether the fingerprint criterion extends to the one-way
(non-regular) maps is unknown and out of scope.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from .fence import in_if, require_if
from .pinj import DEFINED, OutOfRangeError, PartialInjection, SizeMismatchError


class NotJRelatedError(ValueError):
    pass


BlockDecomposition = tuple[tuple[int, int], ...]
"""Maximal consecutive runs of a subset, as (start, length) pairs ascending."""


def blocks(n: int, points) -> BlockDecomposition:
    """Decompose a subset of {1..n} into its maximal consecutive runs."""
    pts = sorted(set(points))
    if pts and not (1 <= pts[0] and pts[-1] <= n):
        raise OutOfRangeError(f"subset must lie in 1..{n}")
    out = []
    run_start = None
    prev = None
    for x in pts:
        if run_start is None:
            run_start, prev = x, x
        elif x == prev + 1:
            prev = x
        else:
            out.append((run_start, prev - run_start + 1))
            run_start, prev = x, x
    if run_start is not None:
        out.append((run_start, prev - run_start + 1))
    return tuple(out)


def _keeps_start_parity(length: int) -> bool:
    """Whether IF_n maps every block of this length onto an interval with
    the block's start parity: odd lengths >= 3, not singletons or even."""
    return length % 2 == 1 and length >= 3


@dataclass(frozen=True)
class JInvariant:
    """Complete J-class fingerprint: block counts by size, odd-start counts.

    ``sizes`` lists (k, count) for every block size k present, ascending.
    ``odd_starts`` lists (k, count-of-blocks-starting-odd) for every odd
    k >= 3 present in ``sizes``; start parity of singleton blocks is
    irrelevant to the J relation and is not tracked.
    """

    sizes: tuple[tuple[int, int], ...]
    odd_starts: tuple[tuple[int, int], ...]

    def encode(self) -> str:
        """Canonical text: ``k:total[:odd]`` terms joined by ``;``, ascending k."""
        odd = dict(self.odd_starts)
        return ";".join(
            f"{k}:{cnt}:{odd[k]}" if _keeps_start_parity(k) else f"{k}:{cnt}"
            for k, cnt in self.sizes
        )


def j_invariant(a: PartialInjection) -> JInvariant:
    """Fingerprint of a's domain blocks, counted from their
    :func:`_block_key`; constant exactly on J-classes."""
    keys = _shape(_block_order(a))
    # the keys ascend by length, so the counts come out ascending
    sizes = tuple(Counter(length for length, _ in keys).items())
    even = Counter(length for length, starts_even in keys if starts_even)
    odd_starts = tuple((k, cnt - even[k]) for k, cnt in sizes if _keeps_start_parity(k))
    return JInvariant(sizes, odd_starts)


def _block_key(start: int, length: int) -> tuple[int, bool]:
    """A domain block's part of the fingerprint: its length and, where
    the length keeps start parity, whether it starts even.  This is the
    one place the start parity is read: the multiset of a map's block
    keys is its J fingerprint, and :func:`j_invariant` counts it."""
    return length, _keeps_start_parity(length) and start % 2 == 0


def _block_order(x: PartialInjection) -> list[tuple[int, int]]:
    """x's domain blocks by key, then by start.  J-related elements list
    blocks of one key at the same positions."""
    return sorted(blocks(x.n, x.domain()), key=lambda blk: (_block_key(*blk), blk[0]))


def _shape(order) -> tuple[tuple[int, bool], ...]:
    """The keys of a block order, ascending as the order sorts by key;
    equal exactly for equal fingerprints."""
    return tuple(_block_key(*blk) for blk in order)


def relations(a: PartialInjection, b: PartialInjection) -> dict[str, bool]:
    """R, L, H and J verdicts on a pair of one ambient size, both checked
    to lie in IF_n, once.  J compares the sorted block keys, the
    fingerprints without building them.  D is J and has no entry of its
    own."""
    if a.n != b.n:
        raise SizeMismatchError(f"ambient sizes differ: {a.n} != {b.n}")
    require_if(a)
    require_if(b)
    r = a.domain() == b.domain()
    l = a.image() == b.image()
    j = _shape(_block_order(a)) == _shape(_block_order(b))
    return {"R": r, "L": l, "H": r and l, "J": j}


def j_witness(a: PartialInjection, b: PartialInjection):
    """Construct (g, d) with b = g*a*d, dom g = dom b, im g = dom a, for
    members a and b of IF_n, as checked by :func:`relations`.

    Each matched block of b maps onto its partner block of a ascending
    when the starts share parity (or the block is a singleton) and
    descending otherwise; then d = a^-1 * g^-1 * b.  A pair whose block
    keys differ is refused; the pair built is checked to lie in IF_n
    and to carry a onto b.
    """
    if a.n != b.n:
        raise SizeMismatchError(f"ambient sizes differ: {a.n} != {b.n}")
    order_a, order_b = _block_order(a), _block_order(b)
    if _shape(order_a) != _shape(order_b):
        raise NotJRelatedError("elements are not J-related; no witness exists")
    n = a.n
    img = [0] * n
    for (i, k), (l, _) in zip(order_b, order_a, strict=True):
        up = k == 1 or (i - l) % 2 == 0
        for r in range(k):
            img[i + r - 1] = l + r if up else l + k - 1 - r
    g = PartialInjection(n, img)
    d = a.inverse() * g.inverse() * b
    if not (in_if(g) and in_if(d)):
        raise RuntimeError("witness pair leaves the semigroup")
    if g * a * d != b:
        raise RuntimeError("witness pair does not carry a onto b")
    return g, d


def j_classes(table):
    """Partition a table's bytes images into J-classes (fingerprint fibers).

    The fingerprint reads only the domain, so the sorted block keys are
    computed once per distinct domain, keyed by the domain's pattern of
    defined slots, on the first element met with that domain, and shared
    by every image with that domain.  The table is in canonical order,
    so each class fills in sorted and the classes are met in order of
    least member.
    """
    keys: dict[bytes, tuple] = {}
    fibers: dict[tuple, list[bytes]] = defaultdict(list)
    for img in table.imgs:
        dom = img.translate(DEFINED)
        key = keys.get(dom)
        if key is None:
            key = keys[dom] = _shape(_block_order(PartialInjection(table.n, img)))
        fibers[key].append(img)
    return list(fibers.values())
