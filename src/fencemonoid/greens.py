"""Green's relations on the inverse semigroup of two-way fence-preserving maps.

R, L and H reduce to equality of domains / images, as in any inverse
subsemigroup of the symmetric inverse monoid.  The J relation is finer
than rank equality here: it is characterized by a fingerprint counting
the maximal consecutive runs (blocks) of the domain by size, plus, for
each odd size >= 3, how many of those blocks start at an odd position.
Two elements are J-related iff their fingerprints agree, and a witness
pair (g, d) with b = g*a*d can be constructed by matching blocks of
equal size and mapping each block monotonically up or down according to
the parity of the matched endpoints.

Everything here presumes maps that preserve the fence in both
directions; whether the fingerprint criterion extends to the one-way
(non-regular) maps is unknown and out of scope.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .fence import in_if, require_if
from .pinj import OutOfRangeError, PartialInjection, SizeMismatchError


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
        terms = []
        for k, cnt in self.sizes:
            if k % 2 == 1 and k >= 3:
                terms.append(f"{k}:{cnt}:{odd.get(k, 0)}")
            else:
                terms.append(f"{k}:{cnt}")
        return ";".join(terms)


def j_invariant(a: PartialInjection) -> JInvariant:
    """Fingerprint of a's domain blocks; constant exactly on J-classes."""
    total: dict[int, int] = defaultdict(int)
    odd: dict[int, int] = defaultdict(int)
    for start, length in blocks(a.n, a.domain()):
        total[length] += 1
        if length % 2 == 1 and length >= 3 and start % 2 == 1:
            odd[length] += 1
    sizes = tuple(sorted(total.items()))
    odd_starts = tuple(
        (k, odd.get(k, 0)) for k, _ in sizes if k % 2 == 1 and k >= 3
    )
    return JInvariant(sizes, odd_starts)


def _check_pair(a: PartialInjection, b: PartialInjection) -> None:
    if a.n != b.n:
        raise SizeMismatchError(f"ambient sizes differ: {a.n} != {b.n}")
    require_if(a)
    require_if(b)


def green_test(rel: str, a: PartialInjection, b: PartialInjection) -> bool:
    """Test R (equal domains), L (equal images), or H (both)."""
    rel = rel.upper()
    if rel not in ("R", "L", "H"):
        raise ValueError(f"relation must be R, L or H, got {rel!r}")
    _check_pair(a, b)
    if rel == "R":
        return a.domain() == b.domain()
    if rel == "L":
        return a.image() == b.image()
    return a.domain() == b.domain() and a.image() == b.image()


def are_j_related(a: PartialInjection, b: PartialInjection) -> bool:
    """J-test via the block fingerprint.  D coincides with J here; see
    :func:`are_d_related`."""
    _check_pair(a, b)
    return j_invariant(a) == j_invariant(b)


# In a finite semigroup D = J; exposed as an alias, not a separate code path.
are_d_related = are_j_related


def _match_blocks(a: PartialInjection, b: PartialInjection):
    """Pair up b's domain blocks with a's, size by size.

    Within each size the match runs in ascending start order; for odd
    sizes >= 3 the odd-start blocks are matched among themselves first,
    which keeps the construction deterministic and parity-consistent.
    """
    by_size_a: dict[int, list[int]] = defaultdict(list)
    by_size_b: dict[int, list[int]] = defaultdict(list)
    for start, length in blocks(a.n, a.domain()):
        by_size_a[length].append(start)
    for start, length in blocks(b.n, b.domain()):
        by_size_b[length].append(start)
    pairs = []
    for k, starts_b in sorted(by_size_b.items()):
        starts_a = by_size_a[k]
        if k % 2 == 1 and k >= 3:
            for parity in (1, 0):
                sb = [s for s in starts_b if s % 2 == parity]
                sa = [s for s in starts_a if s % 2 == parity]
                pairs.extend((k, i, l) for i, l in zip(sb, sa, strict=True))
        else:
            pairs.extend((k, i, l) for i, l in zip(starts_b, starts_a, strict=True))
    return pairs


def j_witness(a: PartialInjection, b: PartialInjection):
    """Construct (g, d) with b = g*a*d, dom g = dom b, im g = dom a.

    Each matched block of b maps onto its partner block of a ascending
    when the starts share parity (or the block is a singleton) and
    descending otherwise; then d = a^-1 * g^-1 * b.
    """
    if not are_j_related(a, b):
        raise NotJRelatedError("elements are not J-related; no witness exists")
    n = a.n
    img = [0] * n
    for k, i, l in _match_blocks(a, b):
        if k == 1 or (i - l) % 2 == 0:
            for r in range(k):
                img[i + r - 1] = l + r
        else:
            for r in range(k):
                img[i + r - 1] = l + k - (r + 1)
    g = PartialInjection(n, tuple(img))
    d = a.inverse() * g.inverse() * b
    if not (in_if(g) and in_if(d)):
        raise RuntimeError("witness pair leaves the semigroup")
    if g * a * d != b:
        raise RuntimeError("witness pair does not carry a onto b")
    return g, d


def j_classes(table):
    """Partition a table's elements into J-classes (fingerprint fibers).

    :func:`j_invariant` reads only the domain, so it is computed once per
    distinct domain, keyed by the domain's pattern of defined slots, and
    shared by every element with that domain.  Classes and their members
    are ordered by canonical key, so output is deterministic across runs.
    """
    keys: dict[tuple, tuple] = {}
    fibers: dict[tuple, list[PartialInjection]] = defaultdict(list)
    for elt in table.elements:
        dom = tuple(map(bool, elt.img))
        key = keys.get(dom)
        if key is None:
            inv = j_invariant(elt)
            key = keys[dom] = (inv.sizes, inv.odd_starts)
        fibers[key].append(elt)
    classes = [sorted(members) for members in fibers.values()]
    classes.sort(key=lambda cls: cls[0].key)
    return classes
