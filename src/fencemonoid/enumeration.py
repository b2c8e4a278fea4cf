"""Exhaustive construction and closure machinery at desk scale.

Builds the full symmetric inverse monoid on {1..n} (or its one-way /
two-way fence-preserving subsemigroups), each up to its own size limit
in :data:`MAX_N`, as a sorted table of bytes images, and computes
principal ideals, irreducible elements, least generating sets and
semigroup rank.  :func:`count` gives the same sizes, within the same
limits, without building a table: |I_n| is the sum over k of
C(n, k)^2 k!, and |PFI_n| and |IF_n| are the sum over domain
fingerprints (the sorted block keys of :mod:`greens`) of the number of
domains with that fingerprint times the placements of one of them.
That is exact because the placements of a block read its start only
through the parity its key records, and placements conflict
symmetrically, so the count is blind to block order and position.
:func:`j_class_rows` reads the same grouping for the J-classes of IF_n,
whose fingerprints they are: each class's size from the count, and its
least image from the least placement of each of its domains, so
``greens --classes`` lists no table, nor ``verify --claim jcrit`` at
n >= 6.  Every bulk product is one ``bytes.translate`` through
:func:`~fencemonoid.pinj.translate_table`.  One product-saturation
loop, :func:`saturate`, gives the set a generating set generates, and
:func:`closure` wraps it in a table.  Nothing here searches for words:
every word the package gives is built in closed form (:mod:`genfam`,
:mod:`factor`).  Every generation check asks :func:`generated_size` for
|<gens>| only: for a set closed under inverse it is the sum over the
J-classes of |class|^2 |G| (:func:`inverse_orbit_size`, from the orbit
of image sets and one small permutation group per class; after East,
Egri-Nagy, Mitchell & Peresse, J. Symb. Comput. 92, 2019), so <gens>
is never listed; other sets are saturated.  Of the J-class oracles,
:func:`principal_ideals` gives every principal ideal of a table as a
bitmask from one pass over the products, and :func:`ideal_j_classes`
builds a table's two-sided Cayley graph over a reduced generating set.
IF_n is inverse, so :func:`domain_j_classes` needs no table: its graph
is on domains, dom a -> im a, with the images of each domain's maps
from :func:`build`'s placement rule and no fingerprint.  Both take the
strongly connected components of their graph from one Kosaraju search
and group the nodes by component with :func:`fibres`, as the literal
check of ``verify --claim jcrit`` at n <= 5 groups images by two-sided
ideal mask.
All outputs are canonically sorted, so results are byte-identical.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import defaultdict
from functools import cache, cached_property, reduce
from operator import itemgetter, ne, or_

from .greens import _block_key, blocks
from .pinj import PartialInjection, inverse_img, translate_table

# largest n each kind is built for: |I_9| is 17.6M maps, |IF_10| 137,412
MAX_N = {"I": 8, "PFI": 10, "IF": 10}

# largest table the greedy rank descent runs on: it makes one saturation
# per element, which took 0.4 s on IF_5 (182 elements) and 2.4 s on PFI_5
# (332) on one Xeon core, and gave no answer in 9 minutes on IF_7 (2,288)
DESCENT_MAX_SIZE = 400


class TooLargeError(ValueError):
    pass


class NotSubsetError(ValueError):
    pass


class SemigroupTable:
    """A semigroup of partial injections, as a canonically sorted table.

    Only :func:`build` and :func:`closure` make tables, and both make
    sets closed under products, so every oracle that reads a table may
    take that closure as given.  ``imgs`` holds the elements' bytes
    images, sorted (the canonical order) and pairwise distinct.
    ``index`` maps each image to its position, and ``elements`` gives
    the elements as objects; both are built on first use.  For
    closure-built tables, ``gens`` holds the declared generators.
    """

    def __init__(self, n, imgs, gens=None):
        self.n = n
        self.imgs = imgs
        self.gens = tuple(gens) if gens is not None else None

    @cached_property
    def index(self) -> dict[bytes, int]:
        return dict(zip(self.imgs, range(len(self.imgs))))

    @cached_property
    def elements(self) -> tuple[PartialInjection, ...]:
        return tuple(PartialInjection(self.n, img) for img in self.imgs)

    def __len__(self):
        return len(self.imgs)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, elt):
        return isinstance(elt, PartialInjection) and elt.raw in self.index


def _domains(n):
    pts = range(1, n + 1)
    return [dom for k in range(n + 1) for dom in itertools.combinations(pts, k)]


def _iter_imgs_for_domains(n, domains):
    pts = range(1, n + 1)
    for dom in domains:
        for perm in itertools.permutations(pts, len(dom)):
            img = [0] * n
            for x, y in zip(dom, perm):
                img[x - 1] = y
            yield bytes(img)


@cache
def _block_placements(n, start, length, two_way):
    """(mask, blocked, values) for each image interval one domain block may take.

    A block of two or more points keeps every point's parity, so it runs
    ascending onto [t, t+length-1] when t and start agree mod 2 and
    descending when t+length-1 and start do; a singleton goes anywhere.
    ``blocked`` adds the interval's two neighbours in the two-way case,
    where no two image intervals may touch.
    """
    out = []
    full = (1 << length) - 1
    for t in range(1, n - length + 2):
        mask = full << (t - 1)
        blocked = mask | mask << 1 | mask >> 1 if two_way else mask
        if length == 1 or (t - start) % 2 == 0:
            out.append((mask, blocked, bytes(range(t, t + length))))
        if length > 1 and (t + length - 1 - start) % 2 == 0:
            out.append((mask, blocked, bytes(range(t + length - 1, t - 1, -1))))
    return tuple(out)


def place_blocks(n, domains, two_way=True):
    """Bytes images of every map in IF_n (PFI_n when not ``two_way``) with
    one of the given domains, unsorted.

    A map is fence-preserving exactly when each maximal domain block maps
    monotonically onto an interval as :func:`_block_placements` allows and
    the image intervals are disjoint; it is two-way when, in addition, no
    two intervals are adjacent.  Each block is placed in turn on the image
    points still free, so every map generated is a member.
    """
    placements = {}  # (first unplaced point, start, length) -> placements, padded
    imgs = []
    for dom in domains:
        states = [(0, b"")]
        pos = 1
        for start, length in blocks(n, dom):
            key = (pos, start, length)
            if key not in placements:
                pad = bytes(start - pos)
                found = _block_placements(n, start, length, two_way)
                placements[key] = [(mask, blocked, pad + values) for mask, blocked, values in found]
            states = [
                (used | blocked, prefix + values)
                for used, prefix in states
                for mask, blocked, values in placements[key]
                if not used & mask
            ]
            pos = start + length
        tail = bytes(n + 1 - pos)
        imgs.extend(prefix + tail for _, prefix in states)
    return imgs


def _checked_kind(n: int, which: str) -> str:
    """``which`` upper-cased, once it is shown to name I, PFI or IF and n
    to lie in 1..MAX_N[which]; a larger n raises :class:`TooLargeError`."""
    which = which.upper()
    if which not in MAX_N:
        raise ValueError(f"which must be I, PFI or IF, got {which!r}")
    if not (1 <= n <= MAX_N[which]):
        raise TooLargeError(f"{which} is built for n in 1..{MAX_N[which]}, got {n}")
    return which


def build(n: int, which: str = "IF") -> SemigroupTable:
    """Enumerate I_n, PFI_n or IF_n as a canonically sorted table.

    ``which`` is one of I, PFI, IF.  PFI and IF are generated directly by
    :func:`place_blocks`; I lists every partial injection.  n must lie in
    1..MAX_N[which]; a larger n raises :class:`TooLargeError`.  A caller
    that needs only the size asks :func:`count`.
    """
    which = _checked_kind(n, which)
    if which == "I":
        imgs = list(_iter_imgs_for_domains(n, _domains(n)))
    else:
        imgs = place_blocks(n, _domains(n), two_way=which == "IF")
    imgs.sort()
    return SemigroupTable(n, imgs)


def count(n: int, which: str = "IF") -> int:
    """|I_n|, |PFI_n| or |IF_n|, without building a table.

    The kinds and limits are those of :func:`build`, with the same
    errors.  |I_n| is the sum over k of C(n, k)^2 k!: a domain and an
    image of k points each, and a bijection between them.

    For PFI and IF, every map :func:`place_blocks` makes is one choice of
    a placement from :func:`_block_placements` per domain block, no two
    in conflict, and distinct choices give distinct maps.  The count of
    such choices depends on the domain only through its fingerprint, the
    sorted tuple of its blocks' :func:`~fencemonoid.greens._block_key`:

    - :func:`_block_placements` reads ``start`` only through its parity,
      which the key records exactly where it matters.  A block of odd
      length >= 3 has both orientations at the image starts t of its own
      start's parity and none at the others.  A singleton, or a block of
      even length (whose two ends differ in parity), has one orientation
      at every t.  So the (mask, blocked) pairs of a block are fixed by
      its key and n.
    - Two placements conflict when one's ``mask`` meets the other's
      ``blocked``.  That is symmetric (``blocked`` is ``mask``, or
      ``mask`` grown by one point each way), so the count does not
      depend on the order in which the blocks are placed.

    So the 2^n domains are grouped by fingerprint, with N(fp) domains
    each (:func:`_fingerprint_groups`), and the first domain of each
    fingerprint has its placements counted (:func:`_image_counts`).
    The size is the sum of N(fp) times that count.  :func:`j_class_rows`
    reads the same grouping and counts.
    """
    which = _checked_kind(n, which)
    if which == "I":
        return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
    two_way = which == "IF"
    groups = _fingerprint_groups(n).values()
    return sum(len(doms) * sum(_image_counts(n, doms[0], two_way).values()) for doms in groups)


def _fingerprint_groups(n: int) -> dict:
    """The 2^n domains grouped by fingerprint, the sorted tuple of their
    blocks' keys: fingerprint -> the block decomposition of each of its
    domains, in the order of :func:`_domains`."""
    groups = defaultdict(list)
    for dom in _domains(n):
        found = blocks(n, dom)
        groups[tuple(sorted(_block_key(*blk) for blk in found))].append(found)
    return groups


def _image_counts(n: int, found, two_way: bool) -> dict:
    """Image mask -> the number of maps in IF_n (PFI_n when not
    ``two_way``) with the domain blocks ``found`` and that image.  Such
    a map is one placement per block (:func:`place_blocks`), none
    meeting another's ``blocked`` mask, which is ``mask`` grown by one
    point each way in the two-way case.  So a DP over the blocks whose
    state is the image mask counts them, testing each placement against
    that mask so grown."""
    states = {0: 1}  # image mask -> placements of the blocks so far
    for start, length in found:
        placements = _block_placements(n, start, length, two_way)
        grown = defaultdict(int)
        for im, ways in states.items():
            near = im | im << 1 | im >> 1 if two_way else im
            for mask, _, _ in placements:
                if not mask & near:
                    grown[im | mask] += ways
        states = grown
    return states


def j_class_rows(n: int) -> list[tuple[bytes, int, tuple]]:
    """(least image, size, fingerprint) of every J-class of IF_n, sorted
    by least image: the rows :func:`~fencemonoid.greens.j_classes` gives
    for ``build(n)``, read without building it.  n must lie in
    1..MAX_N["IF"], with the errors of :func:`build`.

    The J-class of a fingerprint holds the maps whose domains have that
    fingerprint, so its size is N(fp) times the placements of one of
    them, as :func:`count` sums them.  Its least image is the least over
    its domains of each domain's least placement.  With the domain
    fixed, its undefined slots are fixed zeros and its blocks'
    segments have fixed lengths at fixed positions, so the lexicographic
    order of images is the lexicographic order of their tuples of
    segments, in domain order.  The least placement is therefore built
    block by block, each block taking its least segment on the image
    points still free, as long as that choice leaves the later blocks
    room.  It always does: by induction, the segments taken for blocks
    1..i-1 lie in [1, e] for e the last point of block i-1, and their
    ``blocked`` masks in [1, e+1], below block i's start s.  So block i's
    own points are free, and that segment, the identity on the block,
    is among its placements; the least free segment opens at or below
    s, and ascending or descending it lies in [1, s+length-1], which
    carries the induction on.  A domain is dropped as soon as its prefix
    exceeds the least image found so far.  A fingerprint or block found
    with no placement, which the identity on the domain rules out,
    raises RuntimeError.
    """
    _checked_kind(n, "IF")
    placements = {  # (start, length) -> placements, least values first
        (start, length): sorted(_block_placements(n, start, length, True), key=itemgetter(2))
        for length in range(1, n + 1)
        for start in range(1, n + 2 - length)
    }
    rows = []
    for fp, doms in _fingerprint_groups(n).items():
        size = len(doms) * sum(_image_counts(n, doms[0], two_way=True).values())
        if not size:
            raise RuntimeError(f"fingerprint {fp} has no placement in IF_{n}")
        least = None
        # latest domains first: their images open with the most zeros, so
        # the least image is met early and cuts the others short
        for found in reversed(doms):
            least = _least_placement(n, found, least, placements) or least
        rows.append((least, size, fp))
    rows.sort()
    return rows


def _least_placement(n, found, bound, placements):
    """The least image with the domain blocks ``found``, built block by
    block as :func:`j_class_rows` argues, or None once its prefix
    exceeds that of ``bound`` (a least image met before, or None)."""
    img, used, pos = b"", 0, 1
    for start, length in found:
        for mask, blocked, values in placements[start, length]:
            if not used & mask:
                break
        else:
            raise RuntimeError(f"domain blocks {found} have no placement in IF_{n}")
        img += bytes(start - pos) + values
        used |= blocked
        pos = start + length
        if bound is not None:
            if img > bound[: len(img)]:
                return None
            if img < bound[: len(img)]:
                bound = None  # the rest of this image cannot lose to ``bound``
    return img + bytes(n + 1 - pos)


def _generator_list(n: int, gens) -> list:
    """``gens`` deduplicated and canonically sorted; an empty set, or a
    generator of another ambient size than n, raises ValueError."""
    gen_list = sorted(set(gens))
    if not gen_list:
        raise ValueError("need at least one generator")
    for g in gen_list:
        if g.n != n:
            raise ValueError(f"generator {g.encode()} has ambient size {g.n}, expected {n}")
    return gen_list


def saturate(n: int, gens, min_rank: int = 0) -> set:
    """The set ``gens`` generates, as a set of bytes images.

    Frontier-based product saturation: each round multiplies the new
    elements of the last round by every generator, until a round finds
    nothing new.

    With ``min_rank > 0`` every generator and product of rank below the
    floor is dropped.  Because ``rank(x*g) <= rank(x)``, every prefix of
    a word for an element of rank ``r >= min_rank`` has rank ``>= r``,
    so the floored set holds exactly the elements of rank ``>= min_rank``
    of the full one.
    """
    gen_list = _generator_list(n, gens)

    tables = [translate_table(g.raw) for g in gen_list]
    max_zeros = n - min_rank
    found = {g.raw for g in gen_list if g.raw.count(0) <= max_zeros}
    frontier = list(found)
    while frontier:
        new = []
        for x in frontier:
            for p in map(x.translate, tables):
                if p not in found and p.count(0) <= max_zeros:
                    found.add(p)
                    new.append(p)
        frontier = new
    return found


def closure(n: int, gens) -> SemigroupTable:
    """The table of the set ``gens`` generates, with ``gens`` kept.

    A check that needs only the generated set should call
    :func:`saturate`, and one that needs only its size
    :func:`generated_size`.
    """
    imgs = sorted(saturate(n, gens))
    return SemigroupTable(n, imgs, gens=sorted(set(gens)))


def reduce_generators(gens):
    """A subset of ``gens`` that generates the same semigroup.

    Going down the ranks present, a generator of rank r is dropped when
    it lies in the closure of the generators kept at higher ranks,
    floored at r.  By the prefix argument of :func:`saturate`, that
    floored closure holds exactly the rank >= r elements of the
    semigroup the kept generators generate, so every dropped generator
    is a product of kept ones, and by induction down the ranks the kept
    set generates everything ``gens`` does.  Only literal products are
    used and no fence fact is assumed, so a check over the result still
    tests its claim.  Returns a canonically sorted list.
    """
    gen_list = sorted(set(gens))
    kept = []
    for r in sorted({g.rank for g in gen_list}, reverse=True):
        layer = [g for g in gen_list if g.rank == r]
        if kept:
            reached = saturate(gen_list[0].n, kept, min_rank=r)
            layer = [g for g in layer if g.raw not in reached]
        kept += layer
    return sorted(kept)


def inverse_orbit_size(n: int, gens) -> int:
    """|<gens>| for a set of partial injections closed under inverse,
    from the orbit of its image sets, without listing <gens>.

    This is the acting-semigroup method of East, Egri-Nagy, Mitchell &
    Peresse, "Computing finite semigroups", J. Symb. Comput. 92 (2019),
    after Linton, Pfeiffer, Robertson & Ruskuc, Math. Z. 228 (1998).
    Since (g1...gk)^-1 = gk^-1...g1^-1, S = <gens> is an inverse
    subsemigroup of I_n, where aa^-1 = id(dom a) and a^-1a = id(im a).

    - Image sets, keyed by the set of an image's bytes (with 0 in it
      exactly when rank < n), are acted on by A.g = (A & dom g)g,
      and im(ag) = (im a).g, so the image sets of S are the orbit of
      the generators' image sets.  Each is the domain and image of the
      idempotent id_A = a^-1a of S, and these are all its idempotents.
    - For A in the orbit and A inside dom g, id_A g in S maps A onto
      A.g, so id_A and id_(A.g) are D-related; a word for an a in S
      with domain A and image B walks such rank-keeping edges from A
      to B.  Inverse closure makes the edges symmetric, so a breadth-
      first search over them reaches exactly one D-class (= J-class,
      as S is finite).  Its tree gives u_B in S mapping the class's
      first set R onto each B in it.
    - The H-class of id_R is the group G of elements with domain and
      image R.  Any of them is a product id_R g1...gk along a closed
      path of rank-keeping edges, which telescopes into Schreier
      generators u_B g u_C^-1 (B.g = C), so these generate G.
    - A D-class with N idempotents and maximal subgroup G has N^2 |G|
      elements (Howie, Fundamentals of Semigroup Theory, 1995, ch. 5).

    So |S| is the sum of |class|^2 |G| over the classes.  Closure under
    inverse is checked literally on bytes images, and a generator whose
    inverse is missing raises ValueError; no fence fact is read.  The
    orbit runs on bytes images, the Schreier products included.
    """
    gen_list = _generator_list(n, gens)
    imgs = {g.raw for g in gen_list}
    for g in gen_list:
        if inverse_img(g.raw) not in imgs:
            raise ValueError(f"the inverse of {g.encode()} is not among the generators")

    tables = [translate_table(g.raw) for g in gen_list]
    seen = set(map(frozenset, imgs))  # image sets found so far
    pending = list(seen)
    placed: set[frozenset] = set()  # image sets whose class is counted
    size = 0
    while pending:
        root = pending.pop()
        if root in placed:
            continue
        ident = bytes(x if x in root else 0 for x in range(1, n + 1))
        zeros = ident.count(0)
        # image set B -> table of the inverse of u_B, the BFS tree's map root -> B
        back = {root: translate_table(ident)}
        schreier = set()
        frontier = [ident]
        while frontier:
            new = []
            for u in frontier:
                for p in map(u.translate, tables):
                    b = frozenset(p)
                    if p.count(0) != zeros:  # rank drops: b lies in a lower class
                        if b not in seen:
                            seen.add(b)
                            pending.append(b)
                    elif b in back:
                        schreier.add(p.translate(back[b]))
                    else:
                        back[b] = translate_table(inverse_img(p))
                        new.append(p)
            frontier = new
        seen.update(back)
        placed.update(back)
        # a semigroup of permutations of R is a group, so id_R and the
        # Schreier generators saturate to G
        group = saturate(n, [PartialInjection(n, s) for s in schreier | {ident}])
        size += len(back) ** 2 * len(group)
    return size


def generated_size(n: int, gens) -> int:
    """|<gens>|, by :func:`_reduced_size` from the generators
    :func:`reduce_generators` keeps."""
    gens = list(gens)
    return _reduced_size(n, reduce_generators(gens), gens)


def _reduced_size(n: int, reduced, gens) -> int:
    """|<gens>| from R = ``reduced``, a subset of ``gens`` that generates
    the same semigroup.

    When ``gens`` is closed under inverse, R + R^-1 generates the same
    semigroup (R inside gens = gens^-1 inside <R>), and its size comes
    from :func:`inverse_orbit_size` without listing it.  Otherwise it is
    the size of the :func:`saturate` of R.
    """
    imgs = {g.raw for g in gens}
    if all(inverse_img(img) in imgs for img in imgs):
        return inverse_orbit_size(n, reduced + [g.inverse() for g in reduced])
    return len(saturate(n, reduced))


def principal_ideals(table: SemigroupTable):
    """Every principal ideal of a table under the S^1 convention.

    Returns ``(right, left, two_sided)``: three tuples indexed by table
    position, of int bitmasks over positions.  ``right[i]`` is bit i plus
    ``i*s`` for every s in the table, ``left[i]`` is bit i plus ``s*i``,
    and ``two_sided[i]`` is the OR of ``right[j]`` over every j in
    ``left[i]``: for a at position i, the set {a} + aS + Sa + (Sa)S.
    One bulk pass forms each of the |S|^2 literal products once, as the
    rows of the multiplication table: row i gives ``right[i]`` and
    column j gives ``left[j]``.
    """
    imgs = table.imgs
    tables = [translate_table(b) for b in imgs]
    position = table.index.__getitem__
    rows = [tuple(map(position, map(a.translate, tables))) for a in imgs]
    bits = [1 << i for i in range(len(imgs))]
    right_members = [set(row) | {i} for i, row in enumerate(rows)]
    left_members = [set(col) | {j} for j, col in enumerate(zip(*rows))]
    right = tuple(sum(map(bits.__getitem__, found)) for found in right_members)
    left = tuple(sum(map(bits.__getitem__, found)) for found in left_members)
    two_sided = tuple(reduce(or_, map(right.__getitem__, found)) for found in left_members)
    return right, left, two_sided


def fibres(labels, elements) -> list[list]:
    """``elements`` grouped by their ``labels`` (one each, in order), as
    lists in order of first member.  Over a table's canonical order each
    class is sorted and the classes come in order of least member, so two
    partitions of one table are equal exactly when their lists are."""
    groups: dict = {}
    for label, elt in zip(labels, elements):
        groups.setdefault(label, []).append(elt)
    return list(groups.values())


def _strong_components(succ) -> list[int]:
    """Strongly connected components of the graph ``succ`` (node ->
    successor list, over nodes ``0..len(succ)-1``), as one member node
    of each node's component.

    Kosaraju's two searches (Sharir, Comput. Math. Appl. 7, 1981), on
    explicit stacks: a depth-first search lists the nodes in order of
    finishing, and a search of the reversed graph from each unlabelled
    node, latest finisher first, labels exactly that node's component.
    """
    size = len(succ)
    pred: list[list[int]] = [[] for _ in range(size)]
    for v, row in enumerate(succ):
        for w in row:
            pred[w].append(v)
    finished: list[int] = []
    seen = [False] * size
    for root in range(size):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                finished.append(v)
    comp = [-1] * size
    for root in reversed(finished):
        if comp[root] != -1:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            for w in pred[stack.pop()]:
                if comp[w] == -1:
                    comp[w] = root
                    stack.append(w)
    return comp


def _cayley_rows(table: SemigroupTable, gens) -> list[array]:
    """Sorted successor rows, by table position, of the two-sided Cayley
    graph over ``gens``: ``x -> x*g`` and ``x -> g*x`` for every g."""
    position = table.index.__getitem__
    right = [translate_table(g.raw) for g in gens]
    left = [g.raw for g in gens]
    succ: list[array] = []  # 4-byte entries: the rows hold up to |S| * 2|gens| edges
    for x in table.imgs:
        x_table = translate_table(x)
        row = set(map(position, map(x.translate, right)))
        row.update(map(position, map(bytes.translate, left, itertools.repeat(x_table))))
        succ.append(array("i", sorted(row)))
    return succ


def ideal_j_classes(table: SemigroupTable, gens):
    """J-class partition from two-sided ideal reachability.

    x and y are J-related iff each lies in the other's two-sided
    principal ideal, i.e. iff they are mutually reachable under one-step
    left/right multiplication by elements of a generating set.  Any
    generating set will do, so the graph is built over
    :func:`reduce_generators` of ``gens``, which generates what ``gens``
    does.  The generating property of that set is verified, as
    :func:`is_generating` does but on the one reduction, before use, so
    nothing beyond the definition of an ideal is assumed.

    The rows of :func:`_cayley_rows` hold that graph, and
    :func:`_strong_components` splits it.  Returns the classes as sorted
    lists of bytes images, ordered by least member: the table is in
    canonical order, so each class fills in sorted.  IF_n gets the
    same classes, as sets of domains, from :func:`domain_j_classes`
    without a table; this graph serves any table, PFI_n among them.
    """
    gens = _members(table, gens)
    reduced = reduce_generators(gens)
    if not (gens and _reduced_size(table.n, reduced, gens) == len(table)):
        raise ValueError("oracle generators do not generate the table")
    return fibres(_strong_components(_cayley_rows(table, reduced)), table.imgs)


def domain_j_classes(n: int) -> list[list]:
    """J-classes of IF_n as a partition of its 2^n domains, each given
    by its blocks (:func:`~fencemonoid.greens.blocks`), without building
    IF_n; n is checked as :func:`build` checks it.

    IF_n is inverse (its maps preserve the fence both ways, so their
    inverses do), so a R b iff dom a = dom b and a L b iff im a = im b
    (Howie, Fundamentals of Semigroup Theory, 1995, Prop. 5.1.2), and
    D = R o L = J as IF_n is finite.  So a J b iff dom a and dom b lie
    in one component of the graph with an edge dom a -> im a per
    element, whose edges :func:`_image_counts` reads from the placement
    rule of :func:`build`.  The edge of a^-1 reverses that of a, and a
    missing reverse raises RuntimeError, so :func:`_strong_components`
    gives connected components.  No fingerprint is read, so the
    partition tests the J criterion without assuming it.  Each class
    lists its domains by mask (bit x-1 for point x), and the classes
    come in order of least mask.
    """
    _checked_kind(n, "IF")
    doms = sorted(_domains(n), key=lambda dom: sum(1 << x - 1 for x in dom))
    found = [blocks(n, dom) for dom in doms]
    succ = [_image_counts(n, blks, two_way=True) for blks in found]  # mask -> image masks
    for dom, images in enumerate(succ):
        for im in images:
            if dom not in succ[im]:
                raise RuntimeError(
                    f"IF_{n} maps domain {list(doms[dom])} onto {list(doms[im])} but nothing back"
                )
    return fibres(_strong_components(succ), found)


def _members(table: SemigroupTable, gens) -> list:
    """``gens`` as a list, each checked to lie in the table, so that the
    set they generate does too: the table is closed under products."""
    gens = list(gens)
    for g in gens:
        if g not in table:
            raise NotSubsetError(f"{g.encode()} is not an element of the table")
    return gens


def is_generating(table: SemigroupTable, gens) -> bool:
    """True iff the set gens generates, inside the table by :func:`_members`,
    has the table's full size, by :func:`generated_size`."""
    gens = _members(table, gens)
    return bool(gens) and generated_size(table.n, gens) == len(table)


def _irreducibles_within(layer):
    """The bytes images of ``layer`` that are not a product of two other
    images of ``layer``, in ``layer``'s order."""
    tables = [translate_table(b) for b in layer]
    reducible = set()
    for a in layer:
        products = list(map(a.translate, tables))
        # products a*b that differ from b, then from a
        row = set(itertools.compress(products, map(ne, products, layer)))
        row.discard(a)
        reducible |= row
    return [b for b in layer if b not in reducible]


def _irreducible_scan(table: SemigroupTable):
    """(irreducibles, whether they generate the table).

    Let T_k be the elements of rank >= k.  Since rank(ab) <= min(rank a,
    rank b), an element of rank r >= k is a product of two others only
    through factors of rank >= r, so products of pairs in T_k decide
    which elements of T_k are irreducible, whether or not T_k generates.
    If T_k generates the table, every element of rank < k is a product
    of two others: in a word over T_k for it, the first prefix equal to
    it is longer than one letter, so it is that prefix without its last
    letter times the letter, and neither factor is the element.  The
    scan then holds all the irreducibles.

    Starting from k = n-2, the scan of T_k comes first and its
    irreducibles are tested for generation by :func:`is_generating`.
    If they generate, so does T_k, which contains them, and T_k needs
    no check.  Otherwise T_k itself is checked, unless it equals its
    irreducibles; if it fails too, k steps down to the next rank present
    below k, or to 0, since T_j is T_k for every j in between.  T_0 is
    the whole table and needs no check; there the irreducibles generate
    when they are the whole table, and one more check decides it
    otherwise.  Valid because the table is closed under products.
    """
    n = table.n
    ranks = [n - img.count(0) for img in table.imgs]
    k = max(n - 2, 0)
    while True:
        layer = [img for img, r in zip(table.imgs, ranks) if r >= k]
        irr = tuple(PartialInjection(n, b) for b in _irreducibles_within(layer))
        if k == 0:
            return irr, len(irr) == len(layer) or is_generating(table, irr)
        if is_generating(table, irr):
            return irr, True
        if len(irr) < len(layer):
            if is_generating(table, [PartialInjection(n, b) for b in layer]):
                return irr, False
        k = max((r for r in ranks if r < k), default=0)


def irreducibles(table: SemigroupTable):
    """Elements that are not a product of two others, as a canonically
    sorted tuple; see :func:`_irreducible_scan` for the rank-stratified
    scan."""
    return _irreducible_scan(table)[0]


def least_generating_set(table: SemigroupTable):
    """The least generating set, or None when none exists.

    The irreducibles are contained in every generating set, so they form
    the least one exactly when they generate; otherwise no generating
    set can be contained in all others.
    """
    irr, generates = _irreducible_scan(table)
    return irr if generates else None


def semigroup_rank(table: SemigroupTable):
    """Minimum generating-set size: ('exact', k) or ('bounds', lo, hi).

    Exact when a least generating set exists.  Otherwise the lower bound
    is the irreducible count and the upper bound comes from a greedy
    descent: starting from the whole table, repeatedly drop the
    largest-key element whose removal keeps generation.  The descent
    runs one saturation per element, so a table of more than
    :data:`DESCENT_MAX_SIZE` elements raises :class:`TooLargeError`
    instead.
    """
    irr, generates = _irreducible_scan(table)
    if generates:
        return ("exact", len(irr))
    if len(table) > DESCENT_MAX_SIZE:
        raise TooLargeError(
            f"no least generating set, and the greedy rank descent runs on at most "
            f"{DESCENT_MAX_SIZE} elements, got {len(table)}"
        )
    lo = len(irr)
    target = len(table)
    current = set(table.elements)
    for g in sorted(current, key=lambda e: e.raw, reverse=True):
        trial = current - {g}
        if trial and len(saturate(table.n, trial)) == target:
            current = trial
    if len(saturate(table.n, current)) != target:
        raise RuntimeError("greedy descent lost generation")
    return ("bounds", lo, len(current))


def regular_elements(table: SemigroupTable):
    """Elements a with some x in the table satisfying a*x*a == a.

    In a subsemigroup S of I_n, a is regular iff a^-1 lies in S.  If
    a*x*a == a, then y = x*a*x lies in S with a*y*a = a and y*a*y = y,
    an inverse of a; inverses in I_n are unique (Howie, Fundamentals of
    Semigroup Theory, 1995, Thm 5.1.1), so y = a^-1.  Conversely
    a*a^-1*a = a.  So one pass looks each inverse up in the table and
    confirms each hit with the literal product.  The argument needs y in
    S, which holds as every table is closed under products.
    """
    index = table.index
    out = []
    for a in table.imgs:
        inv = inverse_img(a)
        if inv in index:
            elt = PartialInjection(table.n, a)
            if a.translate(translate_table(inv)).translate(translate_table(a)) != a:
                raise RuntimeError(f"regular witness for {elt.encode()} failed its check")
            out.append(elt)
    return tuple(out)
