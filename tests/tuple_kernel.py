"""The slow path, kept as the oracle for the bytes kernel.

The product kernel here is a C-level ``itemgetter`` over img tuples, and
every bulk consumer of :mod:`fencemonoid.enumeration` is restated on it:
saturation, the image-set orbit, principal ideals, two-sided Cayley
rows, irreducibles within a layer, regular elements and the listing of
I_n.  Each works on img tuples and reads nothing from a table but its
elements, so the tests can require the bytes versions to give the same
results in the same order (for saturation, the same set).  Regular
elements keep the per-pair index search that the inverse lookup of the
bytes version replaced.  Saturation keeps the parent of each element,
so it is also the breadth-first oracle for words: :func:`word_for`
walks an element's parents back to a generator.
:func:`search_by_fingerprint` lists IF_n and PFI_n from the fence order
alone, with the least map and the size of each J fingerprint's share:
the oracle for the placement count of
:func:`fencemonoid.enumeration.count` and for the rows of
:func:`fencemonoid.enumeration.j_class_rows`.  :func:`inverse_j_classes`
splits a table closed under inverse into J-classes by a graph on the
domains of its elements; it is the oracle for
:func:`fencemonoid.enumeration.domain_j_classes`, which reads the same
graph from per-domain image sets without a table.
"""

import itertools
from collections import Counter
from functools import reduce
from operator import itemgetter, ne, or_

from fencemonoid import enumeration as en
from fencemonoid.greens import blocks, j_invariant
from fencemonoid.pinj import DEFINED, PartialInjection, inverse_img


def multiplier(img):
    """``multiplier(a)((0,) + b)`` is the img of ``a*b``.

    With ``b`` padded by a leading 0, slot ``v`` holds the image of ``v``
    under ``b`` and slot 0 keeps "undefined" undefined, so the product is
    an ``itemgetter`` lookup of ``a``'s values.  ``itemgetter`` of one
    index returns a scalar, so n = 1 wraps it.
    """
    if len(img) == 1:
        (v,) = img
        return lambda padded: (padded[v],)
    return itemgetter(*img)


def _inverse(img):
    """The img of the inverse map, point by point."""
    inv = [0] * (len(img) + 1)  # slot 0 collects the undefined points
    for x, v in enumerate(img, 1):
        inv[v] = x
    return tuple(inv[1:])


def dom_mask(a):
    """The domain of an element as a bitmask, bit x-1 for point x."""
    return sum(1 << x - 1 for x in a.domain())


def im_mask(a):
    """The image of an element as a bitmask, bit v-1 for point v."""
    return sum(1 << v - 1 for v in a.image())


def i_imgs(n):
    """The img of every partial injection of {1..n}, unsorted."""
    pts = range(1, n + 1)
    for k in range(n + 1):
        for dom in itertools.combinations(pts, k):
            for perm in itertools.permutations(pts, k):
                img = [0] * n
                for x, y in zip(dom, perm):
                    img[x - 1] = y
                yield tuple(img)


def saturate(n, gens, min_rank=0):
    """img -> (parent img or None, generator position), in discovery order.

    Each round multiplies the frontier, in canonical order, by every
    generator, canonically sorted, so ties between words of one length
    go by the key of the left factor.  A floored saturation keeps the
    parent an element has in the full one: every prefix of a word has at
    least the rank of the element it spells."""
    gen_list = sorted(set(gens))
    padded_gens = [(0,) + g.img for g in gen_list]
    max_zeros = n - min_rank
    parents = {
        g.img: (None, gi) for gi, g in enumerate(gen_list) if g.img.count(0) <= max_zeros
    }
    frontier = sorted(parents)
    while frontier:
        new = []
        for x in frontier:
            for gi, p in enumerate(map(multiplier(x), padded_gens)):
                if p not in parents and p.count(0) <= max_zeros:
                    parents[p] = (x, gi)
                    new.append(p)
        frontier = sorted(new)
    return parents


def word_for(parents, gens, img):
    """The shortest discovery word of ``img`` in ``parents``, as
    :func:`saturate` over ``gens`` returns them: a list of generators."""
    gen_list = sorted(set(gens))
    letters = []
    while img is not None:
        img, gi = parents[img]
        letters.append(gen_list[gi])
    return letters[::-1]


def inverse_orbit_size(n, gens):
    """|<gens>| for an inverse-closed set, from the orbit of image sets."""
    gen_list = sorted(set(gens))
    padded_gens = [(0,) + g.img for g in gen_list]
    bits = [0] + [1 << x for x in range(n)]

    def mask(img):
        return sum(map(bits.__getitem__, img))

    seen = {mask(g.img) for g in gen_list}
    pending = list(seen)
    placed = set()
    size = 0
    while pending:
        root = pending.pop()
        if root in placed:
            continue
        ident = tuple(x if root >> (x - 1) & 1 else 0 for x in range(1, n + 1))
        zeros = ident.count(0)
        back = {root: (0,) + ident}
        schreier = set()
        frontier = [ident]
        while frontier:
            new = []
            for u in frontier:
                for p in map(multiplier(u), padded_gens):
                    b = mask(p)
                    if p.count(0) != zeros:
                        if b not in seen:
                            seen.add(b)
                            pending.append(b)
                    elif b in back:
                        schreier.add(multiplier(p)(back[b]))
                    else:
                        back[b] = (0,) + _inverse(p)
                        new.append(p)
            frontier = new
        seen.update(back)
        placed.update(back)
        group = saturate(n, [PartialInjection(n, s) for s in schreier | {ident}])
        size += len(back) ** 2 * len(group)
    return size


def principal_ideals(table):
    """(right, left, two_sided) position bitmasks, from every product."""
    imgs = [e.img for e in table.elements]
    padded = [(0,) + b for b in imgs]
    position = {img: i for i, img in enumerate(imgs)}.__getitem__
    rows = [tuple(map(position, map(multiplier(a), padded))) for a in imgs]
    bits = [1 << i for i in range(len(imgs))]
    right_members = [set(row) | {i} for i, row in enumerate(rows)]
    left_members = [set(col) | {j} for j, col in enumerate(zip(*rows))]
    right = tuple(sum(map(bits.__getitem__, found)) for found in right_members)
    left = tuple(sum(map(bits.__getitem__, found)) for found in left_members)
    two_sided = tuple(reduce(or_, map(right.__getitem__, found)) for found in left_members)
    return right, left, two_sided


def cayley_rows(table, gens):
    """Sorted successor positions of each element under ``x*g`` and
    ``g*x`` for every generator g: the two-sided Cayley graph."""
    imgs = [e.img for e in table.elements]
    index = {img: i for i, img in enumerate(imgs)}
    gen_muls = [multiplier(g.img) for g in gens]
    padded_gens = [(0,) + g.img for g in gens]
    succ = []
    for a in imgs:
        padded_a = (0,) + a
        row = {index[p] for p in map(multiplier(a), padded_gens)}
        row.update(index[mul(padded_a)] for mul in gen_muls)
        succ.append(sorted(row))
    return succ


def irreducibles_within(top):
    """The imgs of ``top`` that are no product of two others in it."""
    padded_top = [(0,) + b for b in top]
    reducible = set()
    for a in top:
        products = list(map(multiplier(a), padded_top))
        row = set(itertools.compress(products, map(ne, products, top)))
        row.discard(a)
        reducible |= row
    return [b for b in top if b not in reducible]


def regular_elements(table):
    """Elements a with an x in the table extending a's inverse, found by
    intersecting the sets of elements that hold each (point, image) pair
    of a's inverse, each confirmed by the literal product a*x*a == a."""
    imgs = [e.img for e in table.elements]
    holders = {}
    for pos, img in enumerate(imgs):
        for x, v in enumerate(img, start=1):
            if v:
                holders.setdefault((x, v), set()).add(pos)
    everyone = set(range(len(imgs)))
    out = []
    for a in imgs:
        needed = [holders.get((v, x), set()) for x, v in enumerate(a, start=1) if v]
        candidates = min(needed, key=len).intersection(*needed) if needed else everyone
        if candidates:
            ax = multiplier(a)((0,) + imgs[min(candidates)])
            if multiplier(ax)((0,) + a) == a:
                out.append(PartialInjection(table.n, a))
    return tuple(out)


def _fence_less(x, y):
    """x <_f y in the up-fence: adjacent points, the lesser one odd."""
    return abs(x - y) == 1 and x % 2 == 1


def _keeps_order(img):
    """Every comparable pair of defined points maps to a pair in the same
    order: (x, x+1) onto (u, v) with u <_f v when x is odd, v <_f u when
    x is even."""
    return all(
        not (u and v) or (_fence_less(u, v) if x % 2 else _fence_less(v, u))
        for x, (u, v) in enumerate(zip(img, img[1:]), start=1)
    )


def search_by_fingerprint(n, two_way=True):
    """The maps of IF_n (PFI_n when not ``two_way``) from the definition
    of the fence alone, with no block placement, as {J fingerprint:
    [first leaf, leaf count]}, the fingerprint in the text of
    :meth:`~fencemonoid.greens.JInvariant.encode`.

    A depth-first search assigns x -> v for x = 1..n in turn, v = 0
    leaving x undefined and no v used twice.  The comparable pairs of the
    fence are the pairs (x-1, x), so a branch is cut as soon as such a
    pair of defined points maps out of order.  For IF, the inverse of
    each complete map is tested for the same order at the leaf.  The
    values are tried in increasing order, 0 first, so the leaves come in
    increasing lexicographic order, and the first leaf of a fingerprint
    is its least map.
    """
    img = [0] * n
    free = set(range(1, n + 1))
    leaves = {}  # domain mask -> [first leaf, leaf count], in search order

    def search(x, dom):  # points 1..x are assigned, dom holds the defined ones
        if x == n:
            if not two_way or _keeps_order(_inverse(img)):
                found = leaves.setdefault(dom, [tuple(img), 0])
                found[1] += 1
            return
        u = img[x - 1] if x else 0
        for v in [0, *sorted(free)]:
            if u and v and not (_fence_less(u, v) if x % 2 else _fence_less(v, u)):
                continue
            img[x] = v
            free.discard(v)
            search(x + 1, dom | (1 << x if v else 0))
            if v:
                free.add(v)
        img[x] = 0

    search(0, 0)
    by_fingerprint = {}
    for first, total in leaves.values():
        fp = j_invariant(PartialInjection(n, first)).encode()
        # domains are met in the order of their first leaves
        by_fingerprint.setdefault(fp, [first, 0])[1] += total
    return by_fingerprint


def count_by_search(n, two_way=True):
    """|IF_n| (|PFI_n| when not ``two_way``) from the leaves of
    :func:`search_by_fingerprint`."""
    return sum(total for _, total in search_by_fingerprint(n, two_way).values())


def inverse_j_classes(table):
    """J-class partition of an inverse-closed table of partial
    injections, from the domains and images of its elements.

    In an inverse semigroup, a R b iff aa^-1 = bb^-1 and a L b iff
    a^-1a = b^-1b (Howie, Fundamentals of Semigroup Theory, 1995, Prop.
    5.1.2), and in a finite semigroup D = J.  A table closed under
    products and inverses is an inverse subsemigroup of I_n, where
    aa^-1 = id(dom a) and a^-1a = id(im a).  So a R b iff dom a = dom b,
    a L b iff im a = im b, and a J b iff dom a and dom b lie in one
    component of the graph on domains with one edge, dom a -> im a, per
    element: each edge joins two D-related idempotents, and D = R o L.
    The edge of a^-1 reverses the edge of a, so this graph is symmetric
    and :func:`~fencemonoid.enumeration._strong_components` gives its
    connected components.

    Closure under inverse is checked literally on bytes images; every
    table is closed under products
    (:class:`~fencemonoid.enumeration.SemigroupTable`).  For
    ``en.build(n, "IF")`` that holds: if a and b preserve the fence, so
    does ab, and so does its inverse b^-1 a^-1 when a^-1 and b^-1 do, so
    the composite of two maps that preserve the fence both ways does
    too.
    No fingerprint and no fence fact is read, so the partition tests the
    J criterion without assuming it.  Returns the classes as sorted
    lists of bytes images, ordered by least member.
    """
    imgs = table.imgs
    index = table.index
    doms = [img.translate(DEFINED) for img in imgs]
    # nodes are the domains that occur, not all 2^n subsets
    number = {dom: i for i, dom in enumerate(dict.fromkeys(doms))}
    succ: list[set] = [set() for _ in number]
    for img, dom in zip(imgs, doms):
        pos = index.get(inverse_img(img))
        if pos is None:
            elt = PartialInjection(table.n, img).encode()
            raise ValueError(f"the inverse of {elt} is not in the table")
        succ[number[dom]].add(number[doms[pos]])  # im a = dom a^-1
    comp = dict(zip(number, en._strong_components(succ)))
    return en.fibres(map(comp.__getitem__, doms), table.imgs)


def lift_domain_classes(table, domain_classes):
    """A partition of the domains, each given by its blocks, such as
    :func:`fencemonoid.enumeration.domain_j_classes` gives, as the
    partition of the table it induces: each element in the class of its
    domain.  Classes come as sorted lists of bytes images ordered by
    least member, as :func:`inverse_j_classes` gives them."""
    label = {dom: k for k, cls in enumerate(domain_classes) for dom in cls}
    doms = [blocks(table.n, [x for x, v in enumerate(img, 1) if v]) for img in table.imgs]
    return en.fibres([label[dom] for dom in doms], table.imgs)


def domain_image_counts(table):
    """(domain mask, image mask) -> the number of the table's elements
    with that domain and image, bit x-1 standing for point x."""
    return Counter(
        (sum(1 << x - 1 for x, v in enumerate(img, 1) if v), sum(1 << v - 1 for v in img if v))
        for img in table.imgs
    )
