import contextlib
import io
import math
import random
import time
import tracemalloc

import pytest

from fencemonoid import enumeration as en
from fencemonoid import cli, factor, fence, genfam, greens, pinj
from fencemonoid.enumeration import (
    NotSubsetError,
    TooLargeError,
)
from fencemonoid.pinj import PartialInjection
import tuple_kernel as slow
from tuple_kernel import multiplier

ALPHA = pinj.make(6, {(1, 3), (2, 2), (4, 6), (5, 5), (6, 4)})


def test_build_sizes_match_formula(table):
    # |I_n| = sum_k C(n,k)^2 k!
    for n in range(1, 6):
        size = sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
        assert len(table(n, "I")) == size


def test_build_if_small(table):
    assert len(table(1)) == 2
    assert len(table(2)) == 6
    swap = pinj.make(2, {(1, 2), (2, 1)})
    assert swap not in table(2)
    assert len(table(2, "I")) == 7


def test_build_counterexample_membership(table):
    assert ALPHA in table(6, "PFI")
    assert ALPHA not in table(6)


def test_build_resource_guard():
    for n, which in ((9, "I"), (11, "PFI"), (11, "IF")):
        with pytest.raises(TooLargeError, match=f"{which} .*1..{n - 1}"):
            en.build(n, which)


def test_build_deterministic():
    a = en.build(5, "IF")
    b = en.build(5, "IF")
    assert [e.encode() for e in a] == [e.encode() for e in b]


def test_build_matches_filter_oracle(table, filter_oracle):
    # block placement against the brute-force filter over all of I_n, and
    # I_n against its tuple listing: the sorted bytes images are the
    # sorted img tuples, so the elements come in the oracle's order
    for which, top in (("I", 6), ("PFI", 8), ("IF", 8)):
        for n in range(1, top + 1):
            oracle = filter_oracle(n, which)
            assert [e.img for e in table(n, which)] == oracle, (which, n)
            assert table(n, which).imgs == list(map(bytes, oracle)), (which, n)


def test_build_makes_no_membership_tests(monkeypatch):
    def refuse(a):
        pytest.fail(f"membership test called on {a.encode()}")

    # enumeration binds no membership test of its own to call
    bound = [name for name, v in vars(en).items() if getattr(v, "__module__", None) == fence.__name__]
    assert bound == []
    monkeypatch.setattr(fence, "in_if", refuse)
    monkeypatch.setattr(fence, "in_pfi", refuse)
    assert len(en.build(6, "IF")) == 612
    assert len(en.build(6, "PFI")) == 1424
    assert len(en.build(5, "I")) == 1546


def test_build_huge_if():
    for n, size in ((9, 34164), (10, 137412)):
        tbl = en.build(n, "IF")
        assert len(tbl) == size
        assert all(fence.in_if(a) for a in tbl)


def test_count_matches_definition_search():
    # the count by fingerprint and placement DP against a search that
    # knows only the fence order: 0.6 s on one Xeon core, almost all of it
    # the 168,358 leaves of IF_9's search
    for which, top in (("IF", 9), ("PFI", 8)):
        for n in range(1, top + 1):
            assert en.count(n, which) == slow.count_by_search(n, which == "IF"), (which, n)


def test_count_matches_build(table):
    for which, top in (("IF", 8), ("PFI", 8), ("I", 6)):
        for n in range(1, top + 1):
            assert en.count(n, which) == len(table(n, which)), (which, n)
    assert en.count(10, "if") == 137412 and en.count(10, "PFI") == 894790


def test_count_refuses_as_build():
    for n, which in ((11, "IF"), (11, "PFI"), (9, "I"), (0, "IF"), (3, "X")):
        with pytest.raises(ValueError) as built:
            en.build(n, which)
        with pytest.raises(ValueError) as counted:
            en.count(n, which)
        assert (counted.type, str(counted.value)) == (built.type, str(built.value))


def test_j_class_rows_match_the_table(table):
    # the table path the rows replace: least member and size of each class
    for n in range(1, 9):
        rows = en.j_class_rows(n)
        assert [(least, size) for least, size, _ in rows] == [
            (cls[0], len(cls)) for cls in greens.j_classes(table(n))
        ], n
        for least, _, key in rows:
            assert greens._shape(greens._block_order(PartialInjection(n, least))) == key


def test_j_class_rows_match_definition_search():
    # against a search that knows only the fence order and shares no
    # block placement with the rows: its first leaf per fingerprint is
    # the least map, its leaf count the class size
    for n in range(1, 9):
        found = {
            greens.j_invariant(PartialInjection(n, least)).encode(): [tuple(least), size]
            for least, size, _ in en.j_class_rows(n)
        }
        assert found == slow.search_by_fingerprint(n), n


def test_j_class_rows_refuse_as_build(monkeypatch):
    for n in (0, 11):
        with pytest.raises(TooLargeError) as built:
            en.build(n, "IF")
        with pytest.raises(TooLargeError) as rows:
            en.j_class_rows(n)
        assert str(rows.value) == str(built.value)
    # a fingerprint with no placement is a defect, raised under python -O too
    real = en._block_placements
    monkeypatch.setattr(
        en, "_block_placements", lambda n, start, length, two_way:
        [] if length == 2 else real(n, start, length, two_way)
    )
    with pytest.raises(RuntimeError, match=r"fingerprint \(\(2, False\),\) has no placement"):
        en.j_class_rows(4)


def test_table_index_is_built_on_first_use():
    tbl = en.build(5, "IF")
    assert len(tbl.elements) == 182 and "index" not in vars(tbl)
    assert PartialInjection.identity(5) in tbl and ALPHA not in tbl
    assert tbl.index == {img: i for i, img in enumerate(tbl.imgs)} and tbl.index is tbl.index


def test_closure_sigma_pair():
    got = en.closure(2, [genfam.sigma1(2), genfam.sigma2(2)])
    expected = {
        pinj.make(2, {(1, 2)}),
        pinj.make(2, {(2, 1)}),
        pinj.identity_on(2, {1}),
        pinj.identity_on(2, {2}),
        PartialInjection.empty(2),
    }
    assert set(got.elements) == expected


def test_closure_of_identity():
    got = en.closure(4, [PartialInjection.identity(4)])
    assert set(got.elements) == {PartialInjection.identity(4)}


def test_closure_of_distinguished_set_is_everything(table):
    got = en.closure(4, genfam.set_g(4))
    assert set(got.elements) == set(table(4).elements)


def _bfs_words(n, gens, min_rank=0):
    """element -> its shortest discovery word over ``gens``, from the
    breadth-first oracle of the tests."""
    parents = slow.saturate(n, gens, min_rank)
    return {
        PartialInjection(n, img): slow.word_for(parents, gens, img) for img in parents
    }


def test_closure_words_evaluate(table):
    cl = en.closure(6, genfam.set_g(6))
    words = _bfs_words(6, genfam.set_g(6))
    assert set(words) == set(cl.elements)
    rng = random.Random(9)
    for a in rng.sample(cl.elements, 60):
        prod = PartialInjection.identity(6)
        for letter in words[a]:
            prod = prod * letter
        assert prod == a


def test_closure_shortest_words(table):
    words = _bfs_words(6, genfam.set_g(6))
    for g in genfam.set_g(6):
        assert words[g] == [g]
    eps2 = genfam.epsilon(6, 2)
    assert len(words[eps2]) == 2


def test_floored_closure_words_match_full():
    # the floored saturation is the full one cut at the floor, and the
    # breadth-first oracle gives each element kept its full word, for
    # every floor up to the least generator rank
    cases = [(n, genfam.set_g(n)) for n in (2, 4, 6, 8)]
    cases += [(n, genfam.set_j(n)) for n in range(1, 7)]
    for n, gens in cases:
        full = en.saturate(n, gens)
        assert full == set(en.closure(n, gens).imgs)
        full_words = _bfs_words(n, gens)
        for k in range(min(g.rank for g in gens) + 1):
            floored = en.saturate(n, gens, k)
            assert floored == {img for img in full if n - img.count(0) >= k}
            floored_words = _bfs_words(n, gens, k)
            assert {a.raw for a in floored_words} == floored
            for a, word in floored_words.items():
                assert word == full_words[a]
    ident, empty = PartialInjection.identity(4), PartialInjection.empty(4)
    assert en.saturate(4, [ident, empty], 1) == {ident.raw}


def test_closure_tables_are_closed_under_products():
    # every literal product of two members is a member, on seeded
    # generator sets of I_n, with and without their inverses
    rng = random.Random(36)
    kinds = set()
    for n in range(1, 5):
        elements = en.build(n, "I").elements
        for _ in range(6):
            gens = rng.sample(elements, rng.randint(1, min(3, len(elements))))
            for gen_set in (gens, _with_inverses(gens)):
                tbl = en.closure(n, gen_set)
                kinds.add(all(g.inverse() in tbl for g in gen_set))
                members = set(tbl.elements)
                assert all(a * b in members for a in members for b in members), n
    assert kinds == {True, False}


def test_closure_stays_inside_if(table):
    rng = random.Random(10)
    elements = table(5).elements
    for _ in range(20):
        gens = rng.sample(elements, rng.randint(1, 4))
        cl = en.closure(5, gens)
        assert all(fence.in_if(a) for a in cl)
        assert set(cl.elements) <= set(elements)


def test_principal_ideals_identity(table, ideal_sets):
    tbl = table(3)
    ident = PartialInjection.identity(3)
    r, l, j = ideal_sets(tbl, ident)
    full = set(tbl.elements)
    assert set(r) == full and set(l) == full and set(j) == full


def test_principal_ideals_zero(table, ideal_sets):
    tbl = table(3)
    empty = PartialInjection.empty(3)
    r, l, j = ideal_sets(tbl, empty)
    assert set(r) == set(l) == set(j) == {empty}


def test_principal_ideals_hand_computed(table, ideal_sets):
    # n=2, a = {1->2}: products with all six elements, worked by hand
    tbl = table(2)
    a = pinj.make(2, {(1, 2)})
    ident = PartialInjection.identity(2)
    e1 = pinj.identity_on(2, {2})
    e2 = pinj.identity_on(2, {1})
    b = pinj.make(2, {(2, 1)})
    empty = PartialInjection.empty(2)
    r, l, j = ideal_sets(tbl, a)
    assert set(r) == {a, empty, e2}
    assert set(l) == {a, empty, e1}
    assert set(j) == {a, b, e1, e2, empty}
    assert ident not in j


def test_principal_ideals_not_member(table, ideal_sets):
    with pytest.raises(KeyError):
        ideal_sets(table(6), ALPHA)


def _principal_ideals_per_element(table, a):
    """(R, L, J) of one element from its own products: the per-element
    path that the bulk masks of ``principal_ideals`` replaced."""
    imgs = [e.img for e in table.elements]
    padded = [(0,) + b for b in imgs]
    ai = a.img
    padded_a = (0,) + ai
    right = set(map(multiplier(ai), padded))
    left = {multiplier(s)(padded_a) for s in imgs}
    two_sided = right | left
    for y in left:
        two_sided.update(map(multiplier(y), padded))
    right.add(ai)
    left.add(ai)
    two_sided.add(ai)
    wrap = lambda found: frozenset(PartialInjection(table.n, img) for img in found)
    return wrap(right), wrap(left), wrap(two_sided)


def test_principal_ideal_masks_match_per_element_products(table, ideal_sets):
    tables = [table(n) for n in range(1, 6)] + [table(n, "PFI") for n in range(1, 5)]
    for tbl in tables:
        for a in tbl:
            assert ideal_sets(tbl, a) == _principal_ideals_per_element(tbl, a), a.encode()


def test_is_generating_self(table):
    tbl = table(3)
    assert en.is_generating(tbl, tbl.elements)


def test_is_generating_not_subset(table):
    with pytest.raises(NotSubsetError):
        en.is_generating(table(3), [PartialInjection.identity(4)])


def _with_inverses(gens):
    return sorted(set(gens) | {g.inverse() for g in gens})


def _orbit_cases(table):
    """(n, inverse-closed generators) whose generated set is saturated
    in reasonable time: the rank >= n-2 set, its reduction with inverses,
    set_g, the rank layers and the irreducibles of IF_n."""
    for n in range(1, 9):
        tbl = table(n)
        set_j = genfam.set_j(n)
        yield n, set_j
        yield n, _with_inverses(en.reduce_generators(set_j))
        if n % 2 == 0:
            yield n, genfam.set_g(n)
        # below rank n-2 at n >= 7, test_orbit_size_of_low_rank_layers
        for k in range(n + 1 if n <= 6 else 3):
            yield n, [e for e in tbl if e.rank >= n - k]
        yield n, en.irreducibles(tbl)


def test_orbit_size_matches_saturation(table):
    checked = 0
    for n, gens in _orbit_cases(table):
        expected = len(en.saturate(n, gens))
        assert en.inverse_orbit_size(n, gens) == expected, (n, len(gens))
        assert en.generated_size(n, gens) == expected, (n, len(gens))
        checked += 1
    assert checked >= 60


def test_orbit_size_of_low_rank_layers(table):
    # T_k contains T_(n-2) = set_j and lies in the closed table, so
    # it generates what set_j generates; the saturation of all of T_k
    # would take |IF_n| * |T_k| products
    for n in (7, 8):
        tbl = table(n)
        expected = len(en.saturate(n, genfam.set_j(n)))
        assert expected == len(tbl)
        for k in range(n - 3, -1, -1):
            assert en.generated_size(n, [e for e in tbl if e.rank >= k]) == expected, (n, k)
    assert en.inverse_orbit_size(7, table(7).elements) == len(table(7))


def test_orbit_size_of_every_inverse_pair(table):
    # {a, a^-1} mostly generates a proper subsemigroup: a finite cyclic
    # group, or the nilpotent powers of a down to the empty map
    proper = 0
    for n in range(1, 6):
        for a in table(n):
            gens = {a, a.inverse()}
            size = en.inverse_orbit_size(n, gens)
            assert size == len(en.saturate(n, gens)), a.encode()
            proper += size < len(table(n))
    assert proper > 200


def _random_inverse_closed_sets():
    rng = random.Random(1998)
    for n in range(1, 6):
        elements = en.build(n, "I").elements
        perms = [e for e in elements if e.rank == n]
        yield n, perms
        for _ in range(30):
            gens = rng.sample(elements, rng.randint(1, min(4, len(elements))))
            yield n, _with_inverses(gens)
            # a permutation group, possibly with partial maps added
            group = rng.sample(perms, rng.randint(1, min(3, len(perms))))
            yield n, _with_inverses(group)
            yield n, _with_inverses(group + rng.sample(elements, 2))


def test_orbit_size_of_random_inverse_closed_sets():
    groups = 0
    for n, gens in _random_inverse_closed_sets():
        expected = len(en.saturate(n, gens))
        assert en.inverse_orbit_size(n, gens) == expected, [g.encode() for g in gens]
        assert en.generated_size(n, gens) == expected
        groups += all(g.rank == n for g in gens) and expected > 2
    assert groups >= 20


def _table_action(tables, width, a):
    """A.g from the chunk tables of g: the OR of each chunk's entry for
    the bits of A in it."""
    low = (1 << width) - 1
    b = 0
    for k, t in enumerate(tables):
        b |= t[a >> k * width & low]
    return b


def _literal_image_mask(g, a):
    """The mask of the image of A & dom g, point by point."""
    return sum(1 << y >> 1 for x, y in enumerate(g.raw) if a >> x & 1)


def test_mask_action_matches_literal_image():
    # inverse_orbit_size splits n <= 16 points into two chunks, of
    # ceil(n/2) points and of the rest, so odd n has an uneven split;
    # every subset is checked
    checked = 0
    for n in range(1, 9):
        width = (n + 1) // 2
        gens = list(genfam.set_j(n)) + (list(genfam.set_g(n)) if n % 2 == 0 else [])
        for g in gens:
            tables = en._image_tables(g.raw, width)
            assert [len(t) for t in tables] == [1 << width, 1 << n - width]
            for a in range(1 << n):
                assert _table_action(tables, width, a) == _literal_image_mask(g, a), (g, a)
                checked += 1
    assert checked > 60_000


def test_mask_action_past_16_points():
    # past n = 16 the chunks have 8 points, the last one fewer
    rng = random.Random(16)
    for n in (17, 20, 24, 25, 32):
        chunks = (n + 7) // 8
        for _ in range(5):
            g = PartialInjection(n, rng.sample(range(n + 1), n))
            tables = en._image_tables(g.raw, 8)
            assert [len(t) for t in tables] == [256] * (chunks - 1) + [1 << (n - 8 * chunks + 8)]
            for a in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(200)]:
                assert _table_action(tables, 8, a) == _literal_image_mask(g, a)


def test_orbit_size_past_16_points():
    # partial identities that miss one of five points each, and
    # transpositions that generate their symmetric group: on the five
    # points, in every chunk of 8, this is I_5
    for n in (17, 20, 25):
        points = (3, 9, 12, 16, n)
        gens = [pinj.identity_on(n, set(range(1, n + 1)) - {p}) for p in points]
        for p, q in zip(points, points[1:]):
            fixed = {(x, x) for x in range(1, n + 1) if x not in (p, q)}
            gens.append(pinj.make(n, fixed | {(p, q), (q, p)}))
        expected = len(en.saturate(n, gens))
        assert expected == 1546
        assert en.inverse_orbit_size(n, gens) == slow.inverse_orbit_size(n, gens) == expected, n


def test_orbit_size_edge_cases():
    empty, ident = PartialInjection.empty(4), PartialInjection.identity(4)
    a = pinj.make(4, {(1, 2)})
    # the empty map's class {empty} counts once, reached or given
    assert en.inverse_orbit_size(4, [empty]) == 1
    assert en.inverse_orbit_size(4, [empty, ident]) == 2
    for gens in ([a, a.inverse()], [a, a.inverse(), empty], [a, a.inverse(), ident]):
        assert en.inverse_orbit_size(4, gens) == len(en.saturate(4, gens))
    for size in (en.inverse_orbit_size, en.generated_size, en.saturate):
        with pytest.raises(ValueError, match="at least one generator"):
            size(4, [])
        with pytest.raises(ValueError, match="ambient size 4, expected 5"):
            size(5, [ident])
    with pytest.raises(ValueError, match=r"inverse of n=4:\[1>2\] is not among"):
        en.inverse_orbit_size(4, [a, ident])
    # without inverses, the size is the saturation's
    assert en.generated_size(4, [a, ident]) == len(en.saturate(4, [a, ident])) == 3


def test_irreducibles_smallest_case(table):
    assert set(en.irreducibles(table(2))) == set(genfam.set_g(2))


def test_irreducibles_match_distinguished_set(table):
    assert set(en.irreducibles(table(4))) == set(genfam.set_g(4))


def test_irreducibles_of_identity_closure():
    tbl = en.closure(3, [PartialInjection.identity(3)])
    assert en.irreducibles(tbl) == (PartialInjection.identity(3),)


def _irreducibles_full_scan(table):
    """Every product of two elements: the reference for the rank-stratified scan."""
    imgs = [e.img for e in table.elements]
    reducible = set()
    for a in imgs:
        for b in imgs:
            p = tuple(b[v - 1] if v else 0 for v in a)
            if p != a and p != b:
                reducible.add(p)
    return tuple(PartialInjection(table.n, img) for img in imgs if img not in reducible)


def _regular_full_scan(table):
    """Every a with some x in the table such that a*x*a == a, by products."""
    imgs = [e.img for e in table.elements]
    out = []
    for a in imgs:
        for x in imgs:
            ax = tuple(x[v - 1] if v else 0 for v in a)
            if tuple(a[v - 1] if v else 0 for v in ax) == a:
                out.append(PartialInjection(table.n, a))
                break
    return tuple(out)


def _random_map(rng, n, lo, hi):
    k = rng.randint(lo, hi)
    return pinj.make(n, zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k)))


def _low_rank_closures():
    """Closures of the identity, the empty map and mixed low-rank maps.  In
    most of them the rank >= n-2 elements do not generate, so the
    irreducible scan has to step down to lower ranks."""
    tables = []
    for n in (3, 4, 5, 6):
        identity, empty = PartialInjection.identity(n), PartialInjection.empty(n)
        tables += [en.closure(n, [identity]), en.closure(n, [empty])]
        tables.append(en.closure(n, [identity, empty]))
        rng = random.Random(n)
        for _ in range(3):
            gens = [_random_map(rng, n, 1, 2), _random_map(rng, n, 1, 2)]
            tables.append(en.closure(n, gens + [_random_map(rng, n, n - 1, n)]))
    return tables


def test_irreducibles_match_full_scan(table):
    for n in range(1, 7):
        assert en.irreducibles(table(n)) == _irreducibles_full_scan(table(n))
    for tbl in _low_rank_closures():
        assert en.irreducibles(tbl) == _irreducibles_full_scan(tbl)


def test_irreducibles_skip_empty_rank_bands(monkeypatch, table):
    # a failed generation check steps straight to the next rank present,
    # so {identity, empty map} at n = 6 needs one check, not four
    tbl = en.closure(6, [PartialInjection.identity(6), PartialInjection.empty(6)])
    calls = []
    real = en.generated_size

    def spy(n, gens):
        calls.append(gens)
        return real(n, gens)

    monkeypatch.setattr(en, "generated_size", spy)
    assert en.irreducibles(tbl) == _irreducibles_full_scan(tbl)
    assert len(calls) == 1
    calls.clear()
    assert en.irreducibles(table(6)) == _irreducibles_full_scan(table(6))
    assert len(calls) == 1


def _reduction_inputs(table):
    """Generating sets to reduce: the rank >= n-2 and rank >= n-1 layers,
    set_g, seeded random subsets and the low-rank closures."""
    for n in range(1, 9):
        yield genfam.set_j(n)
        yield [e for e in table(n) if e.rank >= n - 1]
    for n in (2, 4, 6, 8):
        yield genfam.set_g(n)
    rng = random.Random(2019)
    for n in range(1, 7):
        elements = table(n).elements
        for _ in range(25):
            yield rng.sample(elements, rng.randint(1, min(12, len(elements))))
    for tbl in _low_rank_closures():
        yield tbl.gens
        yield tbl.elements


def test_reduce_generators_generates_the_same_set(table):
    # the plain closure over the unreduced set is the reference
    checked = 0
    for gens in _reduction_inputs(table):
        n = gens[0].n
        reduced = en.reduce_generators(gens)
        assert set(reduced) <= set(gens)
        assert set(en.closure(n, reduced)) == set(en.closure(n, gens))
        checked += 1
    assert checked >= 200
    assert len(en.reduce_generators(genfam.set_j(8))) == 17


def test_reduce_generators_keeps_top_rank_and_drops_products():
    identity = PartialInjection.identity(4)
    eps1, eps2 = genfam.epsilon(4, 1), genfam.epsilon(4, 2)
    # eps1 * eps2 has rank 2 and is dropped; eps1 is no product of identity
    assert en.reduce_generators([eps1 * eps2, eps2, eps1, eps2]) == sorted([eps1, eps2])
    assert en.reduce_generators([eps1, identity]) == sorted([eps1, identity])
    assert en.reduce_generators([]) == []


def test_ideal_j_classes_match_unreduced_graph(monkeypatch, table):
    for n in range(1, 8):
        reduced = en.ideal_j_classes(table(n), genfam.set_j(n))
        with monkeypatch.context() as m:
            m.setattr(en, "reduce_generators", list)
            unreduced = en.ideal_j_classes(table(n), genfam.set_j(n))
        assert reduced == unreduced, n


def test_inverse_j_classes_match_ideal_and_fingerprint_classes(table):
    for n in range(1, 9):
        tbl = table(n)
        classes = slow.inverse_j_classes(tbl)
        assert classes == en.ideal_j_classes(tbl, genfam.set_j(n)), n
        assert classes == greens.j_classes(tbl), n


def test_inverse_j_classes_match_all_pairs_principal_ideals(table):
    for n in range(1, 6):
        tbl = table(n)
        _, _, jsets = en.principal_ideals(tbl)
        size = len(tbl)
        # positions J-related to i: each lies in the other's two-sided ideal
        related = [
            tuple(j for j in range(size) if jsets[i] >> j & jsets[j] >> i & 1)
            for i in range(size)
        ]
        oracle = sorted(set(related))
        got = sorted(tuple(map(tbl.index.__getitem__, cls)) for cls in slow.inverse_j_classes(tbl))
        assert got == oracle, n


def test_inverse_j_classes_on_closure_tables():
    for n in (2, 4, 6):
        tbl = en.closure(n, genfam.set_g(n))
        assert slow.inverse_j_classes(tbl) == en.ideal_j_classes(tbl, tbl.gens), n
    # on closures that are not fence monoids: agree where closed under
    # inverse, refuse where not
    agreed = refused = 0
    for tbl in _low_rank_closures():
        try:
            classes = slow.inverse_j_classes(tbl)
        except ValueError as exc:
            assert "inverse" in str(exc)
            assert any(e.inverse() not in tbl for e in tbl)
            refused += 1
        else:
            assert classes == en.ideal_j_classes(tbl, tbl.gens)
            agreed += 1
    assert agreed and refused


def test_inverse_j_classes_refuse_tables_not_inverse_closed(table):
    with pytest.raises(ValueError, match="inverse of n=4:"):
        slow.inverse_j_classes(table(4, "PFI"))


def test_inverse_j_classes_read_no_fingerprint_or_fence_fact(monkeypatch, table):
    tables = [table(n) for n in range(1, 9)]
    expected = [greens.j_classes(tbl) for tbl in tables]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read the criterion")

    for mod, name in (
        (greens, "j_invariant"), (greens, "j_classes"), (greens, "blocks"),
        (en, "blocks"), (fence, "in_if"), (fence, "in_pfi"),
    ):
        monkeypatch.setattr(mod, name, refuse)
    assert [slow.inverse_j_classes(tbl) for tbl in tables] == expected


def _components_partition(comp):
    """The partition that a node -> label list gives, after checking that
    every label is a node of its own component."""
    groups = {}
    for node, label in enumerate(comp):
        assert comp[label] == label
        groups.setdefault(label, set()).add(node)
    return set(map(frozenset, groups.values()))


def _reachable(succ, start):
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [w for x in frontier for w in succ[x] if w not in seen]
        seen.update(frontier)
    return seen


def test_strong_components_match_reachability():
    # hand-built symmetric graph over nodes 0..6, node 0 isolated
    succ = [[], [2], [1, 5], [4], [3], [2], [6]]
    comp = en._strong_components(succ)
    assert comp[1] == comp[2] == comp[5]
    assert comp[3] == comp[4]
    assert len({comp[0], comp[1], comp[3], comp[6]}) == 4
    assert en._strong_components([]) == []
    # a long undirected chain stays one component
    chain = [[w for w in (v - 1, v + 1) if 0 <= w < 1000] for v in range(1000)]
    assert len(set(en._strong_components(chain))) == 1
    # a directed path of 1000 nodes splits into 1000 components and a
    # directed cycle is one; a recursive search would pass the default
    # recursion limit on either
    path = [[v + 1] for v in range(999)] + [[]]
    assert len(set(en._strong_components(path))) == 1000
    cycle = [[(v + 1) % 1000] for v in range(1000)]
    assert len(set(en._strong_components(cycle))) == 1
    # random undirected graphs as symmetric successor lists, against
    # components found by breadth-first search
    rng = random.Random(5)
    for _ in range(200):
        adjacent = [set() for _ in range(30)]
        for _ in range(rng.randrange(40)):
            u, v = rng.randrange(30), rng.randrange(30)
            adjacent[u].add(v)
            adjacent[v].add(u)
        succ = [sorted(row) for row in adjacent]
        components = {frozenset(_reachable(succ, v)) for v in range(30)}
        assert _components_partition(en._strong_components(succ)) == components
    # random directed graphs, against brute-force mutual reachability
    rng = random.Random(6)
    for _ in range(300):
        size = rng.randrange(1, 25)
        succ = [[] for _ in range(size)]
        for _ in range(rng.randrange(3 * size)):
            succ[rng.randrange(size)].append(rng.randrange(size))
        reach = [_reachable(succ, v) for v in range(size)]
        components = {
            frozenset(w for w in reach[v] if v in reach[w]) for v in range(size)
        }
        assert _components_partition(en._strong_components(succ)) == components


def test_ideal_j_classes_follow_edge_direction_on_pfi(table):
    # PFI_n is not inverse: rank-keeping edges leave J-classes, so
    # components that ignored direction (3, 4, 5, 6, 7 of them) would fail
    counts = []
    for n in range(2, 7):
        tbl = table(n, "PFI")
        high = [e for e in tbl.elements if e.rank >= n - 2]
        classes = en.ideal_j_classes(tbl, high)
        counts.append(len(classes))
        if n <= 5:
            _, _, jsets = en.principal_ideals(tbl)
            size = len(tbl)
            related = {
                tuple(j for j in range(size) if jsets[i] >> j & jsets[j] >> i & 1)
                for i in range(size)
            }
            got = sorted(tuple(map(tbl.index.__getitem__, cls)) for cls in classes)
            assert got == sorted(related), n
    assert counts == [3, 6, 11, 20, 38]


def test_inverse_j_classes_number_only_the_domains_that_occur():
    n = 20
    tbl = en.closure(n, [PartialInjection.identity(n), genfam.epsilon(n, 1)])
    tracemalloc.start()
    try:
        classes = slow.inverse_j_classes(tbl)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == 2
    # a list over all 2^20 domain masks alone would take megabytes
    assert peak < 1 << 20


def _domain_graph(monkeypatch, n):
    """(domain_j_classes(n), the successor lists it splits), the latter
    taken from its call to ``_strong_components``."""
    seen = []
    real = en._strong_components
    monkeypatch.setattr(en, "_strong_components", lambda succ: seen.append(succ) or real(succ))
    classes = en.domain_j_classes(n)
    monkeypatch.undo()
    (succ,) = seen
    return classes, succ


def test_domain_j_classes_read_the_domain_image_pairs_of_the_table(monkeypatch, table):
    for n in range(1, 9):
        _, succ = _domain_graph(monkeypatch, n)
        pairs = slow.domain_image_counts(table(n))
        assert len(succ) == 2**n
        assert {(dom, im) for dom, ims in enumerate(succ) for im in ims} == set(pairs), n
        # and each pair's count is the number of maps with that domain and image
        assert {(dom, im): c for dom, ims in enumerate(succ) for im, c in ims.items()} == pairs, n


def test_domain_j_classes_match_the_table_oracles(table):
    for n in range(1, 9):
        tbl = table(n)
        lifted = slow.lift_domain_classes(tbl, en.domain_j_classes(n))
        assert lifted == slow.inverse_j_classes(tbl), n
        assert lifted == greens.j_classes(tbl), n


def test_domain_j_classes_read_no_fingerprint(monkeypatch):
    expected = [en.domain_j_classes(n) for n in range(1, 11)]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read the criterion")

    for mod, name in (
        (greens, "_block_key"), (en, "_block_key"), (greens, "_shape"),
        (greens, "j_invariant"), (greens, "j_classes"), (en, "_fingerprint_groups"),
        (en, "build"), (fence, "in_if"),
    ):
        monkeypatch.setattr(mod, name, refuse)
    assert [en.domain_j_classes(n) for n in range(1, 11)] == expected
    # and the partition is the fingerprint grouping
    monkeypatch.undo()
    for n, classes in enumerate(expected, 1):
        groups = en._fingerprint_groups(n).values()
        assert set(map(frozenset, classes)) == set(map(frozenset, groups)), n


def test_regular_elements_match_full_scan(table):
    for n in range(1, 7):
        tbl = table(n, "PFI")
        assert en.regular_elements(tbl) == _regular_full_scan(tbl)
    for tbl in _low_rank_closures():
        assert en.regular_elements(tbl) == _regular_full_scan(tbl)


def _kernel_cases(table):
    """(n, generators) for the bulk consumers: set_j and set_g, the rank
    layers of IF_n for n <= 6, and the reduced set_j with inverses."""
    for n in range(1, 9):
        yield n, genfam.set_j(n)
        yield n, _with_inverses(en.reduce_generators(genfam.set_j(n)))
        if n % 2 == 0:
            yield n, genfam.set_g(n)
        if n <= 6:
            for k in range(n + 1):
                yield n, [e for e in table(n) if e.rank >= k]


def test_saturate_matches_tuple_kernel(table):
    # the same generated set, floored or not
    for n, gens in _kernel_cases(table):
        for k in sorted({0, max(n - 2, 0), n}):
            expected = {bytes(img) for img in slow.saturate(n, gens, k)}
            assert en.saturate(n, gens, k) == expected, (n, len(gens), k)


def test_orbit_size_matches_tuple_kernel(table):
    cases = list(_kernel_cases(table)) + list(_random_inverse_closed_sets())
    for n, gens in cases:
        if all(g.inverse() in set(gens) for g in gens):
            assert en.inverse_orbit_size(n, gens) == slow.inverse_orbit_size(n, gens), n


def test_principal_ideals_match_tuple_kernel(table):
    tables = [table(n) for n in range(1, 7)] + [table(n, "PFI") for n in range(1, 6)]
    for tbl in tables + _low_rank_closures():
        assert en.principal_ideals(tbl) == slow.principal_ideals(tbl)


def test_cayley_rows_match_tuple_kernel(table):
    # the two-sided Cayley graph over the reduced generators that
    # ideal_j_classes splits, edge for edge
    cases = [(table(n), genfam.set_j(n)) for n in range(1, 9)]
    for n in range(1, 7):
        pfi = table(n, "PFI")
        cases.append((pfi, [e for e in pfi.elements if e.rank >= n - 2]))
    for tbl, gens in cases:
        reduced = en.reduce_generators(gens)
        got = [list(row) for row in en._cayley_rows(tbl, reduced)]
        assert got == slow.cayley_rows(tbl, reduced), (tbl.n, len(tbl))


def _check_irreducibles_within(layer, *context):
    got = [tuple(img) for img in en._irreducibles_within(layer)]
    assert got == slow.irreducibles_within(list(map(tuple, layer))), context


def test_irreducibles_within_match_tuple_kernel(table):
    # every layer T_k of IF_1..6, PFI_1..6 and the low-rank closures, and
    # the layers k >= n-3 of IF_7 and IF_8
    tables = [table(n) for n in range(1, 7)] + [table(n, "PFI") for n in range(1, 7)]
    layers = [(tbl, k) for tbl in tables + _low_rank_closures() for k in range(tbl.n + 1)]
    layers += [(table(n), k) for n in (7, 8) for k in range(n - 3, n + 1)]
    for tbl, k in layers:
        layer = [img for img in tbl.imgs if tbl.n - img.count(0) >= k]
        _check_irreducibles_within(layer, tbl.n, len(tbl), k)
    # seeded subsets of layers, in random order: a subset is not closed
    # under products and its least rank may lie above the layer's k, so
    # the scan must bound what it skips by the least rank it is given
    rng = random.Random(41)
    for tbl in (table(5), table(6), table(7), table(5, "PFI"), table(6, "PFI")):
        for k in range(tbl.n + 1):
            layer = [img for img in tbl.imgs if tbl.n - img.count(0) >= k]
            for _ in range(3):
                subset = rng.sample(layer, rng.randint(1, min(len(layer), 200)))
                _check_irreducibles_within(subset, tbl.n, len(tbl), k, len(subset))


def test_irreducibles_within_edge_layers():
    # the empty layer, and one-element layers: a map alone is irreducible,
    # since its only product is its square, which for the empty map is
    # itself and so neither other factor
    empty, identity = PartialInjection.empty(5).raw, PartialInjection.identity(5).raw
    assert en._irreducibles_within([]) == []
    for img in (empty, identity, pinj.make(5, [(1, 2)]).raw, pinj.make(5, [(1, 2), (2, 1)]).raw):
        assert en._irreducibles_within([img]) == [img]
    for layer in ([empty, identity], [identity, empty]):
        _check_irreducibles_within(layer)


def _rank_of_product_matches_meet(a, b):
    meet = set(a.img) & {x for x, y in enumerate(b.img, 1) if y}
    return (a * b).rank == len(meet - {0})


def test_rank_of_a_product_is_the_meet_of_image_and_domain(table):
    # rank(ab) = |im a & dom b|, which the irreducible scan reads to skip
    # the pairs whose product leaves its layer: every pair of I_4, and
    # seeded pairs at n = 9..32
    elements = table(4, "I").elements
    assert all(_rank_of_product_matches_meet(a, b) for a in elements for b in elements)
    rng = random.Random(9)
    for n in range(9, 33):
        for _ in range(200):
            a, b = _random_map(rng, n, 0, n), _random_map(rng, n, 0, n)
            assert _rank_of_product_matches_meet(a, b), (a.encode(), b.encode())


def test_regular_elements_match_tuple_kernel(table):
    tables = [table(n, "PFI") for n in range(1, 8)] + [table(n) for n in range(1, 9)]
    for tbl in tables + _low_rank_closures():
        assert en.regular_elements(tbl) == slow.regular_elements(tbl), (tbl.n, len(tbl))


def test_regular_elements_confirm_each_inverse_with_the_product(monkeypatch, table):
    # an inverse lookup that answers with the next member's image finds
    # it in the table, and the literal product a*x*a == a refuses it
    tbl = table(4, "PFI")

    def next_member(img):
        return tbl.imgs[(tbl.index[img] + 1) % len(tbl)]

    monkeypatch.setattr(en, "inverse_img", next_member)
    with pytest.raises(RuntimeError, match="failed its check"):
        en.regular_elements(tbl)


def test_ideal_j_classes_reduce_the_generators_once(monkeypatch, table):
    # the reduced set goes straight to the size check: one reduction, and
    # its two floored saturations, at n = 8
    calls = {"reduce": 0, "floored": 0}
    real_reduce, real_saturate = en.reduce_generators, en.saturate

    def reduce(gens):
        calls["reduce"] += 1
        return real_reduce(gens)

    def saturate(n, gens, min_rank=0):
        calls["floored"] += min_rank > 0
        return real_saturate(n, gens, min_rank)

    monkeypatch.setattr(en, "reduce_generators", reduce)
    monkeypatch.setattr(en, "saturate", saturate)
    classes = en.ideal_j_classes(table(8), genfam.set_j(8))
    assert len(classes) == 42
    assert calls == {"reduce": 1, "floored": 2}


def test_least_generating_set_even(table):
    least = en.least_generating_set(table(4))
    assert least is not None
    assert set(least) == set(genfam.set_g(4))
    assert len(least) == 5


def test_least_generating_set_odd_is_none(table):
    assert en.least_generating_set(table(3)) is None


def test_least_generating_set_trivial():
    tbl = en.closure(3, [PartialInjection.identity(3)])
    assert en.least_generating_set(tbl) == (PartialInjection.identity(3),)


def test_semigroup_rank_exact(table):
    assert en.semigroup_rank(table(2)) == ("exact", 3)
    assert en.semigroup_rank(table(4)) == ("exact", 5)


def test_semigroup_rank_bounds(table):
    for n, bounds in ((3, (1, 5)), (5, (1, 6))):
        kind, lo, hi = en.semigroup_rank(table(n))
        assert kind == "bounds"
        assert lo <= hi
        # the greedy result still generates, so rank is at most hi
        assert hi <= len(table(n))
        assert (lo, hi) == bounds


def test_semigroup_rank_descent_refuses_large_tables(table):
    # IF_7 has no least generating set and lies past the descent's
    # limit: refused after the irreducible scan, before any descent
    tbl = table(7)
    assert len(table(5)) <= en.DESCENT_MAX_SIZE < len(tbl)
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match="descent"):
        en.semigroup_rank(tbl)
    assert time.perf_counter() - start < 1.0


def test_regular_pfi_elements_lie_in_if(table):
    for n in range(1, 5):
        tbl = table(n, "PFI")
        for a in en.regular_elements(tbl):
            assert fence.in_if(a)


def test_ideal_oracle_requires_generating_set(table):
    with pytest.raises(ValueError):
        en.ideal_j_classes(table(3), [PartialInjection.identity(3)])


def _cli_out(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_generation_checks_record_no_words(monkeypatch, table):
    # a generation check reads only the generated set, so none of them
    # builds a closure table with its words
    tbl, set_j, set_g = table(6), genfam.set_j(6), genfam.set_g(6)
    argvs = [("verify", "--n", "6", "--claim", claim) for claim in ("thm1", "thm2")]
    expected = [_cli_out(*argv) for argv in argvs]
    assert [code for code, _ in expected] == [0, 0]

    def refuse(*args, **kwargs):
        raise AssertionError("a generation check built a closure table")

    for mod in (en, genfam, factor):
        monkeypatch.setattr(mod, "closure", refuse)
    assert en.is_generating(tbl, set_j)
    assert not en.is_generating(tbl, [PartialInjection.identity(6)])
    reduced = en.reduce_generators(set_j)
    assert set(reduced) <= set(set_j) and len(reduced) < len(set_j)
    assert en.is_generating(tbl, reduced)
    assert set(en.least_generating_set(tbl)) == set(set_g)
    assert en.semigroup_rank(tbl) == ("exact", 7)
    assert en.ideal_j_classes(tbl, set_j) == greens.j_classes(tbl)
    assert [_cli_out(*argv) for argv in argvs] == expected


def test_semigroup_rank_descent_check(monkeypatch, table):
    # a saturation that never generates makes the greedy result fail its check
    tbl = table(3)
    monkeypatch.setattr(en, "saturate", lambda n, gens, min_rank=0: set())
    with pytest.raises(RuntimeError, match="descent"):
        en.semigroup_rank(tbl)
