import random
from collections import defaultdict

import pytest

from fencemonoid import enumeration as en
from fencemonoid import fence, genfam, greens, pinj
from fencemonoid.greens import NotJRelatedError
from fencemonoid.pinj import PartialInjection, SizeMismatchError

# the rank-4 pair of maps on {1..6} with equal rank but different block shape
A6 = pinj.make(6, {(1, 2), (4, 6), (5, 5), (6, 4)})
B6 = pinj.make(6, {(1, 5), (2, 6), (5, 1), (6, 2)})


def test_blocks_examples():
    assert greens.blocks(6, {1, 4, 5, 6}) == ((1, 1), (4, 3))
    assert greens.blocks(6, set()) == ()
    assert greens.blocks(6, range(1, 7)) == ((1, 6),)


def test_blocks_out_of_range():
    with pytest.raises(pinj.OutOfRangeError):
        greens.blocks(4, {5})


def test_j_invariant_of_section2_example():
    inv = greens.j_invariant(A6)
    assert inv.sizes == ((1, 1), (3, 1))
    assert inv.odd_starts == ((3, 0),)
    assert inv.encode() == "1:1;3:1:0"


def test_j_invariant_single_odd_start_block():
    inv = greens.j_invariant(pinj.identity_on(6, {1, 2, 3}))
    assert inv.sizes == ((3, 1),)
    assert inv.odd_starts == ((3, 1),)


def test_j_invariant_empty():
    inv = greens.j_invariant(PartialInjection.empty(6))
    assert inv.sizes == () and inv.odd_starts == ()
    assert inv.encode() == ""


def test_j_invariant_counts_domain_size(table):
    for a in table(5):
        inv = greens.j_invariant(a)
        assert sum(k * c for k, c in inv.sizes) == a.rank
        totals = dict(inv.sizes)
        for k, c in inv.odd_starts:
            assert 0 <= c <= totals[k]


def test_green_test_domain_image():
    e1 = genfam.epsilon(4, 1)
    e2 = genfam.epsilon(4, 2)
    assert not greens.relations(e1, e2)["R"]
    assert not greens.relations(e1, e2)["L"]
    assert greens.relations(e1, e1)["H"]
    # same image, different domain: L holds, R does not
    a = pinj.make(4, {(1, 1), (2, 2)})
    b = pinj.make(4, {(3, 1), (4, 2)})
    assert greens.relations(a, b)["L"]
    assert not greens.relations(a, b)["R"]


def test_green_test_rejects_non_if():
    bad = pinj.make(6, {(1, 3), (2, 2), (4, 6), (5, 5), (6, 4)})
    with pytest.raises(fence.NotInIFError):
        greens.relations(bad, bad)


def test_green_test_matches_one_sided_ideals(table, ideal_sets):
    # R iff equal right ideals, L iff equal left ideals, exhaustively
    for n in range(1, 6):
        tbl = table(n)
        rsets, lsets = {}, {}
        for a in tbl:
            r, l, _ = ideal_sets(tbl, a)
            rsets[a], lsets[a] = r, l
        for a in tbl:
            for b in tbl:
                verdicts = greens.relations(a, b)
                assert verdicts["R"] == (rsets[a] == rsets[b])
                assert verdicts["L"] == (lsets[a] == lsets[b])


def test_j_verdict_is_fingerprint_equality(table):
    # relations compares sorted block keys; the fingerprint is the rule
    for n in range(1, 6):
        elements = table(n).elements
        prints = [greens.j_invariant(a) for a in elements]
        for a, pa in zip(elements, prints):
            for b, pb in zip(elements, prints):
                assert greens.relations(a, b)["J"] == (pa == pb)


def test_section2_pair_not_j_related():
    assert A6.rank == B6.rank == 4
    assert not greens.relations(A6, B6)["J"]
    assert greens.relations(A6, A6)["J"]


def test_j_related_translated_identities():
    assert greens.relations(
        pinj.identity_on(6, {1, 2}), pinj.identity_on(6, {5, 6})
    )["J"]


def test_singleton_start_parity_is_irrelevant():
    assert greens.relations(
        pinj.identity_on(6, {4}), pinj.identity_on(6, {5})
    )["J"]


def test_odd_block_start_parity_matters():
    assert not greens.relations(
        pinj.identity_on(6, {1, 2, 3}), pinj.identity_on(6, {2, 3, 4})
    )["J"]


def test_j_witness_spec_example():
    a = pinj.identity_on(6, {1, 2})
    b = pinj.identity_on(6, {5, 6})
    g, d = greens.j_witness(a, b)
    assert g == pinj.make(6, {(5, 1), (6, 2)})
    assert d == pinj.make(6, {(1, 5), (2, 6)})
    assert g * a * d == b


def test_j_witness_reflexive_is_identity_pair():
    g, d = greens.j_witness(A6, A6)
    assert g == pinj.identity_on(6, A6.domain())
    assert d == pinj.identity_on(6, A6.image())


def test_j_witness_rejects_unrelated():
    with pytest.raises(NotJRelatedError):
        greens.j_witness(A6, B6)
    with pytest.raises(SizeMismatchError):
        greens.j_witness(pinj.identity_on(6, {1, 2}), pinj.identity_on(8, {7, 8}))


def test_j_witness_sound_exhaustive(table):
    for n in range(1, 5):
        for a in table(n):
            for b in table(n):
                if greens.relations(a, b)["J"]:
                    g, d = greens.j_witness(a, b)
                    assert fence.in_if(g) and fence.in_if(d)
                    assert g.domain() == b.domain() and g.image() == a.domain()
                    assert g * a * d == b


def test_j_classes_partition(table):
    tbl = table(2)
    classes = greens.j_classes(tbl)
    assert sum(len(c) for c in classes) == len(tbl)
    # identity, the four rank-1 maps, the empty map
    assert sorted(len(c) for c in classes) == [1, 1, 4]


def test_j_classes_singleton():
    tbl = en.closure(3, [PartialInjection.identity(3)])
    assert greens.j_classes(tbl) == [[bytes((1, 2, 3))]]


def test_j_classes_eps1_eps6_split(table):
    classes = greens.j_classes(table(6))
    e1, e6 = genfam.epsilon(6, 1), genfam.epsilon(6, 6)
    c1 = next(i for i, c in enumerate(classes) if bytes(e1.img) in c)
    c6 = next(i for i, c in enumerate(classes) if bytes(e6.img) in c)
    assert c1 != c6


def _j_classes_per_element(table):
    """J-classes from one fingerprint per element: the fibering that the
    per-domain one of ``j_classes`` replaced."""
    fibers = defaultdict(list)
    for elt in table.elements:
        inv = greens.j_invariant(elt)
        fibers[(inv.sizes, inv.odd_starts)].append(elt)
    classes = [sorted(bytes(e.img) for e in members) for members in fibers.values()]
    classes.sort(key=lambda cls: cls[0])
    return classes


def test_j_classes_match_per_element_fibering(monkeypatch, table):
    for n in range(1, 10):
        assert greens.j_classes(table(n)) == _j_classes_per_element(table(n)), n
    # one block decomposition per distinct domain: every subset of
    # {1..8} is one
    calls = []
    real = greens.blocks
    monkeypatch.setattr(greens, "blocks", lambda n, points: calls.append(n) or real(n, points))
    greens.j_classes(table(8))
    assert len(calls) == 2**8


def test_j_invariant_constant_on_oracle_classes(table):
    for n in range(1, 6):
        tbl = table(n)
        for cls in en.ideal_j_classes(tbl, genfam.set_j(n)):
            fingerprints = {greens.j_invariant(PartialInjection(n, tuple(a))).encode() for a in cls}
            assert len(fingerprints) == 1


def test_witness_random_pairs_at_n6(table):
    rng = random.Random(8)
    elements = table(6).elements
    for _ in range(2000):
        a, b = rng.choice(elements), rng.choice(elements)
        if greens.relations(a, b)["J"]:
            g, d = greens.j_witness(a, b)
            assert g * a * d == b


def test_witness_check_rejects_escaping_pair(monkeypatch):
    a = pinj.make(6, {(1, 1), (2, 2)})
    b = pinj.make(6, {(5, 5), (6, 6)})
    monkeypatch.setattr(greens, "in_if", lambda x: False)
    with pytest.raises(RuntimeError, match="leaves"):
        greens.j_witness(a, b)


def test_witness_check_rejects_wrong_product(monkeypatch):
    # with no blocks matched, g is empty and g*a*d cannot reach b
    a = pinj.make(6, {(1, 1), (2, 2)})
    b = pinj.make(6, {(5, 5), (6, 6)})
    monkeypatch.setattr(greens, "_block_order", lambda x: [])
    with pytest.raises(RuntimeError, match="onto"):
        greens.j_witness(a, b)
