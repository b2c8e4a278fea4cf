import random

import pytest

from fencemonoid import fence, pinj
from fencemonoid.fence import Membership
from fencemonoid.pinj import OutOfRangeError, PartialInjection
from test_factor import _seeded_elements

ALPHA = pinj.make(6, {(1, 3), (2, 2), (4, 6), (5, 5), (6, 4)})


def test_fence_less_examples():
    assert fence.fence_less(6, 1, 2)
    assert fence.fence_less(6, 3, 2)
    assert not fence.fence_less(6, 2, 3)
    assert not fence.fence_less(6, 2, 4)
    assert not fence.fence_less(6, 1, 1)


def test_fence_less_out_of_range():
    with pytest.raises(OutOfRangeError):
        fence.fence_less(6, 0, 1)
    with pytest.raises(OutOfRangeError):
        fence.fence_less(6, 1, 7)


def test_every_point_minimal_or_maximal():
    n = 7
    for x in range(1, n + 1):
        below = any(fence.fence_less(n, y, x) for y in range(1, n + 1))
        above = any(fence.fence_less(n, x, y) for y in range(1, n + 1))
        if x % 2 == 1:
            assert not below and above  # odd points are minimal
        else:
            assert below and not above  # even points are maximal


def test_counterexample_is_one_way_only():
    assert fence.membership(ALPHA) is Membership.PFI_ONLY
    assert fence.membership(ALPHA.inverse()) is Membership.NOT_PFI


def test_identity_and_singletons_are_if():
    assert fence.membership(PartialInjection.identity(5)) is Membership.IF
    assert fence.membership(pinj.make(6, {(1, 2)})) is Membership.IF


def test_small_domains_vacuously_if(table):
    for a in table(4, "I"):
        if a.rank <= 1:
            assert fence.in_if(a)


def test_if_iff_both_directions_preserve(table):
    for a in table(6, "I"):
        both = fence.membership(a) is not Membership.NOT_PFI and fence.membership(
            a.inverse()
        ) is not Membership.NOT_PFI
        assert (fence.membership(a) is Membership.IF) == both


def test_if_closed_under_product_and_inverse(table):
    elements = table(5).elements
    for a in elements:
        assert fence.in_if(a.inverse())
        for b in elements:
            assert fence.in_if(a * b)


def test_require_if_raises():
    with pytest.raises(fence.NotInIFError):
        fence.require_if(ALPHA)


# the pair-by-pair scan and the inverse element that in_if replaced, kept
# as its oracle


def _pairwise_preserves(a):
    img = a.img
    for x in range(1, a.n):
        u, v = img[x - 1], img[x]
        if u and v:
            if abs(u - v) != 1:
                return False
            smaller = u if x % 2 == 1 else v
            if smaller % 2 == 0:
                return False
    return True


def _element_in_if(a):
    return _pairwise_preserves(a) and _pairwise_preserves(a.inverse())


def _random_map(rng, n):
    rank = rng.randint(0, n)
    pairs = zip(rng.sample(range(1, n + 1), rank), rng.sample(range(1, n + 1), rank))
    return pinj.make(n, pairs)


def test_in_if_matches_element_oracle(table):
    def check(a):
        got = fence.in_if(a)
        assert got == _element_in_if(a)
        assert got == (fence.preserves_fence(a) and fence.preserves_fence(a.inverse()))
        assert fence.preserves_fence(a) == _pairwise_preserves(a)
        return got

    for n in range(1, 7):
        assert sum(map(check, table(n, "I"))) == len(table(n))
    # at n = 32: random maps, which almost never preserve the fence, and
    # members of IF with one image moved or two images swapped
    rng = random.Random(32)
    members = 0
    for a in _seeded_elements(3232, 32, 200):
        members += check(a)
        dom = a.domain()
        if len(dom) >= 2:
            img = list(a.img)
            x, y = rng.sample(dom, 2)
            img[x - 1], img[y - 1] = img[y - 1], img[x - 1]
            check(PartialInjection(32, tuple(img)))
            free = [v for v in range(1, 33) if v not in img]
            if free:
                img[x - 1] = rng.choice(free)
                check(PartialInjection(32, tuple(img)))
        check(_random_map(rng, 32))
    assert members == 200
