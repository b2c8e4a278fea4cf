import os
import pickle
import random
import re
import subprocess
import sys

import pytest

from fencemonoid import pinj
from fencemonoid.pinj import (
    DuplicateSourceError,
    DuplicateTargetError,
    OutOfRangeError,
    PartialInjection,
    SizeMismatchError,
)
from tuple_kernel import multiplier

COUNTEREXAMPLE_PAIRS = {(1, 3), (2, 2), (4, 6), (5, 5), (6, 4)}


def random_pinj(rng, n):
    k = rng.randint(0, n)
    dom = rng.sample(range(1, n + 1), k)
    img = rng.sample(range(1, n + 1), k)
    return pinj.make(n, zip(dom, img))


def test_make_empty():
    a = pinj.make(6, {})
    assert a.rank == 0
    assert a.domain() == ()


def test_make_counterexample():
    a = pinj.make(6, COUNTEREXAMPLE_PAIRS)
    assert a(1) == 3 and a(2) == 2 and a(4) == 6 and a(5) == 5 and a(6) == 4
    assert a(3) is None
    assert a.rank == 5


def test_make_rejects_duplicate_target():
    with pytest.raises(DuplicateTargetError):
        pinj.make(3, {(1, 2), (3, 2)})


def test_make_rejects_duplicate_source():
    with pytest.raises(DuplicateSourceError):
        pinj.make(3, [(1, 2), (1, 3)])


def test_make_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        pinj.make(3, {(1, 4)})
    with pytest.raises(OutOfRangeError):
        pinj.make(3, {(0, 1)})
    with pytest.raises(OutOfRangeError):
        pinj.make(0, {})


def test_compose_identity():
    rng = random.Random(1)
    for _ in range(50):
        a = random_pinj(rng, 6)
        assert PartialInjection.identity(6) * a == a
        assert a * PartialInjection.identity(6) == a


def test_compose_chain():
    a = pinj.make(6, {(1, 2)})
    b = pinj.make(6, {(2, 5)})
    assert a * b == pinj.make(6, {(1, 5)})


def test_compose_with_inverse_is_domain_identity():
    a = pinj.make(6, COUNTEREXAMPLE_PAIRS)
    assert a * a.inverse() == pinj.identity_on(6, a.domain())


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        pinj.make(3, {}) * pinj.make(4, {})


def test_inverse_of_counterexample():
    a = pinj.make(6, COUNTEREXAMPLE_PAIRS)
    assert a.inverse() == pinj.make(6, {(2, 2), (3, 1), (4, 6), (5, 5), (6, 4)})


def test_inverse_empty():
    assert PartialInjection.empty(4).inverse() == PartialInjection.empty(4)


def test_inverse_involution_random():
    rng = random.Random(2)
    for _ in range(1000):
        a = random_pinj(rng, rng.randint(1, 8))
        assert a.inverse().inverse() == a


def test_identity_on():
    assert pinj.identity_on(6, range(1, 7)) == PartialInjection.identity(6)
    eps3 = pinj.identity_on(6, {1, 2, 4, 5, 6})
    assert eps3(3) is None and eps3(4) == 4
    assert pinj.identity_on(4, ()) == PartialInjection.empty(4)
    with pytest.raises(OutOfRangeError):
        pinj.identity_on(4, {5})


def test_canonical_key_empty_is_least():
    empty = PartialInjection.empty(5)
    rng = random.Random(3)
    for _ in range(100):
        a = random_pinj(rng, 5)
        if a.rank:
            assert pinj.canonical_key(empty) < pinj.canonical_key(a)


def test_canonical_key_deterministic_sort():
    e1 = pinj.identity_on(3, {2, 3})
    batch = [PartialInjection.identity(3), e1, PartialInjection.empty(3)]
    first = sorted(batch, key=pinj.canonical_key)
    for _ in range(5):
        assert sorted(batch, key=pinj.canonical_key) == first


def test_equal_maps_equal_keys():
    a = pinj.make(5, [(3, 1), (1, 2)])
    b = pinj.make(5, [(1, 2), (3, 1)])
    assert pinj.canonical_key(a) == pinj.canonical_key(b)
    assert hash(a) == hash(b)


def test_associativity_random_sample():
    rng = random.Random(4)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        a, b, c = (random_pinj(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_rank_submultiplicative():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randint(1, 6)
        a, b = random_pinj(rng, n), random_pinj(rng, n)
        assert (a * b).rank <= min(a.rank, b.rank)


def test_inverse_axiom():
    rng = random.Random(6)
    for _ in range(2000):
        a = random_pinj(rng, rng.randint(1, 7))
        assert a * a.inverse() * a == a


def test_encode_examples():
    a = pinj.make(6, COUNTEREXAMPLE_PAIRS)
    assert a.encode() == "n=6:[1>3 2>2 4>6 5>5 6>4]"
    assert PartialInjection.empty(6).encode() == "n=6:[]"


def test_encode_parse_roundtrip():
    rng = random.Random(7)
    for _ in range(500):
        a = random_pinj(rng, rng.randint(1, 9))
        assert pinj.parse(a.encode()) == a


def test_parse_rejects_garbage():
    for bad in ("", "6:[1>2]", "n=6:1>2", "n=x:[]"):
        with pytest.raises(ValueError):
            pinj.parse(bad)
    # a malformed entry names the literal, as a malformed body does
    for bad in ("n=3:[1-2]", "n=3:[>2]", "n=3:[1>2>3]"):
        with pytest.raises(ValueError, match=re.escape(f"bad element literal: {bad!r}")):
            pinj.parse(bad)


def test_constructor_stores_one_bytes_image(table):
    # tuples, lists and bytes give equal elements with equal hashes; the
    # stored image is bytes and ``img`` is its read-only tuple view
    elts = [PartialInjection(4, img) for img in ((3, 0, 1, 4), [3, 0, 1, 4], b"\3\0\1\4")]
    assert len(set(elts)) == 1 and len({hash(a) for a in elts}) == 1
    for a in elts:
        assert type(a.raw) is bytes and a.raw == b"\3\0\1\4"
        assert type(a.img) is tuple and a.img == (3, 0, 1, 4)
        with pytest.raises(AttributeError):
            a.img = (1, 2, 3, 4)
    assert a.img == (3, 0, 1, 4)
    # the path of a caller that holds tuples, such as the benchmark's
    elements = table(5)
    assert len(elements) == 182
    for a in elements:
        assert PartialInjection(a.n, a.img) == a


def test_unpickled_element_hashes_as_its_process_does():
    # bytes hashes differ between processes, so an element must not
    # carry its hash across a pickle
    code = (
        "import pickle, sys\n"
        "from fencemonoid import pinj\n"
        "a = pickle.loads(sys.stdin.buffer.read())\n"
        "print({a: 1}.get(pinj.parse('n=4:[1>3 3>1 4>4]')), a.raw == bytes((3, 0, 1, 4)))\n"
    )
    a = pinj.parse("n=4:[1>3 3>1 4>4]")
    hash(a)  # a hash cached on the element would be pickled with it
    src = os.path.dirname(os.path.dirname(pinj.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    proc = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(a), env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"1", b"True"]


def test_parse_accepts_any_pair_order():
    a = pinj.parse("n=6:[2>2 1>1]")
    assert a == pinj.parse("n=6:[1>1 2>2]")
    assert a.encode() == "n=6:[1>1 2>2]"


def _product_by_formula(a, b):
    """x(ab) = (xa)b point by point: the reference for the product kernel."""
    return tuple(b[v - 1] if v else 0 for v in a)


def test_product_kernel_matches_formula(table):
    for n in range(1, 4):
        elements = table(n, "I").elements
        for a in elements:
            for b in elements:
                expected = _product_by_formula(a.img, b.img)
                assert multiplier(a.img)((0,) + b.img) == expected
                assert tuple(a.raw.translate(pinj.translate_table(b.raw))) == expected
                assert (a * b).img == expected
