import os
import pickle
import random
import subprocess
import sys
import time

import pytest

from fencemonoid import enumeration as en
from fencemonoid import factor, fence, genfam, pinj
from fencemonoid.genfam import BadIndexError, FactorizationError, GeneratorSpec, OddAmbientError
from fencemonoid.pinj import PartialInjection
import tuple_kernel as slow
from tuple_kernel import multiplier


def test_sigma1_map():
    # rank n-1: only 2 is outside the domain, only n-1 outside the image
    assert genfam.sigma1(6) == pinj.make(
        6, {(1, 6), (3, 1), (4, 2), (5, 3), (6, 4)}
    )
    assert genfam.sigma1(6).rank == 5
    assert genfam.sigma1(2) == pinj.make(2, {(1, 2)})


def test_sigma2_is_inverse_of_sigma1():
    for n in (2, 4, 6, 8):
        assert genfam.sigma2(n) == genfam.sigma1(n).inverse()
        assert genfam.sigma2(n).inverse() == genfam.sigma1(n)


def test_sigma_rejects_odd_n():
    with pytest.raises(OddAmbientError):
        genfam.sigma1(5)


def test_gamma_map():
    assert genfam.gamma(6, 4) == pinj.make(
        6, {(1, 3), (2, 2), (3, 1), (5, 5), (6, 6)}
    )
    with pytest.raises(BadIndexError):
        genfam.gamma(6, 3)
    with pytest.raises(BadIndexError):
        genfam.gamma(6, 2)


def test_delta_map():
    assert genfam.delta(6, 1) == pinj.make(
        6, {(2, 6), (3, 5), (4, 4), (5, 3), (6, 2)}
    )
    with pytest.raises(BadIndexError):
        genfam.delta(6, 2)
    with pytest.raises(BadIndexError):
        genfam.delta(6, 5)
    with pytest.raises(OddAmbientError):
        genfam.delta(5, 1)


def test_gamma_delta_are_involutions():
    for n in (4, 6, 8):
        for i in range(4, n + 1, 2):
            g = genfam.gamma(n, i)
            assert g.inverse() == g
        for i in range(1, n - 2, 2):
            d = genfam.delta(n, i)
            assert d.inverse() == d


def test_beta_map():
    b = genfam.beta(6, 1, 5)
    assert b == pinj.make(6, {(2, 4), (3, 3), (4, 2), (6, 6)})
    assert b.inverse() == b
    with pytest.raises(BadIndexError):
        genfam.beta(6, 1, 4)


def test_named_dispatch():
    assert genfam.named(6, GeneratorSpec("eps", 3)) == genfam.epsilon(6, 3)
    assert genfam.named(6, GeneratorSpec("sig1")) == genfam.sigma1(6)
    assert genfam.named(6, GeneratorSpec("beta", 1, 5)) == genfam.beta(6, 1, 5)
    assert genfam.named(6, GeneratorSpec("id")) == PartialInjection.identity(6)


def test_named_generators_are_in_the_semigroup():
    for n in (2, 4, 6, 8):
        for g in genfam.set_g(n):
            assert fence.in_if(g)
    for n in range(1, 8):
        for g in genfam.set_j(n):
            assert fence.in_if(g)


def test_spec_text_roundtrip():
    for text in ("eps:3", "sig1", "sig2", "gam:4", "del:1", "beta:1,5", "id"):
        assert GeneratorSpec.parse(text).text() == text


def test_spec_hash_is_the_dataclass_hash():
    # set and dict orders of specs stay those of the former dataclass
    # hash, the hash of the field tuple
    for text in ("eps:3", "sig1", "sig2", "gam:4", "del:1", "beta:1,5", "id"):
        spec = GeneratorSpec.parse(text)
        assert hash(spec) == hash((spec.family, spec.i, spec.j))
        assert pickle.loads(pickle.dumps(spec)) == spec


def test_unknown_family_is_refused():
    for make in (lambda: GeneratorSpec("rho", 3), lambda: GeneratorSpec.parse("rho:3")):
        with pytest.raises(BadIndexError, match="unknown family 'rho'"):
            make()
    # an unpickled spec is validated as a new one is
    forged = pickle.dumps(GeneratorSpec("eps", 3)).replace(b"eps", b"rho")
    with pytest.raises(BadIndexError):
        pickle.loads(forged)


def test_spec_equals_the_plain_tuple_of_its_fields():
    # a spec is the tuple (family, i, j): it hashes and compares as that
    # tuple, at C level, so it equals the plain tuple and keys the same
    # dict slot; it never equals an element
    spec = GeneratorSpec("eps", 3)
    assert spec == ("eps", 3, None) and hash(spec) == hash(("eps", 3, None))
    assert {("eps", 3, None): 1}[spec] == 1
    assert spec != GeneratorSpec("eps", 4)
    assert spec != genfam.named(6, spec) and genfam.named(6, spec) != spec
    assert (spec.family, spec.i, spec.j) == ("eps", 3, None)
    assert repr(spec) == "GeneratorSpec(family='eps', i=3, j=None)"
    with pytest.raises(AttributeError):
        spec.family = "gam"


def _multiplier_fold(letters, n):
    """The fold on the bulk kernel: one ``multiplier`` product per letter."""
    acc = tuple(range(1, n + 1))
    for letter in letters:
        acc = multiplier(acc)((0,) + letter.img)
    return acc


def _random_letter(rng, n):
    """A seeded member of IF_n of rank >= n-2, through the letter gate:
    a random domain of that size and a random placement of its blocks."""
    dom = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(max(n - 2, 0), n))))
    img = tuple(rng.choice(en.place_blocks(n, [dom])))
    return genfam.checked_letter(PartialInjection(n, img))


def test_translate_fold_matches_multiplier_fold_and_object_product():
    # seeded words for every n up to MAX_N, n = 1 (the one-slot case of
    # ``multiplier``) included; half the letters are high-rank members
    # that keep the table the letter gate gave them, the rest partial
    # injections folded through throwaway tables
    rng = random.Random(25)
    for n in range(1, pinj.MAX_N + 1):
        for _ in range(20):
            letters = []
            for _ in range(rng.randint(0, 12)):
                if rng.random() < 0.5:
                    letter = _random_letter(rng, n)
                    assert letter._table == pinj.translate_table(letter.raw)
                else:
                    k = rng.randint(n // 2, n)
                    img = [0] * n
                    for x, v in zip(rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k)):
                        img[x - 1] = v
                    letter = PartialInjection(n, tuple(img))
                    assert letter._table is None
                letters.append(letter)
            value = genfam._value(letters, n)
            assert type(value) is bytes
            assert tuple(value) == _multiplier_fold(letters, n)
            product = PartialInjection.identity(n)
            for letter in letters:
                product = product * letter
            assert value == product.raw
    # the same with named letters, each keeping its spec and its table
    specs = [GeneratorSpec("sig1"), GeneratorSpec("gam", 6), GeneratorSpec("eps", 2),
             GeneratorSpec("del", 3), GeneratorSpec("beta", 1, 5), GeneratorSpec("sig2")]
    letters = [genfam.named(8, s) for s in specs]
    assert [l.spec for l in letters] == specs
    assert all(l._table == pinj.translate_table(l.raw) for l in letters)
    assert tuple(genfam._value(letters, 8)) == _multiplier_fold(letters, 8)


def test_translate_tables_hold_byte_values():
    # a table slot holds a point as one byte
    assert pinj.MAX_N < 256
    img = bytes(range(pinj.MAX_N, 0, -1))
    table = pinj.translate_table(img)
    assert len(table) == 256 and table[0] == 0 and table[1 : pinj.MAX_N + 1] == img
    assert not any(table[pinj.MAX_N + 1 :])


def test_unpickled_spec_hashes_as_its_process_does():
    # string hashes differ between processes, so a spec must not carry
    # its hash across a pickle
    code = (
        "import pickle, sys\n"
        "from fencemonoid.genfam import GeneratorSpec\n"
        "spec = pickle.loads(sys.stdin.buffer.read())\n"
        "print({spec: 1}.get(GeneratorSpec('eps', 3)))\n"
    )
    src = os.path.dirname(os.path.dirname(genfam.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    proc = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(GeneratorSpec("eps", 3)),
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"1"]


def test_set_j_small_cases(table):
    assert len(genfam.set_j(2)) == 6  # rank bound vacuous at n=2
    for n in (3, 6):
        assert genfam.epsilon(n, 1) in genfam.set_j(n)
    assert genfam.beta(6, 1, 5) in genfam.set_j(6)


def test_set_j_equals_high_rank_filter(table):
    for n in range(1, 9):
        expected = tuple(a for a in table(n) if a.rank >= n - 2)
        assert genfam.set_j(n) == expected


def test_letter_gate_refuses_escaping_and_low_rank_maps():
    # the gate raises, so it holds under python -O; an accepted map comes
    # back as a Letter, equal to it, with its table and the spec it is
    # given; the map itself keeps no table
    swap = pinj.make(2, {(1, 2), (2, 1)})
    low = PartialInjection.empty(3)
    for a, message in ((swap, "escapes"), (low, "high-rank")):
        with pytest.raises(RuntimeError, match=message):
            genfam.checked_letter(a)
    with pytest.raises(factor.FactorizationError):
        genfam.checked_letter(swap)
    a = pinj.make(3, {(1, 1), (3, 3)})
    letter = genfam.checked_letter(a)
    assert type(letter) is genfam.Letter and letter == a and hash(letter) == hash(a)
    assert letter._table == pinj.translate_table(a.raw) and letter.spec is None
    assert a._table is None and a.spec is None
    spec = GeneratorSpec("eps", 2)
    assert genfam.checked_letter(a, spec).spec is spec
    # a plain element holds its image only; tables and names are a letter's
    assert PartialInjection.__slots__ == ("n", "raw")
    assert genfam.Letter.__slots__ == ("_table", "spec")


def test_constructors_refuse_an_escaping_map(monkeypatch):
    # every family's map becomes a letter through ``named``, which passes
    # it through the gate: with the interval builder planted to swap 1
    # and 2, each named letter is refused (the memo is cleared around the
    # plant, and a refused letter is not recorded)
    monkeypatch.setattr(genfam, "interval_map", lambda n, *args: PartialInjection(n, (2, 1, *range(3, n + 1))))
    genfam.named.cache_clear()
    try:
        for text in ("sig1", "sig2", "gam:4", "del:1", "beta:1,5", "eps:2"):
            with pytest.raises(RuntimeError, match="escapes"):
                genfam.named(6, GeneratorSpec.parse(text))
        assert genfam.named.cache_info().currsize == 0
    finally:
        genfam.named.cache_clear()


def test_set_g_rejects_repeated_generator(monkeypatch):
    # set_g reads the memoised spec lookup, so its caches are cleared
    # around the patch
    caches = (genfam.named, genfam._g_letters)
    monkeypatch.setattr(genfam, "sigma2", genfam.sigma1)
    for cached in caches:
        cached.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="distinct"):
            genfam.set_g(6)
    finally:
        for cached in caches:
            cached.cache_clear()


def test_set_g_cardinality():
    assert len(genfam.set_g(6)) == 7
    assert set(genfam.set_g(2)) == {
        PartialInjection.identity(2),
        genfam.sigma1(2),
        genfam.sigma2(2),
    }
    with pytest.raises(OddAmbientError):
        genfam.set_g(5)


def test_set_g_generates(table):
    cl = en.closure(4, genfam.set_g(4))
    assert set(cl.elements) == set(table(4).elements)


def test_epsilon_identities_exhaustive():
    for n in (4, 6, 8):
        s1, s2 = genfam.sigma1(n), genfam.sigma2(n)
        assert s1 * s2 == genfam.epsilon(n, 2)
        assert s2 * s1 == genfam.epsilon(n, n - 1)
        for i in range(4, n + 1, 2):
            g = genfam.gamma(n, i)
            assert g * g == genfam.epsilon(n, i)
        for i in range(1, n - 2, 2):
            d = genfam.delta(n, i)
            assert d * d == genfam.epsilon(n, i)


def test_parity_repair_identities_exhaustive():
    for n in (4, 6, 8):
        s1, s2 = genfam.sigma1(n), genfam.sigma2(n)
        assert genfam._eta_left(n, n) == s1
        assert genfam._eta_right(n, n) == s2
        for a in range(2, n - 3, 2):
            dm, dp = genfam.delta(n, a - 1), genfam.delta(n, a + 1)
            assert dp * s1 * dm == genfam._eta_left(n, a)
            assert dm * s2 * dp == genfam._eta_right(n, a)


def test_beta_identities_exhaustive():
    for n in (4, 6, 8):
        for i in range(1, n):
            for j in range(i + 2, n + 1, 2):
                b = genfam.beta(n, i, j)
                if i % 2 == 1 and 1 <= n - j + i + 1 <= n - 3:
                    d1 = genfam.delta(n, i)
                    d2 = genfam.delta(n, n - j + i + 1)
                    assert d1 * d2 * d1 == b
                if i % 2 == 0 and j - i >= 4:
                    g1 = genfam.gamma(n, j)
                    g2 = genfam.gamma(n, j - i)
                    assert g1 * g2 * g1 == b


def test_g_word_for_table_hits():
    w = genfam.g_word_for(6, genfam.epsilon(6, 4))
    assert [l.spec.text() for l in w.letters] == ["gam:4", "gam:4"]
    assert w.provenance == "table"
    w = genfam.g_word_for(6, genfam.epsilon(6, 2))
    assert [l.spec.text() for l in w.letters] == ["sig1", "sig2"]
    w = genfam.g_word_for(6, genfam.beta(6, 1, 5))
    assert [l.spec.text() for l in w.letters] == ["del:1", "del:3", "del:1"]


def test_g_word_for_adjacent_deletions_is_a_table_word():
    # a two-point partial identity is the product of its two eps words
    w = genfam.g_word_for(6, genfam.beta(6, 1, 3))
    assert w.provenance == "table"
    assert [l.spec.text() for l in w.letters] == ["del:1", "del:1", "del:3", "del:3"]
    assert factor.eval_word(w) == genfam.beta(6, 1, 3)


def test_g_word_for_everything(table):
    # every element's word over set_g is made of g_word_for's table words
    for n in (2, 4, 6):
        for a in table(n):
            w = factor.factorize_g(a)
            assert factor.eval_word(w) == a and w.bfs_letters == 0


def test_g_word_for_low_rank_past_limit_fails_fast():
    # a rank-0 target has no table word, and there is no search to try
    genfam.g_word_for.cache_clear()
    empty = PartialInjection.empty(12)
    t0 = time.perf_counter()
    with pytest.raises(FactorizationError, match="no closed-form word"):
        genfam.g_word_for(12, empty)
    assert time.perf_counter() - t0 < 0.5
    w = factor.factorize_g(empty)
    assert factor.eval_word(w) == empty and w.bfs_letters == 0


def test_closed_forms_of_adjacent_deletions_and_last_rotations():
    # the two shapes outside the older table rules, at every even n: the
    # partial identities beta(i, i+2) and the rotations at a = n-2
    for n in range(4, 33, 2):
        for i in range(1, n - 1):
            b = genfam.beta(n, i, i + 2)
            w = genfam.g_word_for(n, b)
            assert w.provenance == "table" and factor.eval_word(w) == b
        for eta, text in (
            (genfam._eta_left(n, n - 2), ["sig1", f"del:{n - 3}"]),
            (genfam._eta_right(n, n - 2), [f"del:{n - 3}", "sig2"]),
        ):
            w = genfam.g_word_for(n, eta)
            assert w.provenance == "table" and factor.eval_word(w) == eta
            assert [l.spec.text() for l in w.letters] == text


def test_last_rotation_words_are_the_breadth_first_words():
    # the closed forms of the rotations at a = n-2 are the shortest
    # discovery words of the breadth-first oracle, floored at n-2
    for n in (4, 6, 8):
        gens = genfam.set_g(n)
        parents = slow.saturate(n, gens, n - 2)
        for eta in (genfam._eta_left(n, n - 2), genfam._eta_right(n, n - 2)):
            letters = genfam.g_word_for(n, eta).letters
            assert list(letters) == slow.word_for(parents, gens, eta.img)


def test_a_table_miss_is_an_error(last_rotations_missed):
    # an element whose parity repair needs a rotation at a = n-2, planted
    # out of the table, gets no word over set_g
    for n in (6, 12):
        a = pinj.make(n, {(n - 2, n - 3)})
        assert factor.factorize_j(a).provenance == "constructive"
        with pytest.raises(FactorizationError, match="no closed-form word"):
            factor.factorize_g(a)


def test_g_word_rejects_odd_n():
    with pytest.raises(OddAmbientError):
        genfam.g_word_for(5, PartialInjection.identity(5))


# --- the per-point loops that interval_map replaced, kept as its oracle -------


def _loop_eta_left(n, a):
    img = [0] * n
    img[0] = a
    for x in range(3, a + 1):
        img[x - 1] = x - 2
    for x in range(a + 2, n + 1):
        img[x - 1] = x
    return PartialInjection(n, tuple(img))


def _loop_eta_right(n, c):
    img = [0] * n
    for x in range(1, c - 1):
        img[x - 1] = x + 2
    img[c - 1] = 1
    for x in range(c + 2, n + 1):
        img[x - 1] = x
    return PartialInjection(n, tuple(img))


def _loop_sigma1(n):
    img = [0] * n
    img[0] = n
    for x in range(3, n + 1):
        img[x - 1] = x - 2
    return PartialInjection(n, tuple(img))


def _loop_gamma(n, i):
    img = [0] * n
    for x in range(1, i):
        img[x - 1] = i - x
    for x in range(i + 1, n + 1):
        img[x - 1] = x
    return PartialInjection(n, tuple(img))


def _loop_delta(n, i):
    img = [0] * n
    for x in range(1, i):
        img[x - 1] = x
    for x in range(i + 1, n + 1):
        img[x - 1] = n + i + 1 - x
    return PartialInjection(n, tuple(img))


def _loop_beta(n, i, j):
    img = [0] * n
    for x in range(1, n + 1):
        if x == i or x == j:
            continue
        img[x - 1] = i + j - x if i < x < j else x
    return PartialInjection(n, tuple(img))


def test_named_moves_match_loop_builders():
    cases = 0
    for n in range(1, 33):
        for i in range(1, n + 1):
            assert genfam.epsilon(n, i) == pinj.identity_on(n, set(range(1, n + 1)) - {i})
        for a in range(2, n + 1, 2):
            assert genfam._eta_left(n, a) == _loop_eta_left(n, a)
            assert genfam._eta_right(n, a) == _loop_eta_right(n, a)
        for i in range(4, n + 1, 2):
            assert genfam.gamma(n, i) == _loop_gamma(n, i)
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1, 2):
                assert genfam.beta(n, i, j) == _loop_beta(n, i, j)
                cases += 1
        if n % 2 == 0:
            assert genfam.sigma1(n) == _loop_sigma1(n)
            for i in range(1, n - 2, 2):
                assert genfam.delta(n, i) == _loop_delta(n, i)
    assert cases == sum((n - 1) ** 2 // 4 for n in range(1, 33))


def test_interval_map_layout():
    # fix 1, drop 2, reverse [3, 5], drop 6 and 7 (gap 3), fix 8
    assert genfam.interval_map(8, 3, range(5, 2, -1), 3) == pinj.make(
        8, {(1, 1), (3, 5), (4, 4), (5, 3), (8, 8)}
    )
    # the interval may end at n; the dropped points past n are omitted
    assert genfam.interval_map(4, 2, (4, 3, 2)) == pinj.make(4, {(2, 4), (3, 3), (4, 2)})
    assert genfam.interval_map(4, 1, ()) == pinj.make(4, {(2, 2), (3, 3), (4, 4)})


def test_interval_map_refuses_interval_outside_range():
    assert issubclass(BadIndexError, ValueError)
    with pytest.raises(BadIndexError):
        genfam.interval_map(6, 0, (1,))
    with pytest.raises(BadIndexError):
        genfam.interval_map(6, -1, ())
    with pytest.raises(BadIndexError):
        genfam.interval_map(6, 5, (6, 5, 4))  # would end at 7
    with pytest.raises(BadIndexError):
        genfam.interval_map(6, 8, ())
    with pytest.raises(BadIndexError):
        genfam.interval_map(6, 2, (2,), 0)
