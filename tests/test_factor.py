import random
from collections import Counter

import pytest

from fencemonoid import factor, fence, genfam, greens, pinj
from fencemonoid.factor import BlockForm, MalformedBlockFormError
from fencemonoid.genfam import BadIndexError, GeneratorSpec, Word
from fencemonoid.pinj import PartialInjection, SizeMismatchError, inverse_img
import tuple_kernel as slow


def _image_directions(start, length, t):
    """Directions (False ascending) in which the domain run of ``length``
    points at ``start`` may map onto the interval from ``t``: a run of two
    or more points keeps every point's parity."""
    if length == 1:
        return (False,)
    if length % 2 == 0:
        return ((t - start) % 2 == 1,)
    return (False, True) if (t - start) % 2 == 0 else ()


def _runs_fit(runs, t, n):
    """Whether the runs can be laid out in this order from ``t`` on, each
    image interval one point clear of the previous."""
    for start, length in runs:
        if not _image_directions(start, length, t):
            t += 1
        if t + length - 1 > n:
            return False
        t += length + 1
    return True


def _random_if(rng, n):
    """A seeded element of IF_n by random block placement: a uniform rank
    and domain, the domain runs in a random order that fits (else in
    domain order, which always fits), each onto a random interval that
    leaves room for the rest."""
    runs = []
    for x in sorted(rng.sample(range(1, n + 1), rng.randint(0, n))):
        if runs and runs[-1][0] + runs[-1][1] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    order = rng.sample(runs, len(runs))
    if not _runs_fit(order, 1, n):
        order = runs
    img = [0] * n
    lo = 1
    for bi, (start, length) in enumerate(order):
        t = rng.choice([
            t for t in range(lo, n - length + 2)
            if _image_directions(start, length, t) and _runs_fit(order[bi + 1 :], t + length + 1, n)
        ])
        desc = rng.choice(_image_directions(start, length, t))
        for r in range(length):
            img[start + r - 1] = t + length - 1 - r if desc else t + r
        lo = t + length + 1
    a = PartialInjection(n, tuple(img))
    assert fence.in_if(a)
    return a


def _seeded_elements(seed, n, count):
    rng = random.Random(seed)
    return [_random_if(rng, n) for _ in range(count)]


def _eval_word_by_objects(word):
    """The element-by-element fold: the oracle for the img-tuple fold of
    :func:`factor.eval_word`."""
    result = PartialInjection.identity(word.n)
    for letter in word.letters:
        result = result * letter
    return result


def _inverse_letters(letters):
    """The letters of the inverse word: in reverse order, each inverted."""
    return tuple(l.inverse() for l in reversed(letters))


def _clear_caches():
    for mod in (factor, genfam):
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_reversal_example():
    elt = factor.build_reversal(6, 2, 2)
    assert elt == pinj.make(6, {(2, 4), (3, 3), (4, 2), (6, 6)})
    # the reversed move by 0 is the reversal, its own one letter
    assert factor.build_shift_word(6, 2, 2, 0, False) == (elt,)


def test_reversal_degenerate_point():
    elt = factor.build_reversal(6, 1, 0)
    assert elt == pinj.identity_on(6, {1, 3, 4, 5, 6})


def test_reversal_is_self_inverse_random():
    rng = random.Random(11)
    hits = 0
    while hits < 100:
        n = rng.randint(2, 10)
        m = rng.randint(1, n)
        p = rng.randrange(0, n - m + 1, 2)
        elt = factor.build_reversal(n, m, p)
        assert elt.inverse() == elt
        assert elt * elt == pinj.identity_on(n, elt.domain())
        hits += 1


def test_reversal_bad_indices():
    with pytest.raises(BadIndexError):
        factor.build_reversal(6, 4, 4)  # m+p > n
    with pytest.raises(BadIndexError):
        factor.build_reversal(6, 2, 3)  # odd span


def test_shift_example():
    letters = factor.build_shift_word(8, 2, 2, 2, True)
    elt = pinj.make(8, {(2, 4), (3, 5), (4, 6), (8, 8)})
    assert factor.eval_word(Word(8, letters)) == elt
    assert factor.eval_word(Word(8, letters[::-1])) == elt.inverse()
    # even span goes through a deleted point, so three letters
    assert len(letters) == 3


def test_revshift_example():
    letters = factor.build_shift_word(6, 1, 1, 1, False)
    elt = pinj.make(6, {(1, 3), (2, 2), (5, 5), (6, 6)})
    assert factor.eval_word(Word(6, letters)) == elt
    assert factor.eval_word(Word(6, letters[::-1])) == elt.inverse()


def test_shift_kind_mismatch():
    # a reversed move whose span and displacement differ in parity is
    # refused by the reversal's even-span check
    with pytest.raises(BadIndexError, match="even interval span"):
        factor.build_shift_word(8, 1, 2, 1, False)  # even span, odd d
    with pytest.raises(BadIndexError, match="even interval span"):
        factor.build_shift_word(8, 1, 1, 2, False)  # odd span, even d
    with pytest.raises(BadIndexError, match="even displacement"):
        factor.build_shift_word(8, 1, 2, 1, True)
    with pytest.raises(BadIndexError):
        factor.build_shift_word(6, 3, 2, 4, True)  # m+p+d > n


# the three-kind move builder that the displacement builder replaced,
# kept as its oracle


class _KindMismatchError(ValueError):
    pass


def _old_build_shift_word(n, kind, m, p, k):
    if m < 1 or p < 0:
        raise BadIndexError(f"need m >= 1 and p >= 0, got m={m}, p={p}")
    eps = factor._eps(n)
    if kind == "shift2k":
        if k < 0 or m + p + 2 * k > n:
            raise BadIndexError("shift needs 0 <= k and m+p+2k <= n")
        elt = genfam.interval_map(n, m, range(m + 2 * k, m + p + 2 * k + 1), 2 * k + 2)
        letters = factor._shift2k_letters(n, m, p, k)
    elif kind == "revshift2k":
        if p % 2 == 0:
            raise _KindMismatchError(f"reversal-shift needs odd span, got p={p}")
        if k < 1 or m + p + 2 * k - 1 > n:
            raise BadIndexError("reversal-shift needs 1 <= k and m+p+2k-1 <= n")
        elt = genfam.interval_map(n, m, range(m + p + 2 * k - 1, m + 2 * k - 2, -1), 2 * k + 1)
        mm = m + 2 * k - 2
        letters = factor._shift2k_letters(n, m, p, k - 1)
        letters += (factor.build_reversal(n, mm, p + 1), eps[mm])
    elif kind == "revshifteven":
        if p % 2:
            raise _KindMismatchError(f"even reversal-shift needs even span, got p={p}")
        if k < 0 or m + p + 2 * k > n:
            raise BadIndexError("even reversal-shift needs 0 <= k and m+p+2k <= n")
        if k == 0:
            rev = factor.build_reversal(n, m, p)
            return rev, (rev,)
        elt = genfam.interval_map(n, m, range(m + p + 2 * k, m + 2 * k - 1, -1), 2 * k + 2)
        letters = factor._shift2k_letters(n, m, p, k) + (factor.build_reversal(n, m + 2 * k, p),)
    else:
        raise _KindMismatchError(f"unknown kind {kind!r}")
    if genfam._value(letters, n) != elt.raw:
        raise factor.FactorizationError(f"{kind} word does not evaluate to its target")
    if not fence.in_if(elt):
        raise factor.FactorizationError(f"{kind} target leaves the semigroup")
    return elt, letters


def _old_move(n, m, p, d, asc):
    """The move by d as the three-kind builder spells it: a shift by 2k,
    or a reversal-shift of kind ``revshift2k`` (d = 2k - 1) or
    ``revshifteven`` (d = 2k); it has no ascending move by an odd d."""
    if asc:
        if d % 2:
            raise _KindMismatchError("no ascending move by an odd displacement")
        return _old_build_shift_word(n, "shift2k", m, p, d // 2)
    return _old_build_shift_word(n, "revshift2k" if d % 2 else "revshifteven", m, p, (d + 1) // 2)


def _old_move_letters(n, m, p, d, asc):
    return _old_move(n, m, p, d, asc)[1]


def _refusal(fn, *args):
    try:
        return fn(*args)
    except (BadIndexError, _KindMismatchError):
        return "refused"


def test_displacement_builder_matches_three_kinds():
    # every move at n <= 12, bad indices around the edges included: the
    # same letters as the three kinds, which check them against their
    # targets, or both refuse
    built = refused = 0
    for n in range(1, 13):
        for m in range(0, n + 2):
            for p in range(-1, n + 1):
                for d in range(n + 2):
                    for asc in (True, False):
                        got = _refusal(factor.build_shift_word, n, m, p, d, asc)
                        assert got == _refusal(_old_move_letters, n, m, p, d, asc)
                        built += got != "refused"
                        refused += got == "refused"
    assert (built, refused) == (1477, 20555)


# the per-point loops that genfam.interval_map replaced, kept as its oracle


def _loop_rev_elt(n, m, p):
    img = [0] * n
    for x in range(1, m - 1):
        img[x - 1] = x
    for x in range(m, m + p + 1):
        img[x - 1] = 2 * m + p - x
    for x in range(m + p + 2, n + 1):
        img[x - 1] = x
    return PartialInjection(n, tuple(img))


def _loop_interval_elt(n, m, p, lo_gap, image_of):
    img = [0] * n
    for x in range(1, m - 1):
        img[x - 1] = x
    for x in range(m, m + p + 1):
        img[x - 1] = image_of(x)
    for x in range(m + p + lo_gap, n + 1):
        img[x - 1] = x
    return PartialInjection(n, tuple(img))


def test_interval_moves_match_loop_builders():
    # every valid index at n <= 32: each move's letters evaluate to the
    # loop-built target and, reversed, to its inverse.  A reversal of odd
    # span is refused.
    cases = 0
    for n in range(1, 33):
        for m in range(1, n + 1):
            for p in range(n - m + 1):
                if p % 2:
                    with pytest.raises(BadIndexError):
                        factor.build_reversal(n, m, p)
                else:
                    assert factor.build_reversal(n, m, p) == _loop_rev_elt(n, m, p)
                # ascending moves by even d, reversed ones by d of p's parity
                targets = [
                    (d, asc, (lambda x, d=d: x + d) if asc else (lambda x, d=d: 2 * m + p + d - x))
                    for d in range(n - m - p + 1)
                    for asc in (True, False)
                    if (d if asc else d - p) % 2 == 0
                ]
                for d, asc, image_of in targets:
                    letters = factor.build_shift_word(n, m, p, d, asc)
                    elt = _loop_interval_elt(n, m, p, d + 2, image_of)
                    assert genfam._value(letters, n) == elt.raw
                    assert genfam._value(letters[::-1], n) == inverse_img(elt.raw)
                cases += 1 + len(targets)
    assert cases == 59976


def test_partial_identity_word():
    # the residual of the pipeline: point-deleted identities, one per
    # point outside the domain; points outside 1..n are boundary
    # neighbours of an interval move and delete nothing
    assert genfam._value(factor._eps_letters(6, ()), 6) == PartialInjection.identity(6).raw
    assert [l.spec.text() for l in factor._eps_letters(6, [3])] == ["eps:3"]
    letters = factor._eps_letters(6, [1, 4])
    assert factor.eval_word(Word(6, letters)) == pinj.identity_on(6, {2, 3, 5, 6})
    (eps2,) = factor._eps_letters(6, [0, 2, 7])
    assert eps2 is genfam.named(6, GeneratorSpec("eps", 2)) and eps2 == genfam.epsilon(6, 2)


def test_eval_word_empty_is_identity():
    assert factor.eval_word(Word(6)) == PartialInjection.identity(6)


def test_eval_word_resolves_specs():
    # a spec becomes a letter through ``named`` only; the letter keeps it
    w = Word(6, (genfam.named(6, GeneratorSpec("sig1")), genfam.named(6, GeneratorSpec("sig2"))))
    assert [l.spec for l in w.letters] == [GeneratorSpec("sig1"), GeneratorSpec("sig2")]
    assert factor.eval_word(w) == genfam.epsilon(6, 2)
    assert w.text() == "w6: sig1 sig2"


def test_eval_word_refuses_a_raw_spec_letter():
    # a word's letters are elements: a bare spec is not resolved, and a
    # word holding one raises instead of evaluating
    for letters in ((GeneratorSpec("eps", 2),), (genfam.epsilon(6, 3), GeneratorSpec("sig1"))):
        with pytest.raises(AttributeError):
            factor.eval_word(Word(6, letters))


def test_eval_word_matches_object_fold(table):
    def check(word):
        got = factor.eval_word(word)
        assert type(got) is PartialInjection and got.n == word.n
        assert got == _eval_word_by_objects(word)
        return got

    for n in range(1, 8):
        for a in table(n):
            assert check(factor.factorize_j(a)) == a
            if n % 2 == 0:
                assert check(factor.factorize_g(a)) == a
    for n in (16, 32):
        for a in _seeded_elements(n, n, 200):
            assert check(factor.factorize_j(a)) == a
            w = factor.factorize_g(a)
            assert check(w) == a and check(Word(n, _inverse_letters(w.letters))) == a.inverse()


def test_eval_word_rejects_letter_of_other_size():
    with pytest.raises(SizeMismatchError):
        factor.eval_word(Word(6, (PartialInjection.identity(8),)))
    # a letter that keeps its translate table is checked as any other
    tabled = (genfam.named(8, GeneratorSpec("eps", 2)), factor.build_reversal(8, 2, 2))
    assert all(letter._table is not None for letter in tabled)
    for letter in tabled:
        with pytest.raises(SizeMismatchError):
            factor.eval_word(Word(6, (genfam.named(6, GeneratorSpec("eps", 1)), letter)))
    with pytest.raises(SizeMismatchError):
        _eval_word_by_objects(Word(6, (PartialInjection.identity(8),)))


def test_word_text_parse_roundtrip(table):
    named = [genfam.named(6, GeneratorSpec.parse(t)) for t in ("eps:2", "beta:1,5")]
    w = Word(6, (factor.build_reversal(6, 2, 2), *named))
    assert w.text() == "w6: [2>4 3>3 4>2 6>6] eps:2 beta:1,5"
    parsed = genfam.parse_word(w.text())
    assert parsed.letters == w.letters and parsed.text() == w.text()
    assert [l.spec for l in parsed.letters] == [None, *(l.spec for l in named)]
    assert factor.eval_word(parsed) == factor.eval_word(w)
    assert genfam.parse_word("w6:").letters == ()
    # every J and G word of IF_1..IF_6 prints a text that parses back to
    # the same text and to the input
    for n in range(1, 7):
        for a in table(n):
            words = [factor.factorize_j(a)] + ([factor.factorize_g(a)] if n % 2 == 0 else [])
            for w in words:
                parsed = genfam.parse_word(w.text())
                assert parsed.text() == w.text() and factor.eval_word(parsed) == a
    # an unterminated raw letter is a bad literal, not an index error
    for text in ("w6: [1>1", "w6: eps:2 [2>4 3>3"):
        with pytest.raises(ValueError, match="bad word literal"):
            genfam.parse_word(text)


def test_parity_normalize_noop_when_aligned():
    a = pinj.make(6, {(1, 3), (2, 4)})
    assert factor._parity_repair(a) == ((), (), a.raw)


def test_parity_normalize_single_mismatch():
    a = pinj.make(6, {(4, 1)})
    left_inv, right_inv, img = factor._parity_repair(a)
    left, right = _inverse_letters(left_inv), _inverse_letters(right_inv)
    core = PartialInjection(6, img)
    assert not factor._mismatches(img)
    assert core.rank == 1
    assert factor.eval_word(Word(6, left)) * a * factor.eval_word(Word(6, right)) == core


def test_parity_normalize_empty_map():
    empty = PartialInjection.empty(5)
    assert factor._parity_repair(empty) == ((), (), empty.raw)


def test_parity_normalize_exhaustive(table):
    for a in table(6):
        left_inv, right_inv, img = factor._parity_repair(a)
        left, right = _inverse_letters(left_inv), _inverse_letters(right_inv)
        core = PartialInjection(6, img)
        assert not factor._mismatches(img)
        assert core.rank == a.rank
        assert _eval_word_by_objects(Word(6, left)) * a * _eval_word_by_objects(Word(6, right)) == core
        # each inverse letter is a memoised rotation's partner
        assert all(l._table is not None for l in left_inv + right_inv)
        recon = (
            _eval_word_by_objects(Word(6, left_inv))
            * core
            * _eval_word_by_objects(Word(6, right_inv))
        )
        assert recon == a


def test_block_form_rejects_bad_input():
    with pytest.raises(MalformedBlockFormError):
        BlockForm.from_pinj(pinj.make(6, {(1, 3), (2, 2), (4, 6), (5, 5), (6, 4)}))
    with pytest.raises(MalformedBlockFormError):
        BlockForm.from_pinj(pinj.make(6, {(4, 1)}))  # parity mismatch


# the element-level bodies that the img-tuple pipeline replaced, kept as
# its oracles


def _old_in_if(a):
    return fence.preserves_fence(a) and fence.preserves_fence(a.inverse())


def _old_mismatches(a):
    return [x for x in a.domain() if (x - a.img[x - 1]) % 2]


def _old_block_form(a):
    """(blocks, stage, least-image position, domain and image masks) by
    way of ``greens.blocks``."""
    if not fence.in_if(a):
        raise MalformedBlockFormError(f"{a.encode()} is not in the semigroup")
    if _old_mismatches(a):
        raise MalformedBlockFormError("element is not parity-normalized")
    blocks = []
    for r, length in greens.blocks(a.n, a.domain()):
        vals = list(a.img[r - 1 : r - 1 + length])
        asc = length == 1 or vals[1] == vals[0] + 1
        lo, hi = min(vals), max(vals)
        if sorted(vals) != list(range(lo, hi + 1)) or (
            vals != sorted(vals) and vals != sorted(vals, reverse=True)
        ):
            raise MalformedBlockFormError("block image is not a monotone interval")
        blocks.append((r, r + length - 1, lo, hi, asc))
    fixed = [asc and t == r for r, _, t, _, asc in blocks]
    fixed_lead = 0
    while fixed_lead < len(blocks) and fixed[fixed_lead]:
        fixed_lead += 1
    stage = 1
    for cand in range(fixed_lead + 1, 0, -1):
        prefix_end = blocks[cand - 2][1] if cand >= 2 else 0
        if all(b[2] > prefix_end for b in blocks[cand - 1 :]):
            stage = cand
            break
    rest = range(stage - 1, len(blocks))
    low = min(rest, key=lambda l: blocks[l][2]) if rest else len(blocks)
    return blocks, stage, low, slow.dom_mask(a), slow.im_mask(a)


def _old_apply_step(core, w1, w2, prefix_points):
    new = _eval_word_by_objects(w1) * core * _eval_word_by_objects(w2)
    if new.rank != core.rank:
        raise factor.FactorizationError("pipeline step lost domain points")
    for x in prefix_points:
        if new.img[x - 1] != x:
            raise factor.FactorizationError("pipeline step disturbed the fixed prefix")
    return new.img


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MalformedBlockFormError, factor.FactorizationError) as exc:
        return type(exc), str(exc)


def _new_block_form(a):
    bf = BlockForm.from_pinj(a)
    return [tuple(b) for b in bf.blocks], bf.i, bf.low, bf.dom_mask, bf.im_mask


def test_block_form_scan_matches_element_oracle(table):
    normalized = 0
    for n in range(1, 9):
        for a in table(n):
            assert _outcome(_new_block_form, a) == _outcome(_old_block_form, a)
            normalized += not _old_mismatches(a)
    assert normalized == 4128  # 2713 of them at n = 8


def _touching(core):
    """The images of ``core`` with the upper of each two neighbouring image
    intervals pushed down until it touches the lower: the maps one step
    outside IF_n, which pass the scan only when the push keeps parity."""
    intervals = []  # (t, u, domain points) of each block, by image
    for r, length in greens.blocks(len(core), [x for x, v in enumerate(core, 1) if v]):
        vals = core[r - 1 : r - 1 + length]
        intervals.append((min(vals), max(vals), range(r, r + length)))
    intervals.sort()
    for (_, u1, _), (t2, _, dom2) in zip(intervals, intervals[1:]):
        img = list(core)
        for x in dom2:
            img[x - 1] -= t2 - u1 - 1
        yield tuple(img)


def test_block_form_membership_matches_element_oracle(table):
    # membership is read from the scan, with in_if asked only when the
    # scan fails.  Every map of I_n, n <= 6; every map of PFI_n, n <= 8,
    # the only maps that pass the scan and reach the image-gap test; and
    # seeded near-members past the exhaustive range, parity-normalized
    # members with two image intervals pushed until they touch
    elements = [a for n in range(1, 7) for a in table(n, "I")]
    elements += [a for n in range(1, 9) for a in table(n, "PFI")]
    for a in elements:
        assert _outcome(_new_block_form, a) == _outcome(_old_block_form, a)
    near = reached_gap_test = 0
    for n in range(9, 33):
        for a in _seeded_elements(2400 + n, n, 12):
            core = factor._parity_repair(a)[-1]
            for img in _touching(core):
                b = PartialInjection(n, img)
                got = _outcome(_new_block_form, b)
                assert got == _outcome(_old_block_form, b)
                assert got == (MalformedBlockFormError, f"{b.encode()} is not in the semigroup")
                near += 1
                reached_gap_test += not _old_mismatches(b)
    assert (near, reached_gap_test) == (810, 181)


def test_block_form_errors_match_element_oracle(monkeypatch):
    def check(enc, message):
        a = pinj.parse(enc)
        got = _outcome(_new_block_form, a)
        assert got == _outcome(_old_block_form, a)
        assert got[0] is MalformedBlockFormError and message in got[1]

    check("n=6:[1>3 2>2 4>6 5>5 6>4]", "not in the semigroup")
    check("n=6:[4>1]", "not parity-normalized")
    # no member of the semigroup has a block that is not a monotone
    # interval, so the shape test is reached only past a waived membership
    monkeypatch.setattr(factor, "in_if", lambda a: True)
    monkeypatch.setattr(fence, "in_if", lambda a: True)
    check("n=6:[1>1 2>4 3>3]", "not a monotone interval")
    check("n=6:[1>5 2>4 3>1]", "not a monotone interval")
    check("n=8:[1>1 2>4 3>7]", "not a monotone interval")  # even steps of 3
    # a map with both faults reports the parity first, as before
    check("n=6:[1>1 2>3 3>2]", "not parity-normalized")


def _old_pin(bf):
    """The pin as seven hand-written calls of the three-kind builder: the
    oracle for the one-rule :func:`factor._pin`."""
    n = bf.elt.n
    blk = bf.blocks[bf.i - 1]
    d = blk.r - blk.t
    if blk.asc:
        if d > 0:
            return (*_old_build_shift_word(n, "shift2k", blk.t, blk.u - blk.t, d // 2), True)
        return (*_old_build_shift_word(n, "shift2k", blk.r, blk.s - blk.r, -d // 2), False)
    if d >= 0:
        if d == 0:
            elt = factor.build_reversal(n, blk.t, blk.u - blk.t)
            letters = (elt,)
        elif d % 2:
            elt, letters = _old_build_shift_word(
                n, "revshift2k", blk.t, blk.u - blk.t, (d + 1) // 2
            )
        else:
            elt, letters = _old_build_shift_word(n, "revshifteven", blk.t, blk.u - blk.t, d // 2)
        return elt, letters, True
    d2 = -d
    if d2 % 2:
        elt, letters = _old_build_shift_word(n, "revshift2k", blk.r, blk.s - blk.r, (d2 + 1) // 2)
    else:
        elt, letters = _old_build_shift_word(n, "revshifteven", blk.r, blk.s - blk.r, d2 // 2)
    return elt, letters, False


def _old_reversal_cases(bf):
    """The six reversal branches that opened the alignment dispatch, with
    the unchecked reversal: the oracle for the one covering rule of
    :func:`factor._covering_reversal`.  (left, right) letters, or None
    when no branch applies."""
    n = bf.elt.n
    idx = bf.i - 1
    k0 = bf.low
    dom_mask = slow.dom_mask(bf.elt)
    im_mask = slow.im_mask(bf.elt)
    in_dom = lambda x: 1 <= x <= n and (dom_mask >> (x - 1)) & 1
    in_im = lambda x: 1 <= x <= n and (im_mask >> (x - 1)) & 1
    r_i = bf.blocks[idx].r
    u_i = bf.blocks[idx].u
    s_k = bf.blocks[k0].s
    t_k = bf.blocks[k0].t

    if (r_i - s_k) % 2 == 0:
        return (_loop_rev_elt(n, r_i, s_k - r_i),), ()
    if r_i >= 2 and not in_dom(r_i - 2):
        return (_loop_rev_elt(n, r_i - 1, s_k - r_i + 1),), ()
    if s_k + 1 <= n and not in_dom(s_k + 2):
        return (_loop_rev_elt(n, r_i, s_k + 1 - r_i),), ()
    if (u_i - t_k) % 2 == 0:
        return (), (_loop_rev_elt(n, t_k, u_i - t_k),)
    if t_k >= 2 and not in_im(t_k - 2):
        return (), (_loop_rev_elt(n, t_k - 1, u_i - t_k + 1),)
    if u_i + 1 <= n and not in_im(u_i + 2):
        return (), (_loop_rev_elt(n, t_k, u_i + 1 - t_k),)
    return None


def test_covering_reversal_matches_six_branches(table):
    # every unaligned form for n <= 7: where a branch applies, the
    # dispatch gives its letters, and where none does, neither side has a
    # covering reversal
    forms = covered = 0
    for n in range(1, 8):
        for a in table(n):
            try:
                bf = BlockForm.from_pinj(a)
            except MalformedBlockFormError:
                continue
            if bf.aligned:
                continue
            cur, least = bf.blocks[bf.i - 1], bf.blocks[bf.low]
            old = _old_reversal_cases(bf)
            if old is None:
                assert factor._covering_reversal(n, slow.dom_mask(a), cur.r, least.s) is None
                assert factor._covering_reversal(n, slow.im_mask(a), least.t, cur.u) is None
            else:
                assert factor._align_dispatch(bf) == old
                covered += 1
            forms += 1
    assert (forms, covered) == (648, 647)


FAR_BLOCK_CASES = (
    "n=8:[1>5 2>6 4>8 7>1 8>2]",
    "n=8:[1>7 2>8 5>5 7>1 8>2]",
    "n=8:[1>7 2>8 4>4 7>1 8>2]",
)


def test_apply_step_matches_object_products(monkeypatch, table):
    # every step of the pipeline for n <= 7, against the element
    # products; along the way, the invariants the stepping rests on:
    # alignment only ever sees an unaligned form, an aligned current
    # block is never fixed, each pin is the one the seven-branch oracle
    # picks, and each step's words reversed evaluate to the inverses of
    # its words
    dispatched = []  # (aligned, nesting depth) at each entry
    depth = [0]
    real = factor._align_dispatch

    def dispatch(bf):
        dispatched.append((bf.aligned, depth[0]))
        depth[0] += 1
        try:
            return real(bf)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(factor, "_align_dispatch", dispatch)
    steps = pins = 0
    for n in range(1, 8):
        for a in table(n):
            if a.rank >= n - 2:
                continue
            core = PartialInjection(n, factor._parity_repair(a)[-1])
            bf = BlockForm.from_pinj(core)
            for _ in range(2 * n + 4):
                if bf.all_fixed:
                    break
                if bf.aligned:
                    blk = bf.blocks[bf.i - 1]
                    assert not (blk.asc and blk.t == blk.r)
                    assert factor._pin(bf) == _old_pin(bf)[1:]
                    pins += 1
                lhs, rhs = factor._step(bf)
                for letters in (lhs, rhs):
                    value = genfam._value(letters, n)
                    assert genfam._value(letters[::-1], n) == inverse_img(value)
                points = [x for b in bf.blocks[: bf.i - 1] for x in range(b.r, b.s + 1)]
                new = factor._next_form(bf, lhs, rhs).elt.img
                assert new == _old_apply_step(core, Word(n, lhs), Word(n, rhs), points)
                core = PartialInjection(n, new)
                bf = BlockForm.from_pinj(core)
                steps += 1
            assert bf.all_fixed
    assert not any(aligned for aligned, _ in dispatched)
    assert (steps, pins, len(dispatched)) == (4323, 2351, 1972)
    # no far-block reshape below n = 8; the dispatch on a reshaped form
    # (one level down) ends there, never reaching a second reshape
    assert max(d for _, d in dispatched) == 0
    for enc in FAR_BLOCK_CASES:
        del dispatched[:]
        w = factor.factorize_j(pinj.parse(enc))
        assert not w.fallback
        assert [d for _, d in dispatched].count(1) == 1
        assert max(d for _, d in dispatched) == 1
    # a step that drops a point, and one that keeps the rank but moves
    # the fixed prefix
    core = pinj.parse("n=8:[1>1 2>2 5>7]")
    bf = BlockForm.from_pinj(core)
    assert (bf.i, bf.aligned) == (2, True)
    for w1, message in (
        (Word(8, (genfam.named(8, GeneratorSpec("eps", 5)),)), "lost domain points"),
        (Word(8, (factor.build_reversal(8, 1, 2),)), "disturbed the fixed prefix"),
    ):
        got = _outcome(lambda *step: factor._next_form(*step).elt.img, bf, w1.letters, ())
        assert got == _outcome(_old_apply_step, core, w1, Word(8), [1, 2])
        assert got == (factor.FactorizationError, f"pipeline step {message}")


def test_corrupted_rotation_partner_is_refused(monkeypatch, table):
    # the parity repair's invertibility check guards the rotation
    # inverses: with each rotation's partner replaced by the rotation
    # itself, every element that needs a rotation fails that check and
    # raises; the rest keep their words
    real = factor._rotation
    elements = [a for n in range(1, 8) for a in table(n)]
    words, affected = [], []
    for a in elements:
        seen = []
        monkeypatch.setattr(factor, "_rotation", lambda *key: seen.append(key) or real(*key))
        words.append(factor.factorize_j(a))
        affected.append(bool(seen))
    monkeypatch.setattr(factor, "_rotation", lambda *key: (real(*key)[0],) * 2)
    for a, word, hit in zip(elements, words, affected):
        if hit:
            with pytest.raises(factor.FactorizationError, match="parity repair is not invertible"):
                factor.factorize_j(a)
        else:
            w = factor.factorize_j(a)
            assert (w.text(), w.provenance) == (word.text(), word.provenance)
            assert not w.fallback
    assert sum(affected) == 1654 and len(elements) == 3161


def test_escaping_rotation_is_refused(monkeypatch, table):
    # the rotations pass the letter gate where they are made: with
    # _eta_left planted to swap 1 and 2, _rotation refuses it, and
    # exactly the elements that need a rotation raise; the rest keep
    # their words
    elements = [a for n in range(1, 8) for a in table(n)]
    needs = [a.rank < a.n - 2 and bool(factor._mismatches(a.img)) for a in elements]
    words = [factor.factorize_j(a) for a in elements]
    factor._rotation.cache_clear()  # memoised rotations would hide the plant
    monkeypatch.setattr(genfam, "_eta_left", lambda n, a: PartialInjection(n, (2, 1, *range(3, n + 1))))
    with pytest.raises(factor.FactorizationError, match="escapes"):
        factor._rotation(6, 2, True)
    for a, word, need in zip(elements, words, needs):
        if need:
            with pytest.raises(factor.FactorizationError, match="escapes"):
                factor.factorize_j(a)
        else:
            w = factor.factorize_j(a)
            assert (w.text(), w.provenance, w.fallback) == (word.text(), word.provenance, False)
    assert factor._rotation.cache_info().currsize == 0
    assert sum(needs) == 1654


def test_factorize_sampled_n9_to_32():
    # properties on random samples past the exhaustive range: no
    # fallback, every word evaluates back, and every letter has rank
    # >= n-2 and lies in IF_n; every letter that is not the input itself
    # passed the letter gate, which gave it its table
    for n in range(9, 33):
        gset = set(genfam.set_g(n)) if n % 2 == 0 else ()
        for a in _seeded_elements(900 + n, n, 40):
            words = [factor.factorize_j(a)]
            if gset:
                words.append(factor.factorize_g(a))
            assert words[0].provenance == ("letter" if a.rank >= n - 2 else "constructive")
            for w in words:
                assert not w.fallback
                assert _eval_word_by_objects(w) == a
                for elt in set(w.letters):
                    assert elt.rank >= n - 2 and _old_in_if(elt)
                    if w.provenance != "letter":
                        assert elt._table == pinj.translate_table(elt.raw)
            if gset:
                assert all(l in gset for l in words[1].letters)


def _refuse(*args):
    pytest.fail("a step was taken that the form does not need")


def test_align_noop_when_already_aligned(monkeypatch):
    # an aligned form is pinned, never aligned again
    bf = BlockForm.from_pinj(pinj.make(6, {(1, 3), (2, 4)}))
    assert bf.aligned
    monkeypatch.setattr(factor, "_align_dispatch", _refuse)
    lhs, rhs = factor._step(bf)
    letters, on_left = factor._pin(bf)
    assert (lhs, rhs) == ((letters, ()) if on_left else ((), letters[::-1]))


def test_align_reversal_case():
    core = pinj.make(6, {(1, 3), (3, 5), (5, 1)})
    bf = BlockForm.from_pinj(core)
    assert not bf.aligned
    lhs, rhs = factor._step(bf)
    new = factor.eval_word(Word(6, lhs)) * core * factor.eval_word(Word(6, rhs))
    assert new == pinj.make(6, {(1, 1), (3, 5), (5, 3)})


def test_fix_noop_when_fixed(monkeypatch):
    # a form whose blocks are all fixed takes no step: its word is the
    # residual partial identity alone
    a = pinj.identity_on(6, {1, 2})
    assert BlockForm.from_pinj(a).all_fixed
    monkeypatch.setattr(factor, "_step", _refuse)
    w = factor.factorize_j(a)
    assert [l.spec.text() for l in w.letters] == ["eps:3", "eps:4", "eps:5", "eps:6"]
    assert (w.provenance, w.fallback) == ("constructive", False)


def test_fix_pins_aligned_block():
    core = pinj.make(6, {(1, 3), (2, 4)})
    bf = BlockForm.from_pinj(core)
    assert bf.aligned
    lhs, rhs = factor._step(bf)
    new = factor.eval_word(Word(6, lhs)) * core * factor.eval_word(Word(6, rhs))
    assert new.img[0] == 1 and new.img[1] == 2


def test_factorize_high_rank_is_single_letter(table):
    for a in table(4):
        if a.rank >= 2:
            w = factor.factorize_j(a)
            assert w.letters == (a,) and w.provenance == "letter"


def test_factorize_identity():
    w = factor.factorize_j(PartialInjection.identity(6))
    assert factor.eval_word(w) == PartialInjection.identity(6)
    assert len(w) == 1


def test_factorize_j_exhaustive_small(table):
    for n in range(1, 6):
        for a in table(n):
            w = factor.factorize_j(a)
            assert not w.fallback
            assert factor.eval_word(w) == a
            for elt in w.letters:
                assert elt.rank >= n - 2 and fence.in_if(elt)


def test_factorize_rejects_non_if():
    with pytest.raises(fence.NotInIFError):
        factor.factorize_j(pinj.make(6, {(1, 3), (2, 2), (4, 6), (5, 5), (6, 4)}))


def test_planted_pipeline_fault_raises_at_every_n(monkeypatch):
    # a failed step is never answered by another method, inside the IF
    # limit or past it
    def decline(a):
        raise factor.FactorizationError("declined")

    monkeypatch.setattr(factor, "_constructive", decline)
    for n in (6, 12):
        a = pinj.parse(f"n={n}:[1>1]")
        for factorize in (factor.factorize_j, factor.factorize_g):
            with pytest.raises(factor.FactorizationError, match="declined"):
                factorize(a)


def test_factorize_g_eps2_word_is_shortest():
    # eps2's table word is as short as the breadth-first oracle's word
    gens = genfam.set_g(6)
    eps2 = genfam.epsilon(6, 2)
    assert len(slow.word_for(slow.saturate(6, gens), gens, eps2.img)) == 2
    assert len(factor.factorize_g(eps2)) == 2


def test_factorize_g_matches_table_expansions(table):
    # reference: each J letter expanded by its table word, or, for a
    # high-rank input outside the table, each letter of its constructive
    # word; no letter is searched for
    for n in (2, 4, 6, 8):
        expansions = {}  # letter -> its table word's letters

        def expand(target):
            if target not in expansions:
                letters = tuple(genfam._table_word(n, target))
                assert factor.eval_word(Word(n, letters)) == target
                expansions[target] = letters
            return expansions[target]

        constructive = 0
        for a in table(n):
            base = factor.factorize_j(a)
            if base.provenance == "letter" and genfam._table_word(n, a) is None:
                base = factor._constructive(a)
                constructive += 1
            w = factor.factorize_g(a)
            assert w.text() == Word(n, sum(map(expand, base.letters), ())).text()
            assert w.bfs_letters == 0
        assert constructive > 0 or n == 2


def test_factorize_g_table_case():
    w = factor.factorize_g(genfam.epsilon(6, 4))
    assert [l.spec.text() for l in w.letters] == ["gam:4", "gam:4"]


def test_factorize_g_exhaustive(table):
    for n in (2, 4):
        gset = set(genfam.set_g(n))
        for a in table(n):
            w = factor.factorize_g(a)
            assert factor.eval_word(w) == a
            assert all(l in gset for l in w.letters)


def test_factorize_g_rejects_odd_n():
    with pytest.raises(genfam.OddAmbientError):
        factor.factorize_g(PartialInjection.identity(5))


def test_word_inverse_of_factorization(table):
    rng = random.Random(13)
    for a in rng.sample(table(6).elements, 40):
        w = factor.factorize_j(a)
        assert factor.eval_word(Word(6, _inverse_letters(w.letters))) == a.inverse()


def test_factorize_j_n7(table):
    # the whole of n=7 is cheaper than a 1e4 random sample would be
    fallbacks = 0
    for a in table(7):
        w = factor.factorize_j(a)
        fallbacks += w.fallback
        assert factor.eval_word(w) == a
    assert fallbacks == 0


def test_far_block_alignment_cases():
    # the only elements up to n=8 whose minimal image sits two or more
    # blocks away with every boundary repair blocked; they must still
    # factor constructively
    for enc in FAR_BLOCK_CASES:
        a = pinj.parse(enc)
        w = factor.factorize_j(a)
        assert not w.fallback
        assert factor.eval_word(w) == a
        assert all(l.rank >= 6 for l in w.letters)


def test_reversal_check_rejects_low_rank(monkeypatch):
    # a reversal memoised by an earlier call would hide the patch
    factor.build_reversal.cache_clear()
    monkeypatch.setattr(factor, "interval_map", lambda n, m, values: PartialInjection.empty(n))
    try:
        with pytest.raises(factor.FactorizationError, match="high-rank"):
            factor.build_reversal(6, 2, 2)
    finally:
        factor.build_reversal.cache_clear()


def test_shift_check_rejects_target_outside_semigroup(monkeypatch):
    # an ascending move by 0 uses no reversal, so only the final
    # membership check sees this; a move checked by an earlier call
    # would hide the patch
    factor.build_reversal.cache_clear()
    factor._check_move.cache_clear()
    monkeypatch.setattr(factor, "in_if", lambda a: False)
    try:
        with pytest.raises(factor.FactorizationError, match="leaves the semigroup"):
            factor.build_shift_word(8, 2, 2, 0, True)
    finally:
        factor.build_reversal.cache_clear()
        factor._check_move.cache_clear()


def test_failed_move_check_is_not_recorded(monkeypatch):
    # the move memo records a key only once its check has passed (a move
    # by 0 has no reversal letters, whose own check would fail first)
    factor._check_move.cache_clear()
    monkeypatch.setattr(factor, "in_if", lambda a: False)
    for _ in range(3):
        with pytest.raises(factor.FactorizationError, match="leaves the semigroup"):
            factor.build_shift_word(8, 2, 2, 0, True)
        assert factor._check_move.cache_info().currsize == 0
    monkeypatch.undo()
    first = factor.build_shift_word(8, 2, 2, 0, True)
    assert factor.build_shift_word(8, 2, 2, 0, True) == first
    info = factor._check_move.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 4)


def test_rotation_memo():
    # for every even n <= 32 and every even point a the repair can move,
    # the two directions are mutual inverses, swapped between the sides;
    # a repeat call returns the same memoised pair, each letter with its
    # table
    factor._rotation.cache_clear()
    pairs = {}
    for n in range(2, 33, 2):
        for a in range(2, n + 1, 2):
            for left in (True, False):
                eta, inv = pairs[n, a, left] = factor._rotation(n, a, left)
                assert inv == eta.inverse() and eta == inv.inverse() and inv != eta
                assert (eta, inv) == factor._rotation(n, a, not left)[::-1]
            assert factor._rotation(n, a, True)[0] == genfam._eta_left(n, a)
    assert len(pairs) == 272
    for key, pair in pairs.items():
        again = factor._rotation(*key)
        assert again is pair and all(l._table is not None for l in again)


def test_no_per_step_builds(monkeypatch, table):
    # once the memos are warm, a factorization builds no move target, no
    # rotation and no inverse, and checks no letter: a second pass over
    # IF_6 and IF_7 makes no inverse, no interval_map and no letter gate
    # call
    elements = [a for n in (6, 7) for a in table(n)]
    for a in elements:
        factor.factorize_j(a)
    calls = {"inverse": 0, "interval_map": 0, "checked_letter": 0}
    real_inverse = PartialInjection.inverse
    real_map = genfam.interval_map
    real_gate = genfam.checked_letter

    def inverse(self):
        calls["inverse"] += 1
        return real_inverse(self)

    def interval_map(*args):
        calls["interval_map"] += 1
        return real_map(*args)

    def checked_letter(a):
        calls["checked_letter"] += 1
        return real_gate(a)

    monkeypatch.setattr(PartialInjection, "inverse", inverse)
    for mod in (genfam, factor):
        monkeypatch.setattr(mod, "interval_map", interval_map)
        monkeypatch.setattr(mod, "checked_letter", checked_letter)
    for a in elements:
        assert not factor.factorize_j(a).fallback
    assert calls == {"inverse": 0, "interval_map": 0, "checked_letter": 0}


def test_high_rank_word_text_depends_on_the_element_alone():
    # a named letter and the plain element it equals factor to one text:
    # the word holds a plain element, not the letter and its spec
    letters = [genfam.named(6, GeneratorSpec.parse(t)) for t in ("gam:4", "del:1", "eps:3")]
    for n in (4, 6):
        letters += [g for g in genfam.set_g(n) if g.spec is not None]
    for letter in letters:
        plain = PartialInjection(letter.n, letter.raw)
        word = factor.factorize_j(letter)
        body = plain.encode().split(":", 1)[1]  # the image, "[1>3 2>2 ...]"
        assert word.text() == factor.factorize_j(plain).text() == f"w{letter.n}: {body}"
        (held,) = word.letters
        assert held == plain and held.__class__ is PartialInjection and held.spec is None
        assert factor.eval_word(word) == letter


def test_factorization_leaves_no_table_on_its_input():
    # translate tables are kept only on memoised letters; the input, and
    # a high-rank input that is its own one-letter word, are folded
    # through throwaway tables
    low = pinj.parse("n=8:[1>5 2>6 4>8 7>1 8>2]")
    high = pinj.parse("n=8:[1>1 3>5 4>4 5>3 7>7 8>8]")
    assert high.rank >= 6
    for factorize in (factor.factorize_j, factor.factorize_g):
        assert factor.eval_word(factorize(low)) == low
        word = factorize(high)
        assert factor.eval_word(word) == high
        if factorize is factor.factorize_j:
            assert word.letters == (high,) and word.letters[0] is high
    assert low._table is None and high._table is None
    # the memoised letters of a word do keep theirs
    word = factor.factorize_j(low)
    assert all(l._table is not None for l in word.letters)


def test_corrupted_eps_word_is_refused(monkeypatch, table):
    # the assembled-word check folds the residual core in place of its
    # eps letters, so the residual check alone guards them: with one eps
    # letter dropped, every constructive factorization fails a check and
    # raises
    real = factor._eps_letters
    monkeypatch.setattr(factor, "_eps_letters", lambda n, points: real(n, points)[1:])
    errors = []
    elements = [a for n in range(1, 7) for a in table(n) if a.rank < n - 2]
    for a in elements:
        with pytest.raises(factor.FactorizationError) as exc:
            factor.factorize_j(a)
        errors.append(str(exc.value))
    assert len(errors) == len(elements)
    assert "residual core is not a partial identity" in errors


def test_step_leaving_semigroup_is_refused(monkeypatch):
    # a step whose result leaves IF_n is caught by the BlockForm built
    # from it next, and the factorization raises
    n = 6
    swap = pinj.make(n, {(1, 2), (2, 1), (3, 3), (4, 4), (5, 5), (6, 6)})
    a = pinj.parse("n=6:[4>1 6>3]")
    assert not fence.in_if(swap)

    def leave(bf):
        return (swap,), ()

    rejected = []
    real = BlockForm.from_pinj

    def from_pinj(elt):
        try:
            return real(elt)
        except MalformedBlockFormError as exc:
            rejected.append((elt, str(exc)))
            raise

    monkeypatch.setattr(factor, "_step", leave)
    monkeypatch.setattr(BlockForm, "from_pinj", from_pinj)
    with pytest.raises(MalformedBlockFormError, match="not in the semigroup"):
        factor.factorize_j(a)
    ((elt, message),) = rejected
    assert not fence.in_if(elt) and "not in the semigroup" in message


def _form_fields(bf):
    return [tuple(b) for b in bf.blocks], bf.i, bf.low, bf.dom_mask, bf.im_mask, bf.elt.img


def _step_kind(bf):
    """"pin", "domain" (a domain-side covering reversal) or "other" (an
    image-side reversal, the adjacent-block repair or a far-block
    reshape): the step the pipeline takes on ``bf``, read from the form."""
    if bf.aligned:
        return "pin"
    cur, least = bf.blocks[bf.i - 1], bf.blocks[bf.low]
    return "other" if factor._covering_span(bf.elt.n, bf.dom_mask, cur.r, least.s) is None else "domain"


def _record_predictions(monkeypatch):
    """Wrap the closed form: the list of (form, product, predicted form
    or None) of every call."""
    calls = []
    real = factor._predicted_form

    def predicted(bf, new):
        form = real(bf, new)
        calls.append((bf, new, form))
        return form

    monkeypatch.setattr(factor, "_predicted_form", predicted)
    return calls


def test_closed_form_steps_match_the_scan(monkeypatch, table):
    # the scan is the oracle of the closed form: at every step of
    # factorize_j over IF_n, n <= 8, and 100 seeded elements each at
    # n = 16 and n = 32, a predicted form equals the scan of the folded
    # core in every field, and every pin and domain-side covering
    # reversal is predicted
    calls = _record_predictions(monkeypatch)
    elements = [a for n in range(1, 9) for a in table(n)]
    elements += _seeded_elements(1600, 16, 100) + _seeded_elements(3200, 32, 100)
    for a in elements:
        assert not factor.factorize_j(a).fallback
    kinds = Counter()
    for bf, new, form in calls:
        kind = _step_kind(bf)
        kinds[kind, form is not None] += 1
        if form is not None:
            assert _form_fields(form) == _form_fields(BlockForm.from_pinj(PartialInjection(bf.elt.n, new)))
    assert kinds == {("pin", True): 10892, ("domain", True): 9248, ("other", False): 531}


def test_closed_form_refuses_forms_that_break_its_tests():
    # no step of a form the scan built can fail the parity, image-touch or
    # prefix test of the closed form, so each is shown on a hand-built
    # form: the product the closed form predicts is refused, and the scan
    # of that product fails too where the product is no member
    B = factor._Block

    def form(img, blocks, i, low):
        elt = PartialInjection(len(img), img)
        return BlockForm(elt, [B(*b) for b in blocks], i, low, slow.dom_mask(elt), slow.im_mask(elt))

    cases = [
        # a reversal of [2, 4] mirrors 2 -> 5 onto 4 -> 5, breaking parity
        (form((0, 5, 0, 2, 0, 0, 0), [(2, 2, 5, 5, True), (4, 4, 2, 2, True)], 1, 1),
         (0, 2, 0, 5, 0, 0, 0), "not parity-normalized"),
        # a pin on the right brings the image of 1 next to the image 2 of 4
        (form((3, 0, 0, 2, 0, 0), [(1, 1, 3, 3, True), (4, 4, 2, 2, True)], 1, 0),
         (1, 0, 0, 2, 0, 0), "not in the semigroup"),
        # a reversal of [2, 4] clears 1, a point of the fixed prefix
        (form((1, 6, 0, 4, 0, 0, 0), [(1, 1, 1, 1, True), (2, 2, 6, 6, True), (4, 4, 4, 4, True)], 2, 2),
         (0, 4, 0, 6, 0, 0, 0), None),
    ]
    for bf, new, message in cases:
        assert factor._predicted_form(bf, new) is None
        got = _outcome(_new_block_form, PartialInjection(bf.elt.n, new))
        if message is not None:
            assert got[0] is MalformedBlockFormError and message in got[1]


def _outcome_of_factorization(a):
    """The error the factorization raised, as (type, message), or the
    text of its word."""
    try:
        return factor.factorize_j(a).text()
    except (factor.FactorizationError, MalformedBlockFormError, BadIndexError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind, swap, counts", [
    ("pin", "reversed", (1758, 55)),
    ("pin", "identity", (1758, 1758)),
    ("domain", "identity", (1630, 1630)),
], ids=["pin-reversed", "pin-identity", "domain-identity"])
def test_planted_step_letters_miss_the_closed_form(monkeypatch, table, kind, swap, counts):
    # the letters of every pin, or the letter of every domain-side
    # covering reversal, swapped for other valid letters: the pin's word
    # reversed (the identity where that is the same word), or the
    # identity.  Over IF_1..IF_7 the closed form accepts no planted
    # product, and every outcome (the pipeline's error or the word) is
    # the one of the scan alone, which is how every step was checked
    # before the closed form.  ``counts`` are the errors and the planted
    # steps whose product reached the closed form
    real_step = factor._step
    planted = []

    def swapped(n, letters):
        if swap == "reversed" and letters != letters[::-1]:
            return letters[::-1]
        return (genfam.named(n, GeneratorSpec("id")),)

    def step(bf):
        lhs, rhs = real_step(bf)
        if _step_kind(bf) != kind:
            return lhs, rhs
        planted.append(bf)
        n = bf.elt.n
        return (swapped(n, lhs), rhs) if lhs else (lhs, swapped(n, rhs))

    monkeypatch.setattr(factor, "_step", step)
    calls = _record_predictions(monkeypatch)
    elements = [a for n in range(1, 8) for a in table(n)]
    with_closed_form = [_outcome_of_factorization(a) for a in elements]
    planted_ids = {id(bf) for bf in planted}  # the forms stay alive in both lists
    reached = [form for bf, _, form in calls if id(bf) in planted_ids]
    assert not any(reached)
    monkeypatch.setattr(factor, "_predicted_form", lambda bf, new: None)
    assert [_outcome_of_factorization(a) for a in elements] == with_closed_form
    errors = sum(isinstance(outcome, tuple) for outcome in with_closed_form)
    assert (errors, len(reached)) == counts


def test_only_unpredicted_steps_are_scanned(monkeypatch):
    # on 100 seeded elements at n = 32 the scan runs once per input form,
    # once per step that is neither a pin nor a domain-side covering
    # reversal, and once more inside each far-block reshape; a step sent
    # back to the scan would raise the count
    scans = [0]
    real_scan = BlockForm.from_pinj

    def from_pinj(elt):
        scans[0] += 1
        return real_scan(elt)

    kinds = Counter()
    real_step = factor._step

    def step(bf):
        kinds[_step_kind(bf)] += 1
        return real_step(bf)

    reshapes = [0]
    real_dispatch = factor._align_dispatch
    depth = [0]

    def dispatch(bf):
        reshapes[0] += depth[0] == 1
        depth[0] += 1
        try:
            return real_dispatch(bf)
        finally:
            depth[0] -= 1

    elements = _seeded_elements(3200, 32, 100)
    monkeypatch.setattr(BlockForm, "from_pinj", from_pinj)
    monkeypatch.setattr(factor, "_step", step)
    monkeypatch.setattr(factor, "_align_dispatch", dispatch)
    inputs = 0
    for a in elements:
        w = factor.factorize_j(a)
        assert not w.fallback
        inputs += w.provenance == "constructive"
    assert scans[0] == inputs + kinds["other"] + reshapes[0]
    assert (scans[0], inputs, kinds["other"], reshapes[0]) == (113, 89, 24, 0)
    assert (kinds["pin"], kinds["domain"]) == (370, 288)


def test_cold_and_warm_caches_agree(table):
    # memoised moves and words must not change any answer: each call made
    # with every factor/genfam cache cleared first, then again warm
    def answers(a, clear):
        clear()
        j = factor.factorize_j(a)
        out = (j.text(), j.provenance, j.fallback)
        if a.n % 2 == 0:
            clear()
            g = factor.factorize_g(a)
            out += (g.text(), g.bfs_letters)
        return out

    elements = [a for n in range(1, 7) for a in table(n)]
    elements += _seeded_elements(320, 32, 100)
    cold = [answers(a, _clear_caches) for a in elements]
    assert [answers(a, lambda: None) for a in elements] == cold


def test_bad_moves_raise_on_every_call():
    # lru_cache does not cache exceptions, so every repeat is checked again
    bad = [
        (BadIndexError, factor.build_reversal, (6, 4, 4)),
        (BadIndexError, factor.build_reversal, (6, 2, 3)),
        (BadIndexError, factor.build_shift_word, (6, 3, 2, 4, True)),
        (BadIndexError, factor.build_shift_word, (8, 1, 2, 1, False)),
        (BadIndexError, factor.build_shift_word, (8, 1, 1, 2, False)),
        (BadIndexError, factor.build_shift_word, (8, 1, 2, 1, True)),
    ]
    for _ in range(3):
        factor.build_reversal(6, 2, 2)
        for error, func, args in bad:
            with pytest.raises(error):
                func(*args)
