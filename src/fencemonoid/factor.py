"""Constructive factorization into high-rank letters.

Every two-way fence-preserving map factors into elements of rank at
least n-2.  The pipeline, :func:`_constructive`, mirrors the
constructive argument.  :func:`_parity_repair` first makes every domain
point congruent to its image mod 2 by near-identity rotations.  Then
each :func:`_step` either aligns the current block, giving it the least
remaining image (:func:`_align_dispatch`), or pins the aligned block
down pointwise (:func:`_pin`), until a partial identity remains, which
is a word of point-deleted identities.  A pin is one interval move by
the block's displacement, ascending or reversed as the block is, on the
left when its domain lies above its image (or level with it,
descending) and on the right otherwise.  Every reversal, in the moves
and the alignments alike, is a :func:`build_reversal`.  A step is a pair
of letter words, and every letter the steps apply, a reversal or a
point-deleted identity, is its own inverse, so a step's inverse is its
words reversed; the rotations of the repair come paired with their
inverses.  Conjugating back by the inverse words yields the
factorization.  Each step's postcondition is checked at runtime, and a
violation raises: there is one path, and a word is either the one the
construction gives or no word at all.

The pipeline runs on bytes images, the elements' own format.  Every
product, the parity repair's and the far-block reshape's included, is a
:func:`~fencemonoid.genfam._value` fold over the
:func:`~fencemonoid.pinj.translate_table` kernel: each memoised letter
(a reversal, a named generator, a rotation) keeps its table, and a
step's core or the input gets a throwaway one.  No letter is inverted
and no move target is built per step: a target is built only by the
check of its move.  One element is built per step, for its block form.
The input's form comes from one scan of its image
(:meth:`BlockForm.from_pinj`), which also decides membership and yields
the domain and image masks that the alignment reads.  A pin or a
domain-side covering reversal, nearly every step, changes one window of
the image, so its form is predicted in closed form and the folded product
checked against the prediction (:func:`_predicted_form`); any other
step, and any product that misses its prediction, is scanned as the
input is.  Each check runs once: the input's membership once per
factorization; each step result's membership from its scan or, for a
predicted form, from the parity and image-touch tests on the blocks
the step changed; each interval move is checked once per distinct
move, and each letter once, by the letter gate
:func:`~fencemonoid.genfam.checked_letter` where it is made, so no word
checks its letters.  The residual check folds the eps letters once, and
the assembled-word check folds the residual core in their place.
Every memo is bounded, and the move memo holds keys only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from . import genfam
# uncalled: the tracer's CLOSURE_BINDINGS time it, to report factor.j_closure_s
from .enumeration import closure
from .fence import in_if, require_if
from .genfam import (
    BadIndexError, FactorizationError, GeneratorSpec, OddAmbientError, Word, _value, checked_letter,
    interval_map,
)
from .pinj import MAX_N, PartialInjection


class MalformedBlockFormError(ValueError):
    pass


# --- words ------------------------------------------------------------------


def eval_word(word: Word) -> PartialInjection:
    """The product of the letters, folded over bytes images; one element
    is built at the end."""
    return PartialInjection(word.n, _value(word.letters, word.n))


# --- interval-move builders ---------------------------------------------------


@functools.lru_cache(maxsize=4096)
def build_reversal(n: int, m: int, p: int) -> PartialInjection:
    """Reverse [m, m+p] in place (p even), drop m-1 and m+p+1 and fix the
    rest: a single rank >= n-2 letter, self-inverse.

    A pure function of (n, m, p), memoised once it has passed the letter
    gate :func:`~fencemonoid.genfam.checked_letter`, so its rank and
    membership checks run once per distinct reversal; bad indices and a
    refused letter are not cached and raise on every call."""
    if m < 1 or p < 0 or m + p > n:
        raise BadIndexError(f"need 1 <= m, 0 <= p, m+p <= n; got m={m}, p={p}, n={n}")
    if p % 2:
        raise BadIndexError(f"reversal needs an even interval span, got p={p}")
    return checked_letter(interval_map(n, m, range(m + p, m - 1, -1)))


@functools.lru_cache(maxsize=MAX_N)
def _eps(n: int) -> tuple:
    """(None, eps_1, ..., eps_n): the named point-deleted identities of
    {1..n}, indexed by the deleted point."""
    return (None, *(genfam.named(n, GeneratorSpec("eps", i)) for i in range(1, n + 1)))


def _eps_letters(n, points):
    eps = _eps(n)
    return tuple(eps[i] for i in points if 1 <= i <= n)


def _shift2k_letters(n, m, p, k):
    if k == 0:
        return _eps_letters(n, (m - 1, m + p + 1))
    letters = []
    eps = _eps(n)
    for i in range(k):
        mm = m + 2 * i
        if p % 2 == 0:
            letters += [build_reversal(n, mm, p + 2), build_reversal(n, mm + 2, p), eps[mm]]
        else:
            letters += [build_reversal(n, mm, p + 1), build_reversal(n, mm + 1, p + 1)]
    return tuple(letters)


def _move_letters(n: int, m: int, p: int, d: int, asc: bool) -> tuple:
    """The unchecked letters of :func:`build_shift_word` for a move by
    d > 0, or an ascending one by 0."""
    letters = _shift2k_letters(n, m, p, d // 2)
    if asc:
        return letters
    if d % 2:
        return letters + (build_reversal(n, m + d - 1, p + 1), _eps(n)[m + d - 1])
    return letters + (build_reversal(n, m + d, p),)


@functools.lru_cache(maxsize=4096)
def _check_move(n: int, m: int, p: int, d: int, asc: bool) -> None:
    """Verify the move once per key: its letters evaluate to its target,
    and the target lies in the semigroup.  The target is built here
    only; the memo holds the keys (a cache of whole moves held 0.8 MB),
    and a failed check raises and is not recorded."""
    values = range(m + d, m + p + d + 1) if asc else range(m + p + d, m + d - 1, -1)
    elt = interval_map(n, m, values, d + 2)
    if _value(_move_letters(n, m, p, d, asc), n) != elt.raw:
        raise FactorizationError("interval move word does not evaluate to its target")
    if not in_if(elt):
        raise FactorizationError("interval move target leaves the semigroup")


def build_shift_word(n: int, m: int, p: int, d: int, asc: bool) -> tuple:
    """The high-rank letters of the interval move of [m, m+p] onto
    [m+d, m+p+d], ascending or reversed.

    The letters are reversals and point-deleted identities, each of rank
    >= n-2 and its own inverse: shifts by 2 up to d, then for a reversed
    move one reversal onto the target (with one more deleted point at
    odd d).  So the reversed letters evaluate to the target's inverse.
    That the letters multiply to the target, and the target is a member,
    is verified once per distinct move by :func:`_check_move`.  A
    reversed move by 0 is the in-place reversal, its own one letter.  An
    ascending move needs even d, a reversed one a span p of d's parity.
    """
    if m < 1 or p < 0 or d < 0 or m + p + d > n:
        raise BadIndexError(f"need 1 <= m, 0 <= p, 0 <= d, m+p+d <= n (m={m}, p={p}, d={d})")
    if asc and d % 2:
        raise BadIndexError(f"an ascending move needs an even displacement, got d={d}")
    if not asc and d == 0:
        return (build_reversal(n, m, p),)
    _check_move(n, m, p, d, asc)
    return _move_letters(n, m, p, d, asc)


# --- parity normalization ----------------------------------------------------


def _mismatches(img: bytes):
    """The domain points whose image differs from them mod 2, ascending."""
    return [x for x, v in enumerate(img, 1) if v and (x - v) % 2]


@functools.lru_cache(maxsize=1024)
def _rotation(n: int, a: int, left: bool) -> tuple:
    """A parity-repair rotation and its inverse, each passed once through
    the letter gate: (``_eta_left(n, a)``, ``_eta_right(n, a)``) to apply
    on the left, the pair swapped on the right."""
    pair = checked_letter(genfam._eta_left(n, a)), checked_letter(genfam._eta_right(n, a))
    return pair if left else pair[::-1]


def _parity_repair(a: PartialInjection):
    """Multiply a member of the semigroup by rank n-2 rotations until
    every point matches its image mod 2.

    Returns (left_inv, right_inv, core): the letters of the rotation
    words' inverses and the core's bytes image, with
    a = eval(left_inv) * core * eval(right_inv).  A mismatched point is
    always an isolated domain point (its neighbours cannot be in the
    domain), so each rotation repairs exactly one mismatch; even points
    are repaired on the left first, then odd points on the right.  Each
    rotation comes with its inverse from :func:`_rotation`, and the
    invertibility check folds the inverses back onto the core.  Every
    product is a :func:`_value` fold.
    """
    n = a.n
    core = a
    left_inv: list = []
    right_inv: list = []
    mism = _mismatches(a.raw)
    for _ in range(n + 1):
        if not mism:
            break
        evens = [x for x in mism if x % 2 == 0]
        if evens:
            eta, inv = _rotation(n, evens[0], True)
            new = _value((eta, core), n)
            left_inv.append(inv)
        else:
            eta, inv = _rotation(n, core.raw[mism[0] - 1], False)
            new = _value((core, eta), n)
            right_inv.insert(0, inv)
        new_mism = _mismatches(new)
        if new.count(0) != core.raw.count(0) or len(new_mism) != len(mism) - 1:
            raise FactorizationError("parity repair did not reduce the mismatch count")
        core, mism = PartialInjection(n, new), new_mism
    else:
        raise FactorizationError("parity repair did not converge")

    if _value((*left_inv, core, *right_inv), n) != a.raw:
        raise FactorizationError("parity repair is not invertible on this element")
    return tuple(left_inv), tuple(right_inv), core.raw


# --- block stage form --------------------------------------------------------


class _Block(NamedTuple):
    r: int  # domain interval [r, s]
    s: int
    t: int  # image interval [t, u]
    u: int
    asc: bool


# the C-level tuple constructor: _Block(...) would run the namedtuple's
# Python __new__ once per block
_new_block = functools.partial(tuple.__new__, _Block)


def _stage(blocks: list, lead: int) -> tuple:
    """(i, low) of the blocks, given that the first ``lead`` are fixed
    pointwise.

    The lead first runs on over every further fixed block.  The stage is
    the latest one, at most one past that lead, whose remaining images
    all lie above the blocks before it.  A fixed block the stage moves
    back over ends at or above the least image, and its image (its own
    points) is disjoint from that one, so it lies wholly above: ``low``
    stands."""
    nb = len(blocks)
    while lead < nb and blocks[lead].r == blocks[lead].t and blocks[lead].asc:
        lead += 1
    if lead == nb:
        return nb + 1, nb
    low = lead
    for l in range(lead + 1, nb):
        if blocks[l].t < blocks[low].t:
            low = l
    i = lead + 1
    t = blocks[low].t
    while i > 1 and blocks[i - 2].s >= t:
        i -= 1
    return i, low


@dataclass
class BlockForm:
    """Stage data for the block-fixing pipeline.

    ``blocks`` lists the domain runs with their image intervals and
    directions; blocks before stage ``i`` (1-based) are pointwise fixed
    and lie below every remaining image.  ``low`` is the 0-based index of
    the remaining block with the least image, ``len(blocks)`` once every
    block is fixed.  Every leading fixed block is counted into the stage,
    and the stage moves back only onto an unaligned form, so the current
    block of an aligned form is never fixed.  ``dom_mask`` and
    ``im_mask`` hold the domain and the image, bit x-1 for point x, as
    the scan found them or a step's closed form
    (:func:`_predicted_form`) carried them over.
    """

    elt: PartialInjection
    blocks: list = field(default_factory=list)
    i: int = 1
    low: int = 0
    dom_mask: int = 0
    im_mask: int = 0

    @classmethod
    def from_pinj(cls, a: PartialInjection) -> "BlockForm":
        """The form of a member of the semigroup, from one scan of its image
        for parity, domain runs and the monotone-interval test, which
        also decides membership.

        Say every point is congruent to its image mod 2 and every block
        (maximal domain run) maps onto an interval with step +1 or -1.
        Two adjacent domain points lie in one block, so their images are
        adjacent and the odd point, matching its image's parity, maps to
        the odd image: the map preserves the fence.  Two adjacent image
        points from one block have adjacent preimages of their own
        parities, so the inverse preserves the fence on them; two from
        different blocks never do, for points of different blocks are
        never adjacent.  Such a form therefore lies in IF_n exactly when
        no two image intervals touch or overlap, an O(#blocks) test on
        an image bitmask; this is the characterization that
        :func:`~fencemonoid.enumeration.place_blocks` builds IF_n from.
        When the scan fails, :func:`~fencemonoid.fence.in_if` decides
        membership, so the errors come in the order: not in the
        semigroup, then parity, then shape.
        """
        blocks = []
        unnormalized = malformed = False
        r = first = last = step = 0  # the open run's start, end images and step
        for x, v in enumerate(a.raw + b"\0", 1):  # the trailing 0 ends the last run
            if not v:
                if r:
                    t, u = (first, last) if step >= 0 else (last, first)
                    blocks.append(_new_block((r, x - 1, t, u, step >= 0)))
                    r = 0
                continue
            if (x - v) % 2:
                unnormalized = True
            if not r:
                r, first, last, step = x, v, v, 0
                continue
            if not step:
                step = v - last
            if v - last != step or step not in (1, -1):
                malformed = True
            last = v
        if unnormalized or malformed:
            if not in_if(a):
                raise MalformedBlockFormError(f"{a.encode()} is not in the semigroup")
            if unnormalized:
                raise MalformedBlockFormError("element is not parity-normalized")
            raise MalformedBlockFormError("block image is not a monotone interval")
        image = domain = 0  # the intervals so far, bit v for point v
        for b in blocks:
            span = (2 << b.u) - (1 << b.t)
            if image & (span << 1 | span | span >> 1):
                raise MalformedBlockFormError(f"{a.encode()} is not in the semigroup")
            image |= span
            domain |= (2 << b.s) - (1 << b.r)
        return cls(a, blocks, *_stage(blocks, 0), domain >> 1, image >> 1)

    @property
    def all_fixed(self):
        return self.i > len(self.blocks)

    @property
    def aligned(self):
        return self.low == self.i - 1


# --- block alignment and pinning ----------------------------------------------


def _case_next_block(bf: BlockForm, idx: int):
    """Build the two-step repair when the minimal image belongs to the
    block right after the current one and no boundary case applies."""
    n = bf.elt.n
    cur = bf.blocks[idx]
    nxt = bf.blocks[idx + 1]
    if cur.r != nxt.t:
        raise FactorizationError("adjacent-block repair: domain/image corner mismatch")
    if (nxt.r - nxt.s) % 2 == 0:
        raise FactorizationError("adjacent-block repair: unexpected span parity")
    if nxt.r >= 3 and (bf.dom_mask >> (nxt.r - 3)) & 1:
        raise FactorizationError("adjacent-block repair: blocked below next block")
    eta1 = build_reversal(n, cur.r, nxt.s - 1 - cur.r)
    return (eta1, *build_shift_word(n, nxt.r - 1, nxt.s - nxt.r, 1, False))


def _covering_span(n: int, mask: int, lo: int, hi: int):
    """The interval a reversal covering [lo, hi] reverses: [lo, hi]
    itself when its span is even, else [lo-1, hi] when lo-2 is outside
    ``mask``, else [lo, hi+1] when hi+2 is; None when neither end can
    widen."""
    outside = lambda x: x < 1 or not (mask >> (x - 1)) & 1
    if (hi - lo) % 2 == 0:
        return lo, hi
    if lo >= 2 and outside(lo - 2):
        return lo - 1, hi
    if hi < n and outside(hi + 2):
        return lo, hi + 1
    return None


def _covering_reversal(n: int, mask: int, lo: int, hi: int):
    """The reversal of :func:`_covering_span`, or None."""
    span = _covering_span(n, mask, lo, hi)
    return span and build_reversal(n, span[0], span[1] - span[0])


def _align_dispatch(bf: BlockForm):
    """One alignment step on an unaligned form: (left, right) letters,
    applied as eval(left) * elt * eval(right), that make the current
    block's image the least among the remaining ones.

    Dispatch tries the covering reversal of [r, s'] on the domain side,
    then of [t', u] on the image side (r and u of the current block, s'
    and t' of the one with the least image), then the adjacent-block
    repair, first match wins; when the minimal image belongs to a
    farther block, a reshaping reversal brings it adjacent first, so the
    dispatch on the reshaped form ends in a reversal case or the
    adjacent-block repair.
    """
    n = bf.elt.n
    idx = bf.i - 1
    cur, least = bf.blocks[idx], bf.blocks[bf.low]
    rev = _covering_reversal(n, bf.dom_mask, cur.r, least.s)
    if rev is not None:
        return (rev,), ()
    rev = _covering_reversal(n, bf.im_mask, least.t, cur.u)
    if rev is not None:
        return (), (rev,)

    if bf.low == idx + 1:
        return _case_next_block(bf, idx), ()

    # minimal image sits further away: reshape so it lands on the next
    # block, then dispatch again on the reshaped element
    r_next = bf.blocks[idx + 1].r
    if (r_next - least.s) % 2 == 0:
        tau = build_reversal(n, r_next, least.s - r_next)
    else:
        if (bf.dom_mask >> (r_next - 3)) & 1:
            raise FactorizationError("far-block repair: blocked below next block")
        tau = build_reversal(n, r_next - 1, least.s - r_next + 1)
    reshaped = PartialInjection(n, _value((tau, bf.elt), n))
    if reshaped.rank != bf.elt.rank:
        raise FactorizationError("far-block repair lost domain points")
    bf2 = BlockForm.from_pinj(reshaped)
    if bf2.i != bf.i or bf2.low != idx + 1:
        raise FactorizationError("far-block repair did not reduce to the adjacent case")
    lhs, rhs = _align_dispatch(bf2)
    return lhs + (tau,), rhs


def _pin(bf: BlockForm):
    """The move that pins the aligned current block [r, s] -> [t, u]
    down pointwise: (letters, on_left).

    With d = r - t, the move takes the image block onto the domain block
    and acts on the left when d > 0, or d = 0 on a descending block;
    otherwise it takes the domain block onto the image and acts on the
    right, as its inverse.  Either way it is the interval move by |d|,
    ascending or reversed as the block is (a parity-normalized ascending
    block has even d).  Its letters have rank >= n-2.
    """
    blk = bf.blocks[bf.i - 1]
    on_left = _pins_left(blk)
    m, p = (blk.t, blk.u - blk.t) if on_left else (blk.r, blk.s - blk.r)
    return build_shift_word(bf.elt.n, m, p, abs(blk.r - blk.t), blk.asc), on_left


def _pins_left(blk: _Block) -> bool:
    """Whether the pin of ``blk`` acts on the left: its domain lies above
    its image, or level with it, descending."""
    return blk.r > blk.t or (blk.r == blk.t and not blk.asc)


# --- top-level factorization --------------------------------------------------


# identity images and undefined ones, sliced for the windows of the
# predicted steps
_ID = bytes(range(MAX_N + 1))
_ZERO = bytes(MAX_N)


def _predicted_form(bf: BlockForm, new: bytes):
    """The form of a step's product ``new`` in closed form, or None.

    Two step kinds change one window of the core's image and leave the
    rest as it is.  A pin of the aligned block [r, s] -> [t, u] on the
    left sends [t, u] onto itself and clears the rest of [t-1, s+1]; one
    on the right sends [r, s] onto itself.  The domain-side covering
    reversal of [lo, hi] reverses that slice and clears lo-1 and hi+1,
    mirroring the blocks inside: [r, s] -> [t, u] becomes
    [lo+hi-s, lo+hi-r] -> [t, u], in the other direction unless it is a
    single point.  The prediction is read from the form alone.  It is
    taken when ``new`` is the predicted image, the window lies above the
    fixed prefix (which ``new`` then keeps), and each changed block
    keeps parity and an image interval clear of the others; the form is
    then the one ``BlockForm.from_pinj`` finds for ``new``.  Any other
    step or product gives None.  A mask of [lo, hi] is
    ``(1 << hi) - (1 << lo - 1)``, bit x-1 for point x.
    """
    elt, blocks, idx = bf.elt, bf.blocks, bf.i - 1
    n, old, im = elt.n, elt.raw, bf.im_mask
    nxt = blocks.copy()
    if bf.low == idx:  # aligned: a pin
        r, s, t, u, _ = cur = blocks[idx]
        cleared = (1 << s) - (1 << r - 1)  # the block's domain
        if _pins_left(cur):
            lo, hi = max(t - 1, 1), min(s + 1, n)
            window = _ZERO[: t - lo] + _ID[t : u + 1] + _ZERO[: hi - u]
        else:
            lo, hi = r, s
            window = _ID[r : s + 1]
            im = im & ~((1 << u) - (1 << t - 1)) | cleared
            t, u = r, s
        nxt[idx] = _new_block((t, u, t, u, True))
        changed = nxt[idx : idx + 1]
        lead = idx + 1
    else:
        span = _covering_span(n, bf.dom_mask, blocks[idx].r, blocks[bf.low].s)
        if span is None:
            return None
        a, b = span
        lo, hi = max(a - 1, 1), min(b + 1, n)
        window = _ZERO[: a - lo] + old[a - 1 : b][::-1] + _ZERO[: hi - b]
        cleared = (1 << b) - (1 << a - 1)
        changed = nxt[idx : bf.low + 1] = [
            _new_block((a + b - x.s, a + b - x.r, x.t, x.u, x.asc != (x.r < x.s)))
            for x in reversed(blocks[idx : bf.low + 1])
        ]
        lead = idx
    if new != old[: lo - 1] + window + old[hi:] or (idx and blocks[idx - 1].s >= lo):
        return None
    dom = bf.dom_mask & ~cleared
    for r, s, t, u, asc in changed:
        own = (1 << u) - (1 << t - 1)
        if (r - (t if asc else u)) % 2 or im & ~own & (own << 1 | own | own >> 1):
            return None
        dom |= (1 << s) - (1 << r - 1)
    return BlockForm(PartialInjection(n, new), nxt, *_stage(nxt, lead), dom, im)


def _next_form(bf: BlockForm, lhs, rhs) -> BlockForm:
    """The form of eval(lhs) * core * eval(rhs), for one step on the core
    of ``bf``.

    The letters are folded as they are, and the product must keep the
    core's rank.  A pin or domain-side covering reversal whose product is
    the predicted one gets its form in closed form
    (:func:`_predicted_form`).  Any other product must leave the fixed
    prefix as it was, and its form comes from ``BlockForm.from_pinj``,
    which checks membership and parity normalization."""
    core = bf.elt
    new = _value((*lhs, core, *rhs), core.n)
    if new.count(0) != core.raw.count(0):
        raise FactorizationError("pipeline step lost domain points")
    form = _predicted_form(bf, new)
    if form is not None:
        return form
    for b in bf.blocks[: bf.i - 1]:
        if new[b.r - 1 : b.s] != core.raw[b.r - 1 : b.s]:
            raise FactorizationError("pipeline step disturbed the fixed prefix")
    return BlockForm.from_pinj(PartialInjection(core.n, new))


def _step(bf: BlockForm):
    """One pipeline step on a form with a block left to fix: (lhs, rhs),
    letters applied to the core as eval(lhs) * core * eval(rhs).  An
    unaligned form is aligned, an aligned one pinned; a right-side pin
    applies the move's letters reversed, which evaluate to its target's
    inverse.  Every letter is its own inverse, so each word reversed is
    the step's inverse word."""
    if not bf.aligned:
        return _align_dispatch(bf)
    letters, on_left = _pin(bf)
    return (letters, ()) if on_left else ((), letters[::-1])


def _constructive(a: PartialInjection) -> Word:
    """The block pipeline for any member of the semigroup; a high-rank
    one comes out as a word of letters from the identity table."""
    n = a.n
    left_inv, right_inv, img = _parity_repair(a)
    head = [left_inv]  # the assembled word's chunks before the residual
    tail = [right_inv]  # and after it, last chunk first
    core = a if img == a.raw else PartialInjection(n, img)
    bf = BlockForm.from_pinj(core)
    for _ in range(2 * n + 4):
        if bf.all_fixed:
            break
        aligning = not bf.aligned
        lhs, rhs = _step(bf)
        head.append(lhs[::-1])
        tail.append(rhs[::-1])
        bf2 = _next_form(bf, lhs, rhs)
        # an alignment step may incidentally fix its block, advancing the
        # stage outright; otherwise it must leave the stage aligned
        if aligning and not (bf2.i > bf.i or bf2.aligned):
            raise FactorizationError("alignment step failed to align")
        if not aligning and not (bf2.i > bf.i or bf2.all_fixed):
            raise FactorizationError("fixing step failed to extend the prefix")
        bf = bf2
    else:
        raise FactorizationError("block pipeline did not converge")

    core = bf.elt
    eps = _eps_letters(n, [x for x, v in enumerate(core.raw, 1) if not v])
    if _value(eps, n) != core.raw:
        raise FactorizationError("residual core is not a partial identity")

    # the eps letters multiply to the core, as just checked, so by
    # associativity the assembled word is checked with the core in their
    # place
    before = tuple(itertools.chain(*head))
    after = tuple(itertools.chain(*reversed(tail)))
    if _value((*before, core, *after), n) != a.raw:
        raise FactorizationError("assembled word does not evaluate to the input")
    return Word(n, (*before, *eps, *after), provenance="constructive")


def factorize_j(a: PartialInjection) -> Word:
    """Factor any element into letters of rank >= n-2.

    A high-rank input is its own one-letter word, held as a plain
    element, so a named :class:`~fencemonoid.genfam.Letter` prints as
    the element it equals and the word's text depends on the element
    alone.  Everything else runs the constructive pipeline, whose failed
    postcondition raises :class:`FactorizationError`,
    :class:`MalformedBlockFormError` or
    :class:`~fencemonoid.genfam.BadIndexError`: a defect of the pipeline,
    never a word from another method.  ``fallback`` is always false.
    """
    require_if(a)
    n = a.n
    if a.rank >= n - 2:
        letter = a if a.__class__ is PartialInjection else PartialInjection(n, a.raw)
        return Word(n, (letter,), provenance="letter")
    return _constructive(a)


@functools.lru_cache(maxsize=1024)
def _g_base(a: PartialInjection) -> tuple:
    """The letters :func:`factorize_g` expands for a high-rank input:
    ``a`` itself when the identity table holds it, else the letters of
    :func:`_constructive`.  Memoised per element, as the words of
    :func:`~fencemonoid.genfam.g_word_for` are."""
    if genfam._table_word(a.n, a) is not None:
        return (a,)
    return _constructive(a).letters


def factorize_g(a: PartialInjection) -> Word:
    """Factor an element over set_g (even ambient size only).

    Runs :func:`factorize_j`, then expands each high-rank letter through
    its closed-form word (:func:`~fencemonoid.genfam.g_word_for`).  A
    high-rank input outside the identity table, whose J word is itself,
    is expanded through the letters of :func:`_constructive` instead
    (:func:`_g_base`).  A letter without a closed-form word raises
    :class:`FactorizationError`; ``bfs_letters`` is always 0, as no
    letter is searched for.
    """
    n = a.n
    if n % 2:
        require_if(a)  # a non-member is refused as such at any n
        raise OddAmbientError(f"set_g factorization needs even n, got {n}")
    base = factorize_j(a)  # checks membership
    letters: list = []
    for letter in _g_base(a) if base.provenance == "letter" else base.letters:
        letters.extend(genfam.g_word_for(n, letter).letters)
    word = Word(n, tuple(letters), provenance="g-expansion")
    if _value(word.letters, n) != a.raw:
        raise FactorizationError("generator expansion does not evaluate to the input")
    return word
