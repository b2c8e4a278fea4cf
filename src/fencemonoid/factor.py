"""Constructive factorization into high-rank letters.

Every two-way fence-preserving map factors into elements of rank at
least n-2.  The pipeline mirrors the constructive argument: first
repair parity (every domain point made congruent to its image mod 2)
by near-identity rotations, then repeatedly align the lowest remaining
image block and pin it down with interval shifts and reversal-shifts,
until a partial identity remains; conjugating back by the inverted
repair words yields the factorization.  Each step's postcondition is
checked at runtime; any violation routes the element to a breadth-first
fallback over the rank >= n-2 generators, and the produced word records
which path was taken.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import genfam, greens
from .enumeration import closure, require_floor_within_limit
from .fence import in_if, require_if
from .genfam import GeneratorSpec, OddAmbientError, interval_map
from .pinj import OutOfRangeError, PartialInjection, SizeMismatchError, multiplier


class BadIndicesError(ValueError):
    pass


class KindMismatchError(ValueError):
    pass


class MalformedBlockFormError(ValueError):
    pass


class FactorizationError(RuntimeError):
    """Internal postcondition failure; triggers the BFS fallback."""


# --- words ------------------------------------------------------------------


def _resolve(letter, n: int) -> PartialInjection:
    if isinstance(letter, GeneratorSpec):
        return genfam.named(n, letter)
    return letter


def _invert_letter(letter):
    if isinstance(letter, GeneratorSpec):
        if letter.family == "sig1":
            return GeneratorSpec("sig2")
        if letter.family == "sig2":
            return GeneratorSpec("sig1")
        return letter  # id, eps, gam, del, beta are involutions
    return letter.inverse()


@dataclass(frozen=True)
class Word:
    """A sequence of letters (generator specs or explicit maps) with an
    evaluation contract: the product is taken left to right, and the
    empty word denotes the identity."""

    n: int
    letters: tuple = ()
    provenance: str = "direct"
    fallback: bool = False
    bfs_letters: int = 0

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(
            self.n,
            tuple(_invert_letter(l) for l in reversed(self.letters)),
            provenance=self.provenance,
            fallback=self.fallback,
        )

    def text(self) -> str:
        parts = []
        for l in self.letters:
            if isinstance(l, GeneratorSpec):
                parts.append(l.text())
            else:
                head, _, body = l.encode().partition(":")
                parts.append(body)
        return " ".join([f"w{self.n}:"] + parts)


def eval_word(word: Word) -> PartialInjection:
    """The product of the letters, folded over img tuples with the
    :func:`~fencemonoid.pinj.multiplier` kernel; one element is built at
    the end.  An explicit letter of another ambient size raises
    :class:`SizeMismatchError`, as the element product does."""
    n = word.n
    acc = tuple(range(1, n + 1))
    named = genfam.named
    for letter in word.letters:
        elt = named(n, letter) if isinstance(letter, GeneratorSpec) else letter
        if elt.n != n:
            raise SizeMismatchError(f"ambient sizes differ: {n} != {elt.n}")
        acc = multiplier(acc)((0,) + elt.img)
    return PartialInjection(n, acc)


def parse_word(text: str) -> Word:
    """Inverse of :meth:`Word.text`; raw letters are bracketed and may
    contain spaces, so tokenization is bracket-aware."""
    from . import pinj

    text = text.strip()
    head, _, rest = text.partition(":")
    if not head.startswith("w"):
        raise ValueError(f"bad word literal: {text!r}")
    n = int(head[1:])
    letters = []
    tokens = rest.split()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("["):
            while not tok.endswith("]"):
                i += 1
                if i == len(tokens):
                    raise ValueError(f"bad word literal: {text!r}")
                tok += " " + tokens[i]
            letters.append(pinj.parse(f"n={n}:{tok}"))
        else:
            letters.append(GeneratorSpec.parse(tok))
        i += 1
    return Word(n, tuple(letters))


# --- interval-move builders ---------------------------------------------------


def _rev_elt(n: int, m: int, p: int) -> PartialInjection:
    """Reverse [m, m+p] in place (p even), drop m-1 and m+p+1, fix the rest."""
    return interval_map(n, m, range(m + p, m - 1, -1))


@functools.lru_cache(maxsize=4096)
def build_reversal(n: int, m: int, p: int):
    """The in-place interval reversal: a single rank >= n-2 letter, self-inverse.

    A pure function of (n, m, p), memoised, so its membership and rank
    checks run once per distinct reversal; bad indices are not cached
    and raise on every call."""
    if m < 1 or p < 0 or m + p > n:
        raise BadIndicesError(f"need 1 <= m, 0 <= p, m+p <= n; got m={m}, p={p}, n={n}")
    if p % 2:
        raise BadIndicesError(f"reversal needs an even interval span, got p={p}")
    elt = _rev_elt(n, m, p)
    if not (in_if(elt) and elt.rank >= n - 2):
        raise FactorizationError("reversal is not a high-rank element of the semigroup")
    return elt, Word(n, (elt,), provenance="constructive")


def _eps_letters(n, points):
    return tuple(GeneratorSpec("eps", i) for i in points if 1 <= i <= n)


def _shift2k_letters(n, m, p, k):
    if k == 0:
        return _eps_letters(n, (m - 1, m + p + 1))
    letters = []
    for i in range(k):
        mm = m + 2 * i
        if p % 2 == 0:
            b1, _ = build_reversal(n, mm, p + 2)
            b2, _ = build_reversal(n, mm + 2, p)
            letters += [b1, b2, GeneratorSpec("eps", mm)]
        else:
            b3, _ = build_reversal(n, mm, p + 1)
            b4, _ = build_reversal(n, mm + 1, p + 1)
            letters += [b3, b4]
    return tuple(letters)


def _revshift_letters(n, m, p):
    b1, _ = build_reversal(n, m, p + 1)
    return (b1, GeneratorSpec("eps", m))


def build_shift_word(n: int, kind: str, m: int, p: int, k: int | None = None):
    """Interval shifts and reversal-shifts, with their high-rank words.

    Kinds: ``shift2`` ([m, m+p] up by 2), ``shift2k`` (up by 2k),
    ``revshift`` (reverse onto [m+1, m+p+1]), ``revshift2k`` (reverse
    onto [m+2k-1, m+p+2k-1], p odd), ``revshifteven`` (reverse onto
    [m+2k, m+p+2k], p even).  Returns (element, word); the word's
    letters are reversals and point-deleted identities, each of rank
    >= n-2, and evaluation is verified before returning.
    """
    if m < 1 or p < 0:
        raise BadIndicesError(f"need m >= 1 and p >= 0, got m={m}, p={p}")
    kind = kind.lower()
    if kind == "shift2":
        kind, k = "shift2k", 1
    elif kind == "revshift":
        kind, k = "revshift2k", 1

    if kind == "shift2k":
        if k is None or k < 0 or m + p + 2 * k > n:
            raise BadIndicesError(f"shift needs 0 <= k and m+p+2k <= n (m={m}, p={p}, k={k})")
        elt = interval_map(n, m, range(m + 2 * k, m + p + 2 * k + 1), 2 * k + 2)
        letters = _shift2k_letters(n, m, p, k)
    elif kind == "revshift2k":
        if p % 2 == 0:
            raise KindMismatchError(f"reversal-shift needs odd span, got p={p}")
        if k is None or k < 1 or m + p + 2 * k - 1 > n:
            raise BadIndicesError(
                f"reversal-shift needs 1 <= k and m+p+2k-1 <= n (m={m}, p={p}, k={k})"
            )
        elt = interval_map(n, m, range(m + p + 2 * k - 1, m + 2 * k - 2, -1), 2 * k + 1)
        letters = _shift2k_letters(n, m, p, k - 1) + _revshift_letters(n, m + 2 * k - 2, p)
    elif kind == "revshifteven":
        if p % 2:
            raise KindMismatchError(f"even reversal-shift needs even span, got p={p}")
        if k is None or k < 0 or m + p + 2 * k > n:
            raise BadIndicesError(
                f"even reversal-shift needs 0 <= k and m+p+2k <= n (m={m}, p={p}, k={k})"
            )
        if k == 0:
            return build_reversal(n, m, p)
        elt = interval_map(n, m, range(m + p + 2 * k, m + 2 * k - 1, -1), 2 * k + 2)
        rev, _ = build_reversal(n, m + 2 * k, p)
        letters = _shift2k_letters(n, m, p, k) + (rev,)
    else:
        raise KindMismatchError(f"unknown kind {kind!r}")

    word = Word(n, letters, provenance="constructive")
    if eval_word(word) != elt:
        raise FactorizationError(f"{kind} word does not evaluate to its target")
    if not in_if(elt):
        raise FactorizationError(f"{kind} target leaves the semigroup")
    return elt, word


def partial_identity_word(n: int, points) -> Word:
    """Word of point-deleted identities evaluating to id on {1..n} minus Y."""
    pts = sorted(set(points))
    if pts and not (1 <= pts[0] and pts[-1] <= n):
        raise OutOfRangeError(f"subset must lie in 1..{n}")
    return Word(n, _eps_letters(n, pts), provenance="direct")


# --- parity normalization ----------------------------------------------------


def _mismatches(a: PartialInjection):
    return [x for x in a.domain() if (x - a.img[x - 1]) % 2]


def parity_normalize(a: PartialInjection):
    """Multiply by rank n-2 rotations until every point matches its image mod 2.

    Returns (left, right, core) with core = eval(left) * a * eval(right)
    and a = eval(left)^-1 * core * eval(right)^-1.  A mismatched point is
    always an isolated domain point (its neighbours cannot be in the
    domain), so each rotation repairs exactly one mismatch; even points
    are repaired on the left first, then odd points on the right.
    """
    require_if(a)
    n = a.n
    core = a
    left: list = []
    right: list = []
    for _ in range(n + 1):
        mism = _mismatches(core)
        if not mism:
            break
        evens = [x for x in mism if x % 2 == 0]
        if evens:
            eta = genfam._eta_left(n, min(evens))
            new = eta * core
            left.insert(0, eta)
        else:
            c = core.img[min(mism) - 1]
            eta = genfam._eta_right(n, c)
            new = core * eta
            right.append(eta)
        if new.rank != core.rank or len(_mismatches(new)) != len(mism) - 1:
            raise FactorizationError("parity repair did not reduce the mismatch count")
        core = new
    else:
        raise FactorizationError("parity repair did not converge")

    lw = Word(n, tuple(left), provenance="constructive")
    rw = Word(n, tuple(right), provenance="constructive")
    if eval_word(lw.inverse()) * core * eval_word(rw.inverse()) != a:
        raise FactorizationError("parity repair is not invertible on this element")
    return lw, rw, core


# --- block stage form --------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    r: int  # domain interval [r, s]
    s: int
    t: int  # image interval [t, u]
    u: int
    asc: bool

    @property
    def fixed(self):
        return self.asc and self.t == self.r


@dataclass
class BlockForm:
    """Stage data for the block-fixing pipeline.

    ``blocks`` lists the domain runs with their image intervals and
    directions; blocks before stage ``i`` (1-based) are pointwise fixed
    and lie below every remaining image.
    """

    elt: PartialInjection
    blocks: list = field(default_factory=list)
    i: int = 1

    @classmethod
    def from_pinj(cls, a: PartialInjection) -> "BlockForm":
        if not in_if(a):
            raise MalformedBlockFormError(f"{a.encode()} is not in the semigroup")
        if _mismatches(a):
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
            blocks.append(_Block(r, r + length - 1, lo, hi, asc))

        fixed_lead = 0
        while fixed_lead < len(blocks) and blocks[fixed_lead].fixed:
            fixed_lead += 1
        stage = 1
        for cand in range(fixed_lead + 1, 0, -1):
            prefix_end = blocks[cand - 2].s if cand >= 2 else 0
            if all(b.t > prefix_end for b in blocks[cand - 1 :]):
                stage = cand
                break
        return cls(a, blocks, stage)

    @property
    def all_fixed(self):
        return self.i > len(self.blocks)

    def min_image_pos(self) -> int:
        """0-based index of the remaining block with the least image."""
        idx = self.i - 1
        return min(range(idx, len(self.blocks)), key=lambda l: self.blocks[l].t)

    @property
    def aligned(self):
        return self.all_fixed or self.min_image_pos() == self.i - 1


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
    dom_mask = bf.elt.dom_mask()
    if nxt.r >= 3 and (dom_mask >> (nxt.r - 3)) & 1:
        raise FactorizationError("adjacent-block repair: blocked below next block")
    eta1 = _rev_elt(n, cur.r, nxt.s - 1 - cur.r)
    _, eta2 = build_shift_word(n, "revshift", nxt.r - 1, nxt.s - nxt.r)
    return (eta1,) + eta2.letters


def _align_dispatch(bf: BlockForm, depth: int):
    """Case dispatch for one alignment step; returns (left, right) letters."""
    n = bf.elt.n
    idx = bf.i - 1
    k0 = bf.min_image_pos()
    if k0 == idx:
        return (), ()

    dom_mask = bf.elt.dom_mask()
    im_mask = bf.elt.im_mask()
    in_dom = lambda x: 1 <= x <= n and (dom_mask >> (x - 1)) & 1
    in_im = lambda x: 1 <= x <= n and (im_mask >> (x - 1)) & 1
    r_i = bf.blocks[idx].r
    u_i = bf.blocks[idx].u
    s_k = bf.blocks[k0].s
    t_k = bf.blocks[k0].t

    if (r_i - s_k) % 2 == 0:
        return (_rev_elt(n, r_i, s_k - r_i),), ()
    if r_i >= 2 and not in_dom(r_i - 2):
        return (_rev_elt(n, r_i - 1, s_k - r_i + 1),), ()
    if s_k + 1 <= n and not in_dom(s_k + 2):
        return (_rev_elt(n, r_i, s_k + 1 - r_i),), ()
    if (u_i - t_k) % 2 == 0:
        return (), (_rev_elt(n, t_k, u_i - t_k),)
    if t_k >= 2 and not in_im(t_k - 2):
        return (), (_rev_elt(n, t_k - 1, u_i - t_k + 1),)
    if u_i + 1 <= n and not in_im(u_i + 2):
        return (), (_rev_elt(n, t_k, u_i + 1 - t_k),)

    if k0 == idx + 1:
        return _case_next_block(bf, idx), ()

    # minimal image sits further away: reshape so it lands on the next
    # block, then dispatch again on the reshaped element
    if depth > 0:
        raise FactorizationError("far-block repair recursed")
    r_next = bf.blocks[idx + 1].r
    if (r_next - s_k) % 2 == 0:
        tau = _rev_elt(n, r_next, s_k - r_next)
    else:
        if in_dom(r_next - 2):
            raise FactorizationError("far-block repair: blocked below next block")
        tau = _rev_elt(n, r_next - 1, s_k - r_next + 1)
    reshaped = tau * bf.elt
    if reshaped.rank != bf.elt.rank:
        raise FactorizationError("far-block repair lost domain points")
    bf2 = BlockForm.from_pinj(reshaped)
    if bf2.i != bf.i or bf2.min_image_pos() != idx + 1:
        raise FactorizationError("far-block repair did not reduce to the adjacent case")
    lhs, rhs = _align_dispatch(bf2, depth + 1)
    return lhs + (tau,), rhs


def align_first_block(bf: BlockForm):
    """Make the current block's image the least among the remaining ones.

    Returns (w1, w2) to be applied as eval(w1) * elt * eval(w2); both
    words invert letterwise.  Dispatch tries the domain-side reversals,
    then the image-side reversals, then the adjacent-block repair,
    first match wins; when the minimal image belongs to a farther
    block, a reshaping reversal brings it adjacent first.
    """
    n = bf.elt.n
    lhs, rhs = ((), ()) if bf.all_fixed else _align_dispatch(bf, 0)
    return Word(n, lhs, provenance="constructive"), Word(n, rhs, provenance="constructive")


def fix_first_block(bf: BlockForm):
    """Pin the aligned block down pointwise with a shift / reversal-shift.

    The repair acts on the left when the block sits at or above its
    image and on the right otherwise; its word letters all have rank
    >= n-2.
    """
    n = bf.elt.n
    empty = Word(n, (), provenance="constructive")
    if bf.all_fixed:
        return empty, empty
    if not bf.aligned:
        raise MalformedBlockFormError("block image is not aligned yet")
    blk = bf.blocks[bf.i - 1]
    if blk.fixed:
        return empty, empty
    d = blk.r - blk.t
    if blk.asc:
        if d > 0:
            _, w = build_shift_word(n, "shift2k", blk.t, blk.u - blk.t, d // 2)
            return w, empty
        _, w = build_shift_word(n, "shift2k", blk.r, blk.s - blk.r, -d // 2)
        return empty, w.inverse()
    if d >= 0:
        if d == 0:
            _, w = build_reversal(n, blk.t, blk.u - blk.t)
        elif d % 2:
            _, w = build_shift_word(n, "revshift2k", blk.t, blk.u - blk.t, (d + 1) // 2)
        else:
            _, w = build_shift_word(n, "revshifteven", blk.t, blk.u - blk.t, d // 2)
        return w, empty
    d2 = -d
    if d2 % 2:
        _, w = build_shift_word(n, "revshift2k", blk.r, blk.s - blk.r, (d2 + 1) // 2)
    else:
        _, w = build_shift_word(n, "revshifteven", blk.r, blk.s - blk.r, d2 // 2)
    return empty, w.inverse()


# --- top-level factorization --------------------------------------------------


@functools.lru_cache(maxsize=8)
def _j_closure(n: int, min_rank: int):
    require_floor_within_limit(n, min_rank)
    return closure(n, genfam.set_j(n), min_rank)


@functools.lru_cache(maxsize=4096)
def _is_high_rank_letter(elt: PartialInjection) -> bool:
    return elt.rank >= elt.n - 2 and in_if(elt)


def factorize_bfs(table, a: PartialInjection) -> Word:
    """The stored shortest discovery word of a closure table: the
    independent oracle against which the constructive path is judged."""
    letters = tuple(table.word_for(a))
    return Word(a.n, letters, provenance="bfs")


def _apply_step(core, w1, w2, prefix_points):
    """Apply one step to the core.  Membership and parity normalization
    of the result are checked by the ``BlockForm.from_pinj`` that
    :func:`_constructive` builds from it next."""
    new = eval_word(w1) * core * eval_word(w2)
    if new.rank != core.rank:
        raise FactorizationError("pipeline step lost domain points")
    for x in prefix_points:
        if new.img[x - 1] != x:
            raise FactorizationError("pipeline step disturbed the fixed prefix")
    return new


def _constructive(a: PartialInjection) -> Word:
    n = a.n
    lw, rw, core = parity_normalize(a)
    left = list(lw.letters)
    right = list(rw.letters)
    bf = BlockForm.from_pinj(core)
    for _ in range(2 * n + 4):
        if bf.all_fixed:
            break
        prefix_points = [
            x for b in bf.blocks[: bf.i - 1] for x in range(b.r, b.s + 1)
        ]
        if not bf.aligned:
            w1, w2 = align_first_block(bf)
            bf_check = "aligned"
        else:
            w1, w2 = fix_first_block(bf)
            bf_check = "fixed"
        core = _apply_step(core, w1, w2, prefix_points)
        left = list(w1.letters) + left
        right = right + list(w2.letters)
        bf2 = BlockForm.from_pinj(core)
        # an alignment step may incidentally fix its block, advancing the
        # stage outright; otherwise it must leave the stage aligned
        if bf_check == "aligned" and not (bf2.i > bf.i or bf2.aligned):
            raise FactorizationError("alignment step failed to align")
        if bf_check == "fixed" and not (bf2.i > bf.i or bf2.all_fixed):
            raise FactorizationError("fixing step failed to extend the prefix")
        bf = bf2
    else:
        raise FactorizationError("block pipeline did not converge")

    missing = sorted(set(range(1, n + 1)) - set(core.domain()))
    eps_word = partial_identity_word(n, missing)
    if eval_word(eps_word) != core:
        raise FactorizationError("residual core is not a partial identity")

    left_inv = [_invert_letter(l) for l in reversed(left)]
    right_inv = [_invert_letter(l) for l in reversed(right)]
    letters = tuple(left_inv) + eps_word.letters + tuple(right_inv)
    word = Word(n, letters, provenance="constructive")
    if eval_word(word) != a:
        raise FactorizationError("assembled word does not evaluate to the input")
    for letter in letters:
        if not _is_high_rank_letter(_resolve(letter, n)):
            raise FactorizationError("assembled word contains a low-rank letter")
    return word


def factorize_j(a: PartialInjection) -> Word:
    """Factor any element into letters of rank >= n-2.

    High-rank inputs are their own one-letter word.  Everything else
    runs the constructive pipeline; if any internal postcondition fails
    the element is factored by breadth-first search instead and the word
    is flagged as a fallback.  That search is floored at the element's
    rank, and past the IF limit it raises :class:`TooLargeError`.
    """
    require_if(a)
    n = a.n
    if a.rank >= n - 2:
        return Word(n, (a,), provenance="letter")
    try:
        return _constructive(a)
    except (FactorizationError, MalformedBlockFormError, BadIndicesError, KindMismatchError):
        bfs = factorize_bfs(_j_closure(n, a.rank), a)
        return Word(n, bfs.letters, provenance="bfs-fallback", fallback=True)


def factorize_g(a: PartialInjection) -> Word:
    """Factor an element over set_g (even ambient size only).

    Runs :func:`factorize_j`, then expands each high-rank letter through
    the identity table or its BFS fallback; ``bfs_letters`` counts the
    letters that needed the table miss path.
    """
    n = a.n
    if n % 2:
        raise OddAmbientError(f"set_g factorization needs even n, got {n}")
    require_if(a)
    base = factorize_j(a)
    letters: list = []
    misses = 0
    for letter in base.letters:
        gw = genfam.g_word_for(n, _resolve(letter, n))
        letters.extend(gw.letters)
        misses += gw.provenance == "bfs"
    word = Word(
        n,
        tuple(letters),
        provenance="g-expansion",
        fallback=base.fallback,
        bfs_letters=misses,
    )
    if eval_word(word) != a:
        raise FactorizationError("generator expansion does not evaluate to the input")
    return word
