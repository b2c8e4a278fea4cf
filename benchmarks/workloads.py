"""Workloads of the fencemonoid benchmark: operation lists, the seeded
element generator and the reference answers every operation is checked
against.

The references are held here, not derived from the program under test:
|IF_n| is the known sequence, the distinguished generators are rebuilt
from their definitions, and factorization words are multiplied back on
``img`` tuples with the benchmark's own product.  This module imports
nothing from ``fencemonoid``, so the same checks keep working while the
program changes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("claims-n8", "oracles-small", "factor-stream")

# |IF_n| for n = 1..8
IF_SIZES = {1: 2, 2: 6, 3: 18, 4: 53, 5: 182, 6: 612, 7: 2288, 8: 8511}

# factor-stream: (target, n) kinds, equally frequent
STREAM_KINDS = (("J", 8), ("J", 16), ("J", 32), ("G", 8), ("G", 10))
STREAM_OPS = 5000

# sha256 prefix of the factor-stream inputs (see stream_digest) for
# seeds 0..9; generation fails on a mismatch, so a change to the
# generator cannot silently change what later runs measure
STREAM_DIGESTS = {
    0: "4d89794f1b71efe5",
    1: "f5fc40032f9ac86d",
    2: "b780bb250e65a61e",
    3: "96a4bcde98cca9e8",
    4: "98c90d71bfacf30b",
    5: "6b0d52f46f95caf2",
    6: "dbde10f4e95beedf",
    7: "0d6bccd29e50c610",
    8: "b8de0169a9038dee",
    9: "2aad0e449446ecd6",
}


# --- reference arithmetic on img tuples ----------------------------------------


def product(a, b):
    """Right-action product x(ab) = (xa)b of two img tuples."""
    return tuple(b[v - 1] if v else 0 for v in a)


def _preserves(img):
    for x in range(1, len(img)):
        u, v = img[x - 1], img[x]
        if u and v and (abs(u - v) != 1 or (u if x % 2 else v) % 2 == 0):
            return False
    return True


def in_if(img):
    """Both the map and its inverse preserve the up-fence 1 < 2 > 3 < ..."""
    inv = [0] * len(img)
    for x, v in enumerate(img, start=1):
        if v:
            inv[v - 1] = x
    return _preserves(img) and _preserves(inv)


def encode(img):
    body = " ".join(f"{x}>{v}" for x, v in enumerate(img, start=1) if v)
    return f"n={len(img)}:[{body}]"


def runs(points):
    """Maximal consecutive runs of ascending points, as (start, length)."""
    out = []
    for x in points:
        if out and out[-1][0] + out[-1][1] == x:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((x, 1))
    return out


def named_letter(n, family, i=None, j=None):
    """The img tuple of a named generator, from its definition."""
    pts = range(1, n + 1)
    if family == "id":
        return tuple(pts)
    if family == "eps":
        return tuple(0 if x == i else x for x in pts)
    if family == "sig1":
        return (n, 0) + tuple(x - 2 for x in range(3, n + 1))
    if family == "sig2":
        return tuple(x + 2 for x in range(1, n - 1)) + (0, 1)
    if family == "gam":
        return tuple(i - x if x < i else 0 if x == i else x for x in pts)
    if family == "del":
        return tuple(x if x < i else 0 if x == i else n + i + 1 - x for x in pts)
    if family == "beta":
        return tuple(0 if x in (i, j) else i + j - x if i < x < j else x for x in pts)
    raise ValueError(f"unknown generator family {family!r}")


def set_g(n):
    """{id, sig1, sig2} + gammas + deltas for even n, as img tuples."""
    letters = [named_letter(n, "id"), named_letter(n, "sig1"), named_letter(n, "sig2")]
    letters += [named_letter(n, "gam", i) for i in range(4, n + 1, 2)]
    letters += [named_letter(n, "del", i) for i in range(1, n - 2, 2)]
    return frozenset(letters)


# --- seeded element generator --------------------------------------------------


def _image_starts(start, length, t):
    """The directions (False ascending, True descending) in which the
    domain run at ``start`` may map onto the interval beginning at ``t``.
    A run of two or more points must keep every point's parity, so for
    some ``t`` there is none."""
    if length == 1:
        return (False,)
    if length % 2 == 0:
        return ((t - start) % 2 == 1,)  # ascending iff t matches start's parity
    return (False, True) if (t - start) % 2 == 0 else ()


def _fits(blocks, p, n):
    """Whether ``blocks`` can be laid out in this order from point ``p``
    on, each image interval at least one point clear of the previous.
    Placing each at its earliest allowed start leaves the most room, so
    the greedy layout decides it."""
    for start, length in blocks:
        t = p if _image_starts(start, length, p) else p + 1
        if t + length - 1 > n:
            return False
        p = t + length + 1
    return True


def random_if_img(rng, n, rank=None):
    """An element of IF_n by random block placement.

    The rank is ``rank``, or uniform in 0..n when not given, and the
    domain a uniform subset of that size.  The domain runs are laid out
    in a random order along the image, each onto an interval at a
    uniformly chosen start among those that leave room for the rest,
    with no two intervals adjacent.  A run of two or more points maps
    ascending or descending so that every point keeps its parity.  When
    a few random orders all fail to fit, the runs keep their domain
    order, which always fits.
    """
    if rank is None:
        rank = rng.randint(0, n)
    blocks = runs(sorted(rng.sample(range(1, n + 1), rank)))
    for _ in range(8):
        order = rng.sample(blocks, len(blocks))
        if _fits(order, 1, n):
            break
    else:
        order = blocks
    img = [0] * n
    p = 1
    for bi, (start, length) in enumerate(order):
        starts = [
            t
            for t in range(p, n - length + 2)
            if _image_starts(start, length, t) and _fits(order[bi + 1 :], t + length + 1, n)
        ]
        t = rng.choice(starts)
        desc = rng.choice(_image_starts(start, length, t))
        for r in range(length):
            img[start + r - 1] = t + length - 1 - r if desc else t + r
        p = t + length + 1
    return tuple(img)


def stream_inputs(seed, count=STREAM_OPS):
    """The factor-stream inputs: ``count`` (target, img) pairs.

    The kinds take turns, and within a kind so do the ranks 0..n, so
    every kind and every rank is equally frequent; the stream is then
    shuffled.  Balanced counts keep the work of a stream nearly the same
    from seed to seed, so the seed moves the inputs but not the load.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        target, n = STREAM_KINDS[i % len(STREAM_KINDS)]
        rank = i // len(STREAM_KINDS) % (n + 1)
        out.append((target, random_if_img(rng, n, rank)))
    rng.shuffle(out)
    return out


def stream_digest(inputs):
    text = "\n".join(f"{target} {encode(img)}" for target, img in inputs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- operations ----------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    """One in-process ``cli.main(argv)`` call; ``name`` is also the
    per-layer metric stem, e.g. ``cli.verify.thm1.n8``."""

    name: str
    n: int
    argv: tuple


@dataclass(frozen=True)
class FactorOp:
    """One ``factor.factorize_j`` (target J) or ``factorize_g`` (G) call."""

    target: str
    img: tuple

    @property
    def name(self):
        return f"factor.{self.target}.n{len(self.img)}"


def _verify(claim, n):
    argv = ("verify", "--claim", claim, "--n", str(n), "--format", "json")
    return CliOp(f"cli.verify.{claim}.n{n}", n, argv)


CLAIMS_N8 = (
    _verify("thm1", 8),
    _verify("thm2", 8),
    _verify("jcrit", 8),
    CliOp("cli.greens.classes.n8", 8, ("greens", "--classes", "--n", "8", "--format", "json")),
)

ORACLES_SMALL = (
    _verify("least", 6),
    _verify("rank", 6),
    _verify("odd-neg", 7),
    _verify("regular", 6),
    _verify("jcrit", 5),
    _verify("jcrit", 7),
)

CLI_OPS = CLAIMS_N8 + ORACLES_SMALL


def operations(workload, seed):
    """The fixed operation list of a workload; only factor-stream uses the seed."""
    if workload == "claims-n8":
        return CLAIMS_N8
    if workload == "oracles-small":
        return ORACLES_SMALL
    if workload == "factor-stream":
        inputs = stream_inputs(seed)
        digest = stream_digest(inputs)
        if STREAM_DIGESTS.get(seed, digest) != digest:
            raise RuntimeError(
                f"factor-stream inputs for seed {seed} changed: digest {digest}, "
                f"recorded {STREAM_DIGESTS[seed]}"
            )
        return tuple(FactorOp(target, img) for target, img in inputs)
    raise ValueError(f"unknown workload {workload!r}")


# --- reference answers ---------------------------------------------------------


def _expected_result(op):
    """Checks on the ``result`` object of an op's JSON document, as
    (description, predicate) pairs.  ``params`` and ``timing_ms`` are
    never checked: they carry options that are due to be removed."""
    name = op.name
    size = IF_SIZES[op.n]
    if name in ("cli.verify.thm1.n8", "cli.verify.thm2.n8"):
        return [("generated == |IF_8|", lambda r: r["size"] == r["generated"] == size)]
    if name == "cli.verify.jcrit.n8":
        return [("classes == oracle_classes == 42",
                 lambda r: r["classes"] == r["oracle_classes"] == 42)]
    if name == "cli.greens.classes.n8":
        return [
            ("count == |IF_8|", lambda r: r["count"] == size),
            ("class sizes sum to |IF_8|", lambda r: sum(c["size"] for c in r["classes"]) == size),
            ("42 classes", lambda r: len(r["classes"]) == 42),
        ]
    if name == "cli.verify.least.n6":
        least = sorted(encode(img) for img in set_g(6))
        return [("least == set_g(6)", lambda r: r["least"] == least and len(least) == 7)]
    if name == "cli.verify.rank.n6":
        return [("rank == exact 7", lambda r: r["rank"] == ["exact", 7])]
    if name == "cli.verify.odd-neg.n7":
        return [("no high-rank generation, no least set",
                 lambda r: r["high_rank_generates"] is False
                 and r["least_generating_set"] is None)]
    if name == "cli.verify.regular.n6":
        return [("612 regular, none outside IF",
                 lambda r: r["regular"] == size and r["outside_if"] == []
                 and r["pfi_size"] == 1424)]
    if name == "cli.verify.jcrit.n5":
        return [("12 classes over all 182^2 pairs",
                 lambda r: r["classes"] == 12 and r["pairs"] == size**2)]
    if name == "cli.verify.jcrit.n7":
        return [("classes == oracle_classes == 26",
                 lambda r: r["classes"] == r["oracle_classes"] == 26)]
    raise ValueError(f"no reference for {name}")


def check_cli(op, rc, stdout):
    """None when the op's output matches the reference, else a reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    if doc.get("status") != "ok":
        return f"status {doc.get('status')!r}"
    result = doc.get("result")
    for what, predicate in _expected_result(op):
        try:
            ok = predicate(result)
        except (KeyError, TypeError) as exc:
            return f"{what}: malformed result ({exc!r})"
        if not ok:
            return f"expected {what}"
    return None


def letter_img(n, letter):
    """A word letter as an img tuple: an explicit map or a generator spec."""
    if hasattr(letter, "img"):
        return tuple(letter.img)
    return named_letter(n, letter.family, letter.i, letter.j)


def check_word(op, word):
    """None when ``word`` is a valid factorization of the op's element.

    The word must multiply back to the element under the reference
    product.  J letters must have rank >= n-2 and lie in IF; G letters
    must all be distinguished generators.
    """
    n = len(op.img)
    if word.n != n:
        return f"word has n={word.n}, expected {n}"
    acc = tuple(range(1, n + 1))
    allowed = set_g(n) if op.target == "G" else None
    for letter in word.letters:
        try:
            img = letter_img(n, letter)
        except (AttributeError, TypeError, ValueError) as exc:
            return f"unreadable letter {letter!r} ({exc})"
        if len(img) != n:
            return f"letter {letter!r} has the wrong size"
        if allowed is not None and img not in allowed:
            return f"letter {encode(img)} is not in set_g({n})"
        if allowed is None and (sum(1 for v in img if v) < n - 2 or not in_if(img)):
            return f"letter {encode(img)} is low-rank or outside IF"
        acc = product(acc, img)
    if acc != op.img:
        return f"word evaluates to {encode(acc)}, not {encode(op.img)}"
    return None
