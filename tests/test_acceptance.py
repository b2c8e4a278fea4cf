"""Acceptance suite: every headline property of the package, checked at
its stated size against an independent brute-force oracle where one
exists.  Each test prints one pass/fail line (run with -s to see them).
"""

import contextlib
import io
import random
import time

from fencemonoid import cli
from fencemonoid import enumeration as en
from fencemonoid import factor, fence, genfam, greens, pinj
from fencemonoid.fence import Membership

ALPHA_PFI = pinj.make(6, {(1, 3), (2, 2), (4, 6), (5, 5), (6, 4)})
A6 = pinj.make(6, {(1, 2), (4, 6), (5, 5), (6, 4)})
B6 = pinj.make(6, {(1, 5), (2, 6), (5, 1), (6, 2)})

I_SIZES = {1: 2, 2: 7, 3: 34, 4: 209, 5: 1546, 6: 13327, 7: 130922}


def report(num, name, ok, detail=""):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_one_way_counterexample():
    t0 = time.perf_counter()
    ok = (
        fence.membership(ALPHA_PFI) is Membership.PFI_ONLY
        and fence.membership(ALPHA_PFI.inverse()) is Membership.NOT_PFI
    )
    ms = (time.perf_counter() - t0) * 1000
    report(1, "one-way counterexample", ok and ms < 1.0, f"{ms:.3f} ms")


def test_02_rank4_pair_not_j_related(table, ideal_sets):
    tbl = table(6)
    _, _, ja = ideal_sets(tbl, A6)
    _, _, jb = ideal_sets(tbl, B6)
    oracle_related = B6 in ja and A6 in jb
    ok = (
        A6.rank == B6.rank == 4
        and greens.j_invariant(A6) != greens.j_invariant(B6)
        and not greens.relations(A6, B6)["J"]
        and not oracle_related
    )
    report(2, "rank-4 pair split by block fingerprint", ok)


def test_03_high_rank_set_generates(table):
    t0 = time.perf_counter()
    for n in range(2, 8):
        tbl = table(n)
        if not en.is_generating(tbl, genfam.set_j(n)):
            report(3, "rank>=n-2 generates", False, f"failed at n={n}")
    elapsed = time.perf_counter() - t0
    report(3, "rank>=n-2 generates (n=2..7)", elapsed < 300, f"{elapsed:.1f} s")


def test_04_even_n_least_generating_set_and_rank(table):
    for n in (2, 4, 6):
        tbl = table(n)
        G = set(genfam.set_g(n))
        cl = en.closure(n, G)
        ok = (
            set(cl.elements) == set(tbl.elements)
            and set(en.irreducibles(tbl)) == G
            and set(en.least_generating_set(tbl) or ()) == G
            and en.semigroup_rank(tbl) == ("exact", n + 1)
        )
        if not ok:
            report(4, "even-n least set and rank", False, f"failed at n={n}")
    report(4, "even-n least set and rank (n=2,4,6; rank 3,5,7)", True)


def test_05_odd_n_negative_results(table):
    for n in (3, 5):
        tbl = table(n)
        high = [a for a in tbl if a.rank >= n - 1]
        ok = not en.is_generating(tbl, high) and en.least_generating_set(tbl) is None
        if not ok:
            report(5, "odd-n negatives", False, f"failed at n={n}")
    report(5, "odd-n negatives (n=3,5)", True)


def test_06_j_criterion_equals_ideal_oracle(table, ideal_sets):
    t0 = time.perf_counter()
    for n in range(1, 6):
        tbl = table(n)
        jsets = {a: ideal_sets(tbl, a)[2] for a in tbl}
        for a in tbl:
            inv_a = greens.j_invariant(a)
            for b in tbl:
                criterion = inv_a == greens.j_invariant(b)
                oracle = b in jsets[a] and a in jsets[b]
                if criterion != oracle:
                    report(
                        6, "criterion == ideal oracle", False,
                        f"n={n}: {a.encode()} vs {b.encode()}",
                    )
    elapsed = time.perf_counter() - t0
    report(6, "criterion == ideal oracle (all pairs, n<=5)", True, f"{elapsed:.1f} s")


def test_07_witness_soundness(table):
    for n in range(1, 6):
        tbl = table(n)
        for a in tbl:
            for b in tbl:
                if greens.relations(a, b)["J"]:
                    g, d = greens.j_witness(a, b)
                    if not (fence.in_if(g) and fence.in_if(d) and g * a * d == b):
                        report(7, "witness soundness", False, f"n={n}")
    rng = random.Random(20260808)
    elements = table(6).elements
    checked = 0
    for _ in range(10_000):
        a, b = rng.choice(elements), rng.choice(elements)
        if greens.relations(a, b)["J"]:
            g, d = greens.j_witness(a, b)
            if g * a * d != b:
                report(7, "witness soundness", False, "sampled pair at n=6")
            checked += 1
    report(7, "witness soundness (n<=5 all, 1e4 samples n=6)", True,
           f"{checked} related samples")


def test_08_factorization_soundness(table):
    constructive = 0
    for n in range(1, 7):
        for a in table(n):
            w = factor.factorize_j(a)
            constructive += w.provenance == "constructive"
            if factor.eval_word(w) != a:
                report(8, "factorization soundness", False, f"eval mismatch n={n}")
            for elt in w.letters:
                if elt.rank < n - 2 or not fence.in_if(elt):
                    report(8, "factorization soundness", False, f"low-rank letter n={n}")
    for n in (2, 4, 6):
        gset = set(genfam.set_g(n))
        for a in table(n):
            w = factor.factorize_g(a)
            if factor.eval_word(w) != a or any(
                l not in gset for l in w.letters
            ):
                report(8, "factorization soundness", False, f"generator word n={n}")
    report(8, "factorization soundness (n<=6; generator words n=2,4,6)", True,
           f"constructive_words={constructive}")


def test_09_regular_elements_lie_in_if(table):
    for n in range(1, 6):
        tbl = table(n, "PFI")
        stray = [a for a in en.regular_elements(tbl) if not fence.in_if(a)]
        if stray:
            report(9, "regular containment", False, f"n={n}: {stray[0].encode()}")
    report(9, "regular elements of one-way maps are two-way (n<=5)", True)


def test_10_enumerator_sanity(table):
    for n in range(1, 8):
        got = len(table(n, "I"))
        if got != I_SIZES[n]:
            report(10, "enumerator sanity", False, f"|I_{n}| = {got} != {I_SIZES[n]}")
    report(10, "enumerator sanity (|I_n| matches, n<=7)", True)


def test_11_cli_determinism_and_oracle(filter_oracle):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["enumerate", "--n", "6", "--which", "IF", "--elements"])
        assert code == 0
        return out.getvalue()

    oracle = filter_oracle(6, "IF")
    lines = [f"count {len(oracle)}"] + [pinj.PartialInjection(6, img).encode() for img in oracle]
    ok = run() == run() == "\n".join(lines) + "\n"
    report(11, "byte-identical enumerate output, equal to the filter oracle", ok)
