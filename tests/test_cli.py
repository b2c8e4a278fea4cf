import contextlib
import io
import json
import time

import pytest

from fencemonoid import cli, factor, fence, genfam, greens, pinj
from fencemonoid import enumeration as en
from fencemonoid.pinj import PartialInjection
import tuple_kernel as slow

ALPHA = "n=6:[1>3 2>2 4>6 5>5 6>4]"


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_enumerate_counts():
    code, out, _ = run("enumerate", "--n", "2", "--which", "IF")
    assert code == 0 and out == "count 6\n"
    code, out, _ = run("enumerate", "--n", "1", "--which", "IF")
    assert code == 0 and out == "count 2\n"


def test_enumerate_contains_counterexample():
    code, out, _ = run(
        "enumerate", "--n", "6", "--which", "PFI", "--contains", ALPHA
    )
    assert code == 0 and "contains true" in out
    code, out, _ = run(
        "enumerate", "--n", "6", "--which", "IF", "--contains", ALPHA
    )
    assert code == 0 and "contains false" in out


def test_enumerate_matches_filter_oracle(filter_oracle):
    args = ["enumerate", "--n", "6", "--which", "IF", "--elements"]
    _, out1, _ = run(*args)
    _, out2, _ = run(*args)
    oracle = filter_oracle(6, "IF")
    expected = [f"count {len(oracle)}"] + [PartialInjection(6, img).encode() for img in oracle]
    assert out1 == out2 == "\n".join(expected) + "\n"


def test_enumerate_cache(tmp_path, monkeypatch):
    # the on-disk cache, the worker pool and the --huge opt-in are gone, flags included
    monkeypatch.chdir(tmp_path)
    for flag in (["--cache-dir", str(tmp_path)], ["--no-cache"], ["--threads", "2"], ["--huge"]):
        code, _, err = run("enumerate", "--n", "4", *flag)
        assert code == 1 and "unrecognized" in err
    code, out, _ = run("enumerate", "--n", "4")
    assert code == 0 and out == "count 53\n"
    assert not (tmp_path / ".fence-cache").exists()


def test_enumerate_huge_n10_is_fast():
    t0 = time.perf_counter()
    code, out, _ = run("enumerate", "--n", "10")
    elapsed = time.perf_counter() - t0
    assert code == 0 and out == "count 137412\n"
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_enumerate_guard_exit_code():
    code, _, err = run("enumerate", "--which", "I", "--n", "9")
    assert code == 1 and "I " in err and "1..8" in err
    for which in ("IF", "PFI"):
        code, _, err = run("enumerate", "--which", which, "--n", "11")
        assert code == 1 and f"{which} " in err and "1..10" in err


def test_greens_pair_output():
    a = "n=6:[1>2 4>6 5>5 6>4]"
    b = "n=6:[1>5 2>6 5>1 6>2]"
    code, out, _ = run("greens", "--n", "6", a, b)
    assert code == 0
    assert "J false" in out
    assert "invariant first 1:1;3:1:0" in out
    assert "invariant second 2:2" in out


def test_greens_witness():
    a = "n=6:[1>1 2>2]"
    b = "n=6:[5>5 6>6]"
    code, out, _ = run("greens", "--n", "6", a, b, "--witness")
    assert code == 0
    assert "witness gamma n=6:[5>1 6>2]" in out
    assert "witness verified true" in out


def _count_in_if(monkeypatch, *modules):
    """The arguments of every membership test made through the ``in_if``
    bindings of ``modules``."""
    seen = []
    real = fence.in_if

    def counted(a):
        seen.append(a)
        return real(a)

    for mod in modules:
        monkeypatch.setattr(mod, "in_if", counted)
    return seen


def test_greens_witness_tests_the_pair_once_for_the_witness(monkeypatch):
    # the pair query checks each literal once and fingerprints it once;
    # the witness is refused on block keys without a second check, and a
    # built witness checks g and d
    seen = _count_in_if(monkeypatch, fence, greens)
    fingerprinted = []
    real = greens.j_invariant
    monkeypatch.setattr(greens, "j_invariant", lambda x: fingerprinted.append(x) or real(x))
    a = "n=6:[1>1 2>2]"
    for b, flags, tests, line in (
        ("n=6:[5>5 6>6]", [], 2, "J true\n"),
        ("n=6:[5>5 6>6]", ["--witness"], 4, "witness verified true\n"),
        ("n=6:[1>1 3>3]", ["--witness"], 2, "witness none (not J-related)\n"),
    ):
        del seen[:], fingerprinted[:]
        code, out, _ = run("greens", "--n", "6", a, b, *flags)
        assert code == 0 and line in out
        assert (len(seen), len(fingerprinted)) == (tests, 2)


def test_greens_reflexive_single_element():
    code, out, _ = run("greens", "--n", "6", "n=6:[1>1 2>2]", "--relation", "J")
    assert code == 0 and "J true" in out


def test_greens_classes_csv():
    code, out, _ = run("greens", "--n", "4", "--classes", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class,invariant,size,representative"
    assert len(lines) == 9  # 8 classes + header


def test_greens_classes_refuses_elements_and_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("the table was built for a refused command")

    monkeypatch.setattr(en, "build", refuse)
    for extra in ([ALPHA], ["n=6:[1>1]", ALPHA], ["--witness"]):
        code, out, err = run("greens", "--n", "6", "--classes", *extra)
        assert (code, out) == (1, "")
        assert err == "error: --classes takes no element literals and no --witness\n"


def _table_classes(args):
    """``greens --classes`` by the table path the fingerprint rows
    replaced: IF_n listed, split into J-classes, each read off its least
    member."""
    table = en.build(args.n, "IF")
    rows = []
    for idx, cls in enumerate(greens.j_classes(table)):
        least = PartialInjection(args.n, cls[0])
        inv, rep = greens.j_invariant(least).encode(), least.encode()
        rows.append({"class": idx, "invariant": inv, "size": len(cls), "representative": rep})
    return cli.CommandResult("ok", {"count": len(table), "classes": rows})


def test_greens_classes_build_no_table(monkeypatch):
    argvs = [
        ("greens", "--n", str(n), "--classes", "--format", fmt)
        for n in range(1, 9) for fmt in ("text", "json", "csv")
    ]
    monkeypatch.setattr(cli, "cmd_greens", _table_classes)
    expected = [_untimed(*run(*argv)) for argv in argvs]
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("a table was built for greens --classes")

    monkeypatch.setattr(en, "build", refuse)
    monkeypatch.setattr(greens, "j_classes", refuse)
    assert [_untimed(*run(*argv)) for argv in argvs] == expected
    assert [code for code, _, _ in expected] == [0] * len(argvs)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "3"),
        ("greens", "--n", "3", "--classes"),
        ("factorize", "--n", "3", "--element", "n=3:[1>1]"),
        ("verify", "--n", "3", "--claim", "thm1"),
    ],
)
def test_patched_command_is_reached_after_an_earlier_call(monkeypatch, argv):
    # the parser is built once per process, and each command and its
    # renderer are looked up when main runs, so a patch made after an
    # earlier call is the one called
    command = argv[0]
    assert run(*argv)[0] == 0
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: cli.CommandResult("ok", {"n": args.n}))
    monkeypatch.setattr(cli, f"_render_{command}", lambda result, out: out.write("patched\n"))
    assert run(*argv) == (0, "patched\n", "")
    code, out, err = run(*argv, "--format", "json")
    assert (code, err, json.loads(out)["result"]) == (0, "", {"n": 3})


def test_greens_classes_check_each_row(monkeypatch):
    # a wrong least image is refused by the checks on each row, which
    # are raised, not asserted, so python -O keeps them
    real = en.j_class_rows(5)
    swapped = [real[0], (real[2][0], *real[1][1:]), *real[2:]]  # row 1 takes row 2's image
    outside = [(bytes([2, 1, 0, 0, 0]), *real[0][1:]), *real[1:]]  # 1>2 2>1 leaves IF_5
    for rows, err in (
        (swapped, "error: class 1: representative n=5:[4>2 5>1] has another fingerprint\n"),
        (outside, "error: class 0: representative n=5:[1>2 2>1] is not in IF_5\n"),
    ):
        monkeypatch.setattr(en, "j_class_rows", lambda n, rows=rows: rows)
        for fmt in ("text", "json", "csv"):
            assert run("greens", "--n", "5", "--classes", "--format", fmt) == (1, "", err)


def test_runtime_check_failures_exit_1(monkeypatch):
    # a failed runtime check outside factorization is reported, not raised
    def fail(a, b):
        raise RuntimeError("witness pair does not carry a onto b")

    monkeypatch.setattr(greens, "j_witness", fail)
    code, out, err = run("greens", "--n", "4", "n=4:[1>1]", "n=4:[2>2]", "--witness")
    assert (code, out, err) == (1, "", "error: witness pair does not carry a onto b\n")


def test_greens_rejects_non_if():
    code, _, err = run("greens", "--n", "6", ALPHA, ALPHA)
    assert code == 1 and "fence-preserving" in err
    # a member first and a non-member second: the error names the second
    for relation in ("all", "R", "J"):
        code, out, err = run("greens", "--n", "6", "--relation", relation, "n=6:[1>1]", ALPHA)
        assert (code, out) == (1, "")
        assert err == f"error: {ALPHA} is not fence-preserving in both directions\n"


def test_factorize_table_word():
    code, out, _ = run(
        "factorize", "--n", "6",
        "--element", "n=6:[1>1 2>2 3>3 5>5 6>6]",
        "--target", "G", "--verify",
    )
    assert code == 0
    assert "word w6: gam:4 gam:4" in out
    assert "verified true" in out
    assert "fallback false" in out


def test_factorize_single_letter():
    code, out, _ = run(
        "factorize", "--n", "4", "--element", "n=4:[1>1 2>2 3>3]", "--verify"
    )
    assert code == 0 and "length 1" in out


def test_factorize_g_reaches_n32():
    # the input is its own J letter, expanded by its closed-form word
    for n in (12, 32):
        genfam.g_word_for.cache_clear()
        t0 = time.perf_counter()
        code, out, _ = run(
            "factorize", "--n", str(n),
            "--element", genfam.beta(n, 1, 3).encode(),
            "--target", "G", "--verify",
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert "bfs_letters 0\n" in out and "verified true\n" in out
        assert elapsed < 2.0, f"n={n}: {elapsed:.2f} s"


def test_factorize_g_table_miss_exits_1(last_rotations_missed):
    # a letter without a closed-form word is a defect, reported as an
    # error; the input's parity repair needs a rotation at a = n-2
    for n in (6, 12):
        a = pinj.make(n, {(n - 2, n - 3)})
        code, out, err = run("factorize", "--n", str(n), "--element", a.encode(), "--target", "G")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "no closed-form word" in err
        code, _, _ = run("factorize", "--n", str(n), "--element", a.encode(), "--target", "J")
        assert code == 0


def test_factorize_pipeline_fault_exits_1(monkeypatch):
    # a failed step is a defect, reported as an error at every n, never
    # answered by another method
    def decline(a):
        raise factor.FactorizationError("declined")

    monkeypatch.setattr(factor, "_constructive", decline)
    for n in (6, 12):
        for target in ("J", "G"):
            code, out, err = run(
                "factorize", "--n", str(n), "--element", f"n={n}:[1>1]", "--target", target,
            )
            assert (code, out, err) == (1, "", "error: declined\n")


def test_factorize_g_needs_even_n():
    code, _, err = run(
        "factorize", "--n", "5", "--element", "n=5:[1>1]", "--target", "G"
    )
    assert code == 1 and "even" in err


def test_factorize_g_at_odd_n_refuses_a_non_member_as_such():
    # membership is checked before the parity of the ambient size
    for element, message in (
        ("n=5:[1>2 2>1]", "n=5:[1>2 2>1] is not fence-preserving in both directions"),
        ("n=5:[1>1]", "set_g factorization needs even n, got 5"),
    ):
        code, out, err = run("factorize", "--n", "5", "--element", element, "--target", "G")
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_factorize_tests_the_input_once(monkeypatch):
    # the library call makes the one membership test of the input
    seen = _count_in_if(monkeypatch, fence, factor)
    for n, target, code in ((6, "J", 0), (6, "G", 0), (5, "G", 1)):
        a = pinj.make(n, {(1, 3), (2, 4)})
        del seen[:]
        got, _, _ = run("factorize", "--n", str(n), "--element", a.encode(), "--target", target)
        assert got == code
        assert seen.count(a) == 1


def test_verify_ok_claims():
    assert run("verify", "--n", "4", "--claim", "rank")[0] == 0
    assert run("verify", "--n", "3", "--claim", "odd-neg")[0] == 0
    assert run("verify", "--n", "3", "--claim", "jcrit")[0] == 0
    assert run("verify", "--n", "3", "--claim", "regular")[0] == 0
    code, out, _ = run("verify", "--n", "4", "--claim", "rank")
    assert "claim rank: ok" in out


def test_verify_jcrit_makes_one_bulk_ideal_pass(monkeypatch):
    calls = []
    real = en.principal_ideals
    monkeypatch.setattr(en, "principal_ideals", lambda tbl: calls.append(tbl) or real(tbl))
    assert run("verify", "--n", "5", "--claim", "jcrit")[0] == 0
    assert len(calls) == 1


def _domains_by_rank(n):
    """``en._fingerprint_groups`` with each domain keyed by its size
    alone, which merges J-classes from n = 4 on."""
    groups = {}
    for dom in en._domains(n):
        groups.setdefault(len(dom), []).append(greens.blocks(n, dom))
    return groups


def test_verify_jcrit_detects_rank_only_partition(monkeypatch):
    # rank merges J-classes from n = 4 on; the n >= 6 oracle must see it,
    # and the violation names the first pair in table order on which the
    # criterion and the oracle disagree, as it does at n <= 5.  At n >= 6
    # the criterion groups the domains, so the plant groups them by size
    monkeypatch.setattr(en, "_fingerprint_groups", _domains_by_rank)
    code, out, _ = run("verify", "--n", "6", "--claim", "jcrit", "--format", "json")
    doc = json.loads(out)
    assert code == 2 and doc["status"] == "violation"
    pair = ["n=6:[5>1 6>2]", "n=6:[4>1 6>3]"]
    assert doc["result"] == {"counterexample": pair, "criterion": True, "oracle": False, "claim": "jcrit"}
    # the same pair as an all-pairs scan in table order
    table = en.build(6, "IF")
    oracle = {img: k for k, cls in enumerate(slow.inverse_j_classes(table)) for img in cls}
    rank = {img: 6 - img.count(0) for img in table.imgs}
    first = next(
        (a, b) for a in table.imgs for b in table.imgs
        if (rank[a] == rank[b]) != (oracle[a] == oracle[b])
    )
    assert [PartialInjection(6, img).encode() for img in first] == pair
    code, out, _ = run("verify", "--n", "6", "--claim", "jcrit")
    assert code == 2 and out == (
        "claim jcrit: violation\n"
        f"counterexample {json.dumps(pair)}\n"
        "criterion true\noracle false\n"
    )


def test_verify_jcrit_missing_reverse_edge_exits_1(monkeypatch):
    # planted: a block is placed only at or after its own start, so the
    # domain {1} reaches {2} and nothing maps {2} back onto {1}
    real = en._block_placements
    monkeypatch.setattr(
        en, "_block_placements",
        lambda n, start, length, two_way: tuple(
            p for p in real(n, start, length, two_way) if p[0] >= 1 << start - 1
        ),
    )
    for fmt in ("text", "json"):
        assert run("verify", "--n", "6", "--claim", "jcrit", "--format", fmt) == (
            1, "", "error: IF_6 maps domain [1] onto [2] but nothing back\n",
        )


def test_verify_jcrit_builds_no_cayley_graph(monkeypatch):
    calls = []
    real_ideal, real_set_j = en.ideal_j_classes, genfam.set_j
    monkeypatch.setattr(
        en, "ideal_j_classes", lambda *a: calls.append("ideal_j_classes") or real_ideal(*a)
    )
    monkeypatch.setattr(genfam, "set_j", lambda n: calls.append("set_j") or real_set_j(n))
    for n in (6, 7, 8):
        assert run("verify", "--n", str(n), "--claim", "jcrit")[0] == 0
    assert calls == []


def test_verify_jcrit_refuses_past_max_n():
    for fmt in ("text", "json"):
        assert run("verify", "--n", "11", "--claim", "jcrit", "--format", fmt) == (
            1, "", "error: IF is built for n in 1..10, got 11\n",
        )


def test_verify_jcrit_n9():
    code, out, _ = run("verify", "--n", "9", "--claim", "jcrit", "--format", "json")
    result = json.loads(out)["result"]
    assert code == 0
    assert result["classes"] == result["oracle_classes"] == 55


def test_verify_structure_claims_reachable():
    code, out, _ = run("verify", "--n", "8", "--claim", "least", "--format", "json")
    least = json.loads(out)["result"]["least"]
    assert code == 0 and len(least) == 9
    assert least == sorted(g.encode() for g in genfam.set_g(8))
    code, out, _ = run("verify", "--n", "8", "--claim", "rank", "--format", "json")
    assert code == 0 and json.loads(out)["result"]["rank"] == ["exact", 9]
    code, out, _ = run("verify", "--n", "7", "--claim", "regular", "--format", "json")
    result = json.loads(out)["result"]
    assert code == 0
    assert (result["regular"], result["pfi_size"], result["outside_if"]) == (2288, 6714, [])


def test_verify_thm1_n10_is_fast():
    # the closure runs over the reduced set_j(10), 21 of its 288 elements
    t0 = time.perf_counter()
    code, out, _ = run("verify", "--n", "10", "--claim", "thm1")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert "generated 137412\n" in out and "generators 288\n" in out
    assert elapsed < 15.0, f"{elapsed:.1f} s"


def _untimed(code, out, err):
    # timing_ms is the one JSON field that differs from run to run
    if out.startswith("{"):
        out = json.loads(out)
        del out["timing_ms"]
    return code, out, err


def test_generation_claims_take_the_orbit_path(monkeypatch):
    # every generation check of these claims is over a set closed under
    # inverse, so none saturates the generated set; only the floored
    # saturations of reduce_generators and the orbit's closures of one
    # permutation group per class (all maps with one domain = image) stay
    argvs = [
        ("verify", "--n", str(n), "--claim", claim, "--format", fmt)
        for claim, n in (("thm1", 6), ("thm2", 6), ("least", 6), ("rank", 6), ("odd-neg", 7))
        for fmt in ("text", "json")
    ]
    expected = [_untimed(*run(*argv)) for argv in argvs]
    assert [code for code, _, _ in expected] == [0] * len(argvs)
    real = en.saturate

    def floored_or_group(n, gens, min_rank=0):
        gens = list(gens)
        sets = {slow.dom_mask(g) for g in gens} | {slow.im_mask(g) for g in gens}
        if min_rank <= 0 and len(sets) != 1:
            raise AssertionError("a generation check saturated the generated set")
        return real(n, gens, min_rank)

    monkeypatch.setattr(en, "saturate", floored_or_group)
    assert [_untimed(*run(*argv)) for argv in argvs] == expected


def test_verify_thm2_violation(monkeypatch):
    real = genfam.set_g
    gam4 = genfam.gamma(6, 4)
    outside = pinj.parse(ALPHA)  # in PFI_6, not in IF_6
    for patched in (
        lambda n: tuple(g for g in real(n) if g != gam4),
        lambda n: real(n) + (outside,),
    ):
        monkeypatch.setattr(genfam, "set_g", patched)
        code, out, _ = run("verify", "--n", "6", "--claim", "thm2", "--format", "json")
        doc = json.loads(out)
        assert code == 2 and doc["status"] == "violation"
        assert doc["result"]["size"] == 612
        assert doc["result"]["generated"] == len(en.saturate(6, patched(6)))
    # without gam:4 the letters generate a proper subsemigroup
    assert len(en.saturate(6, [g for g in real(6) if g != gam4])) < 612


def test_sizes_are_counted_without_a_table(monkeypatch):
    # thm1, thm2 and enumerate read only |S|, and --contains asks the
    # kind's own membership test; only --elements lists the table
    probes = (ALPHA, "n=6:[1>2 2>1]", "n=6:[1>1 2>2 3>3 4>4 5>5 6>6]", "n=6:[]")
    argvs = [
        ("verify", "--n", str(n), "--claim", claim, "--format", fmt)
        for claim, n in (("thm1", 5), ("thm1", 6), ("thm2", 6)) for fmt in ("text", "json")
    ]
    argvs += [
        ("enumerate", "--n", "6", "--which", which, *query)
        for which in ("I", "PFI", "IF")
        for query in ((), *(("--contains", elt) for elt in probes))
    ]
    expected = [_untimed(*run(*argv)) for argv in argvs]
    assert [code for code, _, _ in expected] == [0] * len(argvs)
    # the membership lines agree with lookups in the built tables
    for argv, (_, out, _) in zip(argvs, expected):
        if "--contains" in argv:
            elt = pinj.parse(argv[-1])
            assert out.endswith(f"contains {str(elt in en.build(6, argv[4])).lower()}\n")
    real = en.build
    listing = ("enumerate", "--n", "5", "--which", "PFI", "--elements", "--format", "json")
    listed = _untimed(*run(*listing))

    def refuse(*args):
        raise AssertionError("a table was built to read its size")

    monkeypatch.setattr(en, "build", refuse)
    assert [_untimed(*run(*argv)) for argv in argvs] == expected
    built = []
    monkeypatch.setattr(en, "build", lambda *args: built.append(args) or real(*args))
    assert _untimed(*run(*listing)) == listed and built == [(5, "PFI")]
    assert listed[1]["result"]["count"] == len(listed[1]["result"]["elements"]) == 332


def test_verify_parity_guards():
    assert run("verify", "--n", "3", "--claim", "rank")[0] == 1
    code, _, err = run("verify", "--n", "3", "--claim", "thm2")
    assert code == 1 and "even" in err
    code, _, err = run("verify", "--n", "4", "--claim", "odd-neg")
    assert code == 1 and "odd" in err


def test_verify_violation_exit_code(monkeypatch):
    monkeypatch.setitem(
        cli._CLAIMS, "rank", (lambda n: (False, {"forced": True}), "even")
    )
    code, out, _ = run("verify", "--n", "4", "--claim", "rank")
    assert code == 2 and "violation" in out


def test_json_schema():
    code, out, _ = run(
        "enumerate", "--n", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "command", "n", "params", "status", "result", "timing_ms", "version",
    }
    assert doc["version"] == "v1"
    assert doc["status"] == "ok"
    assert doc["result"]["count"] == 18
    assert json.loads(json.dumps(doc)) == doc


def test_csv_rejected_for_non_tabular():
    code, _, err = run("enumerate", "--n", "3", "--format", "csv")
    assert code == 1 and "tabular" in err


def test_csv_refused_before_the_command_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table was built for a refused format")

    monkeypatch.setattr(en, "build", refuse)
    for argv in (
        ("verify", "--claim", "regular", "--n", "8"),
        ("enumerate", "--which", "I", "--n", "8"),
        ("greens", "--n", "6", ALPHA),
    ):
        code, out, err = run(*argv, "--format", "csv")
        assert (code, out) == (1, "")
        assert err == (
            "error: csv format is only available for tabular output (greens --classes)\n"
        )


def test_bad_element_literal():
    code, _, err = run("factorize", "--n", "6", "--element", "nonsense")
    assert code == 1


def test_element_size_mismatch():
    code, _, err = run("factorize", "--n", "4", "--element", "n=6:[1>1]")
    assert code == 1 and "n=6" in err


def test_usage_error_exit_code():
    code, _, _ = run("enumerate")  # missing --n
    assert code == 1
    code, _, _ = run("nonsense")
    assert code == 1
