"""Tests of the benchmark's own code: input generation, answer checking,
host speed conversion, span arithmetic, tracing installation and metric
names.

    python3 -m pytest benchmarks/test_benchmark.py
"""

import json
import os
import random
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from fencemonoid import fence, genfam, pinj  # noqa: E402
from fencemonoid.factor import Word  # noqa: E402
from fencemonoid.genfam import GeneratorSpec  # noqa: E402


# --- generator --------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 32])
def test_generated_elements_are_in_if_and_cover_every_rank(n):
    rng = random.Random(n)
    imgs = [W.random_if_img(rng, n) for _ in range(40 * (n + 1))]
    for img in imgs:
        assert fence.in_if(pinj.PartialInjection(n, img)), W.encode(img)
        assert W.in_if(img)
    assert {sum(1 for v in img if v) for img in imgs} == set(range(n + 1))


def test_reference_in_if_agrees_with_fence_on_all_of_i4():
    from fencemonoid import enumeration

    for a in enumeration.build(4, "I"):
        assert W.in_if(a.img) == fence.in_if(a)


def test_stream_repeats_for_a_seed_and_matches_recorded_digests():
    assert W.stream_inputs(3) == W.stream_inputs(3)
    assert W.stream_inputs(3) != W.stream_inputs(4)
    for seed, digest in W.STREAM_DIGESTS.items():
        assert W.stream_digest(W.stream_inputs(seed)) == digest


def test_changed_inputs_are_refused(monkeypatch):
    monkeypatch.setitem(W.STREAM_DIGESTS, 1, "0" * 16)
    with pytest.raises(RuntimeError, match="changed"):
        W.operations("factor-stream", 1)


def test_stream_draws_every_kind():
    kinds = {(target, len(img)) for target, img in W.stream_inputs(0)}
    assert kinds == set(W.STREAM_KINDS)


# --- references -------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_reference_set_g_matches_genfam(n):
    assert W.set_g(n) == {g.img for g in genfam.set_g(n)}


def test_reference_letters_match_genfam():
    n = 10
    specs = [GeneratorSpec("eps", i) for i in range(1, n + 1)]
    specs += [GeneratorSpec("beta", i, j) for i in range(1, n) for j in range(i + 2, n + 1, 2)]
    specs += [GeneratorSpec("id"), GeneratorSpec("sig1"), GeneratorSpec("sig2")]
    for spec in specs:
        assert W.letter_img(n, spec) == genfam.named(n, spec).img


# --- failure accounting -------------------------------------------------------------


def _fake_cli(stdout, rc=0, exc=None):
    def main(argv):
        if exc is not None:
            raise exc
        sys.stdout.write(stdout)
        return rc

    return {"cli": types.SimpleNamespace(main=main)}


def _doc(result, status="ok"):
    return json.dumps({"status": status, "result": result, "params": {}, "timing_ms": 0})


THM1 = W.CLAIMS_N8[0]


@pytest.mark.parametrize(
    "mods",
    [
        _fake_cli(_doc({"size": 8511, "generated": 8510, "generators": 178})),
        _fake_cli(_doc({"size": 8511})),
        _fake_cli(_doc({"size": 8511, "generated": 8511}, status="violation"), rc=2),
        _fake_cli(_doc({"size": 8511, "generated": 8511}), rc=1),
        _fake_cli("count 8511\n"),
        _fake_cli("", exc=ValueError("boom")),
    ],
    ids=["mismatch", "missing-key", "violation", "nonzero-exit", "not-json", "exception"],
)
def test_wrong_cli_answers_are_failed_operations(mods):
    times, failures = passrun.run_ops([THM1], mods, [None])
    assert len(times) == 1 and len(failures) == 1


def test_right_cli_answer_passes():
    mods = _fake_cli(_doc({"size": 8511, "generated": 8511, "generators": 178}))
    assert passrun.run_ops([THM1], mods, [None])[1] == []


def _fake_factor(word):
    def factorize(a):
        return word

    return {"factor": types.SimpleNamespace(factorize_j=factorize, factorize_g=factorize)}


A = (3, 0, 1, 0, 0, 0)  # n=6: 1>3 3>1, in IF
EPS = [GeneratorSpec("eps", i) for i in (2, 4, 5, 6)]
BETA = W.named_letter(6, "beta", 1, 3)  # 2 fixed, 1 and 3 dropped: not A


@pytest.mark.parametrize(
    "target, letters",
    [
        ("J", (pinj.PartialInjection(6, BETA),)),  # wrong product
        ("J", tuple(EPS) + (pinj.PartialInjection(6, A),)),  # rank-2 letter
        ("G", (GeneratorSpec("eps", 2),)),  # not in set_g
        ("G", ()),  # empty word is the identity
    ],
)
def test_wrong_words_are_failed_operations(target, letters):
    op = W.FactorOp(target, A)
    mods = _fake_factor(Word(6, letters))
    assert len(passrun.run_ops([op], mods, [pinj.PartialInjection(6, A)])[1]) == 1


def test_right_word_passes():
    from fencemonoid import factor

    a = pinj.PartialInjection(6, A)
    for target, fn in (("J", factor.factorize_j), ("G", factor.factorize_g)):
        op = W.FactorOp(target, A)
        assert W.check_word(op, fn(a)) is None


# --- host speed conversion -------------------------------------------------------


def test_meter_converts_wall_time_to_reference_seconds():
    meter = hostspeed.Meter()
    ref = hostspeed.PROBE_REF_S
    # probes of twice the reference time around [10, 11], one of them inside
    meter.probes = [(9.9, 9.9 + 2 * ref), (10.5, 10.5 + 2 * ref), (11.1, 11.1 + 2 * ref)]
    meter.busy = [(9.0, 9.001)] + meter.probes  # a warm-up probe is busy, not a sample
    wall = 1.0 - 2 * ref
    assert meter.convert(10.0, 11.0) == pytest.approx((wall / 2, wall, 2.0))
    # a short interval takes the probes within WINDOW_S of it
    assert meter.convert(10.4, 10.401) == pytest.approx((0.0005, 0.001, 2.0))
    with pytest.raises(RuntimeError):
        meter.convert(20.0, 21.0)


def test_meter_probes_a_real_pass():
    meter = hostspeed.Meter(interval=0.01)
    meter.start()
    t0 = time.monotonic()
    while time.monotonic() < t0 + 0.2:
        sum(range(1000))
    t1 = time.monotonic()
    meter.sample()
    meter.stop()
    assert len(meter.probes) >= 12 and len(meter.busy) == len(meter.probes) + 8
    ref_s, wall_s, slowdown = meter.convert(t0, t1)
    assert 0 < wall_s < t1 - t0 and ref_s == pytest.approx(wall_s / slowdown)


# --- spans and self time ---------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 1.5, 2.0, 1],
        ["b", 3.0, 6.0, 0],  # overlaps a on [3, 4]: covered once
        ["a", 8.0, 12.0, 0],  # reaches past root's end: clipped at 10
        ["root", 20.0, 21.0, -1],
    ]
    table = tracing.self_times(spans)
    assert table["root"] == [2, 11.0, pytest.approx(1.0 + 10.0 - (5.0 + 2.0))]
    assert table["a"] == [2, 7.0, pytest.approx(2.5 + 4.0)]
    assert table["b"] == [1, 3.0, 3.0]
    assert table["leaf"] == [1, 0.5, 0.5]


def test_tracer_nests_spans_and_counts_kernel_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    test = tracer.counter("k", lambda x: x, membership=True)
    inner = tracer.span("inner", lambda x: test(x))
    outer = tracer.span("outer", lambda x: inner(x) + test(x))
    assert outer(2) == 4
    # name, parent, membership tests made inside the span
    assert [(r[0], r[3], r[5] - r[4]) for r in tracer.spans] == [("outer", -1, 2), ("inner", 0, 1)]
    assert tracer.counts["k.calls"] == 2


def test_missing_symbols_give_absent_metrics():
    def build(n, which="IF"):
        fence_mod.in_if(None)
        return [1, 2, 3]

    fence_mod = types.SimpleNamespace(in_if=lambda a: True)
    mods = {"enumeration": types.SimpleNamespace(build=build), "fence": fence_mod}
    tracer = tracing.Tracer()
    tracing.install(tracer, types.SimpleNamespace(), mods)
    mods["enumeration"].build(3)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["enumeration.build.elements"] == (3, "count")
    assert metrics["fence.in_if.calls"] == (1, "count")
    assert "enumeration.build.candidates" not in metrics  # needs fence.in_pfi too
    assert "factor.factorize_j.calls" not in metrics


def test_install_reaches_every_rebound_name():
    """Traced in a child process, so this process keeps unwrapped modules."""
    code = """
import importlib, json, sys
import tracing
import fencemonoid
mods = {m: importlib.import_module("fencemonoid." + m) for m in
        ("cli", "enumeration", "factor", "fence", "genfam", "greens", "pinj")}
tracer = tracing.Tracer()
tracing.install(tracer, fencemonoid, mods)
for mod in [fencemonoid, *mods.values()]:
    assert getattr(mod, "in_if", None) in (None, mods["fence"].in_if), mod
a = mods["pinj"].parse("n=6:[1>1 2>2 3>3 5>5 6>6]")
mods["factor"].factorize_g(a)
mods["cli"].main(["verify", "--claim", "thm1", "--n", "4", "--format", "json"])
print(json.dumps(tracing.layer_metrics(tracer)))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    m = {k: v[0] for k, v in json.loads(proc.stdout.splitlines()[-1]).items()}
    assert m["enumeration.build.candidates"] == 209  # |I_4|, all tested by in_if
    assert m["enumeration.build.elements"] == W.IF_SIZES[4]
    assert m["pinj.parse.calls"] == 1
    assert m["factor.factorize_j.calls"] == 1 and m["factor.provenance.letter"] == 1
    assert m["genfam.g_word_for.calls"] >= 1
    assert m["enumeration.closure.calls"] == 1  # thm1 only; the G word needs no BFS
    assert m["factor.word_letters"] >= 1


# --- end-to-end aggregation and metric names ------------------------------------------


class _FakeRunner:
    """Three passes, the second and third with one slow operation each."""

    PASSES = ([0.001, 0.002, 0.004], [0.001, 0.009, 0.004], [0.005, 0.002, 0.004])

    def __init__(self):
        self.calls = []
        self.passes = 0

    def spawn(self, *flags, cpu=None):
        self.calls.append(flags)
        report = {"setup_s": 0.1 * len(self.calls)}
        if "--setup-only" in flags:
            return report, 0.5
        report.update(op_seconds=self.PASSES[self.passes], attempted=3, failures=[],
                      peak_rss_mb=30.0, op_names=[], wall_run_s=0.02, slowdown=1.5)
        self.passes += 1
        return report, 0.0 if self.passes < 3 else 1e9  # no time for a fourth pass


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_untraced_metrics_match_benchmark_json():
    passes, metrics, info = run.untraced(_FakeRunner(), seconds=60)
    assert info["passes"] == 3 and info["op_samples"] == 3 and info["setup_samples"] == 7
    assert metrics["setup_s"] == (pytest.approx(0.4), "s")  # median of 0.1 .. 0.7
    assert metrics["run_s"] == (pytest.approx(0.011), "s")  # median of 7, 14, 11 ms
    # per-operation medians over the passes are 1, 2, 4 ms: the slow outliers drop out
    assert metrics["op_p50_ms"] == (2.0, "ms") and metrics["op_p99_ms"] == (4.0, "ms")
    spec = {(m["name"], m["unit"]) for m in _benchmark_json()["end_to_end"]}
    assert spec == {(name, unit) for name, (_, unit) in metrics.items()}


def test_per_layer_names_match_benchmark_json():
    spec = {(m["name"], m["unit"], m["better"]) for m in _benchmark_json()["per_layer"]}
    ours = {(name, unit, better) for name, unit, better, _, _ in tracing.METRICS}
    ours |= {(f"{op.name}.s", "s", "lower") for op in W.CLI_OPS}
    ours |= {("trace.run_s", "s", "lower"), ("trace.overhead_s", "s", "lower")}
    ours |= {("error_rate", "ratio", "lower")}
    assert spec == ours
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(W.WORKLOADS)


def test_percentile_is_nearest_rank():
    assert run.percentile([4, 1, 3, 2], 0.5) == 2
    assert run.percentile(list(range(1, 201)), 0.99) == 198
    assert run.percentile([7], 0.99) == 7
