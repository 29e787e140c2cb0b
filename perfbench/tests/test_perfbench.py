"""Tests of the benchmark itself: seeded inputs, failure accounting and the
metric names it prints.

    python3 -m pytest perfbench/tests     # from the root of a checkout
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("name", ["reports", "roots"])
def test_same_seed_gives_identical_model_files(tmp_path, name):
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        wl = workloads.Workload(name, seed, tmp_path / sub)
        wl.requests(0)
        wl.requests(1)
    a, b, c = (_files(tmp_path / sub) for sub in "abc")
    assert a and a == b
    assert a.keys() == c.keys() and a != c


def _bench(tmp_path, name="acceptance"):
    return run.Bench(ROOT, name, 1, 1, tmp_path)


def _request(wl, kind, index=1):
    return next(r for r in wl.requests(index) if r.kind == kind)


def test_edited_golden_byte_fails(tmp_path):
    wl = workloads.Workload("reports", 1, tmp_path)
    req = _request(wl, "report aw11 structured")
    text = workloads.golden("report-aw11.json")
    assert req.check((0, text)) is None
    k = text.index("ALL_T")
    assert req.check((0, text[:k] + "B" + text[k + 1:])) is not None
    assert req.check((1, text)) is not None


def _flip(text):
    data = json.loads(text)
    if data["harmonicity"]["kind"] == "ALL_T":
        data["harmonicity"] = {"kind": "ROOT_SET", "roots": {"3/7": 1}}
    else:
        data["harmonicity"] = {"kind": "ALL_T", "roots": {}}
    return json.dumps(data)


@pytest.mark.parametrize("name,kind", [("roots", "report planted root"),
                                       ("reports", "report generated")])
def test_flipped_verdict_fails(tmp_path, name, kind):
    wl = workloads.Workload(name, 3, tmp_path)
    req = _request(wl, kind)
    rc, text = req.run()
    assert req.check((rc, text)) is None
    assert req.check((rc, _flip(text))) is not None


def test_fourth_failing_acceptance_check_fails(tmp_path):
    wl = workloads.Workload("acceptance", 1, tmp_path)
    spin4 = _request(wl, "check_spin4")
    red = workloads.EXPECTED_RED
    names = wl.names["check_spin4"]
    assert spin4.check([(n, n not in red) for n in names]) is None
    assert spin4.check([(n, True) for n in names]) is not None
    cp3 = _request(wl, "check_cp3")
    assert cp3.check([("cp3-model", True)]) is None
    assert cp3.check([("cp3-model", False)]) is not None


def test_tampered_output_is_counted(tmp_path):
    bench = _bench(tmp_path)
    wl = workloads.Workload("acceptance", 1, tmp_path)
    cp3 = _request(wl, "check_cp3")
    bench.samples = [run.Sample(cp3, 0.1, 0.1, out) for out in (
        [("cp3-model", True)], [("cp3-model", False)], RuntimeError("boom"))]
    bench.check_all()
    assert (bench.tally.attempted, bench.tally.failed) == (3, 2)


def test_ceiling_counts_unfinished_requests(tmp_path):
    bench = _bench(tmp_path)

    def spin():
        end = time.monotonic() + 5
        while time.monotonic() < end:
            pass

    slow = workloads.Request("slow", spin, lambda out: None, [])
    bench.deadline = time.monotonic() + 0.2
    assert bench.run_pass([slow, slow, slow]) is None
    assert bench.stopped
    assert (bench.tally.attempted, bench.tally.failed) == (3, 3)


def test_tracer_metric_names_match_spec():
    names = set(tracer.metric_units()) | set(run.TRACE_METRICS)
    assert names == {m["name"] for m in SPEC["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in SPEC["end_to_end"]}


def test_tracer_restores_the_program(tmp_path):
    from spinharm import homogeneous, scalars
    before = (scalars.poly_gcd, homogeneous.rational_roots,
              scalars.Scalar.__init__)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert homogeneous.rational_roots is not before[1]
        workloads.call_cli(("report", "aw11"))
    finally:
        tr.uninstall()
    assert (scalars.poly_gcd, homogeneous.rational_roots,
            scalars.Scalar.__init__) == before
    assert not tr.missing
    m = tr.metrics(1)
    assert m["scalars.rational_roots.calls"] > 0
    assert m["cli.main.self_s"] > 0 and m["scalars.poly_gcd.const_share"] > 0


def _run(cwd, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reports",
         "--seed", "5", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_spec(trace, section):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
