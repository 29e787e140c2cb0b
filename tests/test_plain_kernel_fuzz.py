"""The plain reference kernel on small fuzzed model files, byte for byte.

`tests/test_plain_kernel.py` compares the two kernels on the pinned models;
this adds records drawn, derandomized, from the fuzz test's strategy.  Only
records whose exponents all stay below 4 are kept: the "powers" and
"cleared" shapes raise the degrees to where the plain kernel's textbook gcd
takes minutes.  Each record is reported structured and with negative roots,
through both kernels in one fresh interpreter each; stdout, stderr and the
exit code must match, refusals (exit 2) included.
"""

import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, Phase, given, settings

from test_fuzz_model_file import _model_record
from test_plain_kernel import ROOT, RUNNER

RECORDS = 25


def _small(record):
    return all(int(e) < 4
               for e in re.findall(r"\^(-?\d+)", json.dumps(record)))


def _draw_records():
    records = []

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(_model_record())
    def draw(record):
        if len(records) < RECORDS and _small(record):
            records.append(record)

    draw()
    return records


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plain-fuzz")
    commands = []
    for k, record in enumerate(_draw_records()):
        path = tmp / f"record-{k}.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        commands += [["report", str(path), "--format", "structured"],
                     ["report", str(path), "--include-negative-roots"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"),
         *filter(None, [env.get("PYTHONPATH")])])
    runs = {}
    for kernel in ("real", "plain"):
        proc = subprocess.run(
            [sys.executable, "-c", RUNNER, kernel],
            input=json.dumps(commands), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[kernel] = json.loads(proc.stdout)
    return commands, runs


def test_fuzzed_records_print_the_same_bytes_on_both_kernels(outputs):
    commands, runs = outputs
    assert runs["real"]["kernel"] == "spinharm.scalars"
    assert runs["plain"]["kernel"] == "plain_kernel"
    assert len(commands) == 2 * RECORDS
    for argv, real, plain in zip(commands, runs["real"]["results"],
                                 runs["plain"]["results"]):
        assert plain == real, argv


def test_fuzzed_records_reach_reports_and_refusals(outputs):
    codes = {code for _, _, code in outputs[1]["real"]["results"]}
    assert {0, 2} <= codes
