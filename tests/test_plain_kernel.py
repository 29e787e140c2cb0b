"""The whole CLI on the plain reference kernel (`tests/plain_kernel.py`),
byte for byte against the real one.

Both kernels run the same commands, each in one fresh interpreter; every
command's stdout, stderr and exit code must match.  The fast paths of
`spinharm.scalars` (shared ZERO, ONE and small constants, the no-gcd
lanes, root isolation by continued fractions) are speed only exactly when
they do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODELS = ["cp3", "spin4", "aw11"] + sorted(
    f"tests/data/models/{p.name}"
    for p in (ROOT / "tests" / "data" / "models").glob("*.json"))
REPORT_FLAGS = {"text": [], "structured": ["--format", "structured"],
                "negative": ["--include-negative-roots"],
                "at": ["--at", "3/2"]}
COMMANDS = {
    **{f"report-{Path(m).stem}-{flag}": ["report", m, *extra]
       for m in MODELS for flag, extra in REPORT_FLAGS.items()},
    **{f"dump-{Path(m).stem}": ["dump", m] for m in MODELS},
    "report-pole-at-1": ["report", "tests/data/models/pole.json", "--at", "1"],
    "verify-trials-5": ["verify", "--trials", "5"],
}

# runs each command of the JSON list on stdin through cli.main, after
# putting the plain kernel in place when argv[1] is "plain"; prints the
# kernel module the pipeline imported, then [stdout, stderr, exit code]
# per command
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "plain":
    import plain_kernel
    plain_kernel.install()
from spinharm import cli, homogeneous
results = []
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps({"kernel": homogeneous.Scalar.__module__,
                  "results": results}))
"""


def _run(kernel):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"),
         *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, kernel],
        input=json.dumps(list(COMMANDS.values())), capture_output=True,
        text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    return data["kernel"], dict(zip(COMMANDS, data["results"]))


@pytest.fixture(scope="module")
def outputs():
    return {kernel: _run(kernel) for kernel in ("real", "plain")}


def test_each_run_used_its_kernel(outputs):
    assert outputs["real"][0] == "spinharm.scalars"
    assert outputs["plain"][0] == "plain_kernel"


@pytest.mark.parametrize("name", list(COMMANDS))
def test_plain_kernel_prints_the_same_bytes(outputs, name):
    real, plain = outputs["real"][1][name], outputs["plain"][1][name]
    assert plain == real


def test_the_commands_cover_each_outcome(outputs):
    """The compared runs include a refusal and a failing verify, so the
    comparison covers stderr and exit codes 1 and 2 too."""
    real = outputs["real"][1]
    assert real["report-pole-at-1"][1:] == [
        "error: t = 1 is a pole of the model's coefficients "
        "(slot 1, entry (1, 2))\n", 2]
    assert real["verify-trials-5"][2] == 1
    assert all(real[f"report-{Path(m).stem}-structured"][2] == 0
               for m in MODELS)
