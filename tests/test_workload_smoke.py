"""The benchmark's own output checks, run once per workload in tier-1.

`perfbench/workloads.py` builds each workload's requests from a seed and
gives every request the check that decides whether its output is correct:
golden bytes for the built-in reports and dumps, planted verdicts, the
float oracle, and the acceptance check names.  Here each workload's first
two timed passes run once, untimed, so a changed golden byte or verdict
fails the test suite and not only a benchmark run; the second pass meets
each built-in model again, as the shared model of its name.  The module is imported from
its file and only read; it writes its model files under tmp_path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"
SEED = 7


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


@pytest.mark.parametrize("name", ["reports", "roots", "acceptance"])
def test_two_passes_pass_their_own_checks(workloads, tmp_path, name):
    assert name in workloads.WORKLOADS
    wl = workloads.Workload(name, SEED, tmp_path)
    for index in (1, 2):
        requests = wl.requests(index)
        assert requests
        for req in requests:
            assert req.check(req.run()) is None, (index, req.kind)
