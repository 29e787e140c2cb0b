"""Reports of models beyond the built-ins, pinned byte for byte.

The models under tests/data/models divide built-in Lambda entries by
(t + 3), (t^2 + 1) or (2t - 1), or are the fixtures with a pole at t = 1,
g2_toy_dict and eta_toy_dict.  Their structured reports (with and without
--include-negative-roots) and --at reports were recorded by
tests/data/record_reports.py before the pipeline cleared the model's common
denominator, so they pin that every output kept its bytes.
"""

import importlib.util
import io
import json
from pathlib import Path

import pytest

from spinharm.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "record_reports", Path(__file__).parent / "data" / "record_reports.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


@pytest.mark.parametrize("variant", sorted(record.VARIANTS))
@pytest.mark.parametrize("name", sorted(record.MODELS))
def test_report_matches_recorded_bytes(name, variant):
    out = io.StringIO()
    assert main(record.report_args(name, variant), out=out) == 0
    expected = record.report_path(name, variant).read_text(encoding="utf-8")
    assert out.getvalue() == expected


@pytest.mark.parametrize("name", sorted(record.MODELS))
def test_model_files_are_the_recorded_records(name):
    on_disk = json.loads(record.model_path(name).read_text(encoding="utf-8"))
    assert on_disk == record.MODELS[name][0]


def test_fixture_models_match_conftest(g2_toy_dict, eta_toy_dict):
    assert record.MODELS["g2toy"][0] == g2_toy_dict
    assert record.MODELS["etatoy"][0] == eta_toy_dict
