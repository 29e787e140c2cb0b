"""Reports of models beyond the built-ins, pinned byte for byte.

The models under tests/data/models divide built-in Lambda entries by
(t + 3), (t^2 + 1) or (2t - 1), mix parities of u = sqrt(t) (cp3-mixed),
or are the fixtures with a pole at t = 1, g2_toy_dict and eta_toy_dict.
Their structured reports (with and without --include-negative-roots) and
--at reports were recorded by tests/data/record_reports.py; all but
cp3-mixed's before the pipeline cleared the model's common denominator, so
they pin that every output kept its bytes.
"""

import importlib.util
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from spinharm import numeric
from spinharm.cli import main
from spinharm.homogeneous import HomogeneousModel

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


def test_cp3_mixed_harmonic_root_matches_float_oracle():
    # Lambda mixes parities of u, so no residual is a function of t; the
    # exact verdict is ROOT_SET {2}, and the float residual agrees
    out = io.StringIO()
    assert main(record.report_args("cp3-mixed", "structured.json"),
                out=out) == 0
    assert json.loads(out.getvalue())["harmonicity"] == \
        {"kind": "ROOT_SET", "roots": {"2": 1}}
    model = HomogeneousModel.from_dict(record.MODELS["cp3-mixed"][0])
    assert numeric.residual_norm(model, Fraction(2)) < 1e-9
    assert numeric.residual_norm(model, Fraction(7, 4)) > 1e-9
