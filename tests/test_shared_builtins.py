"""Built-in models are shared per process; model files never are.

`load_model(name)` returns the one parsed model of a built-in, and
`ModelAnalysis.of(model)` the one analysis kept on a model.  It keeps each
stage once, the cleared values the verdicts are decided on once for both
positive_only settings, and each verdict per setting.  These tests pin what
is shared, that
nothing else is (a model file is read and analysed afresh on every call),
that the shared results cannot be written into, and that a process which
repeats requests prints what fresh processes print.
"""

import contextlib
import copy
import gc
import io
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import spinharm
from spinharm import cli, coeffexpr, gstruct, homogeneous, scalars, verify
from spinharm.clifford import SpinRep
from spinharm.gstruct import InternalInvariantError, SpinorStructure
from spinharm.homogeneous import (BUILTIN_MODELS, NEVER, HomogeneousModel,
                                  ModelAnalysis, Verdict, load_model)
from spinharm.scalars import ONE


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def _perturbed(name, dst, src, factor, label):
    """The built-in with slot dst gaining slot src times factor."""
    d = load_model(name).to_dict()
    extra = copy.deepcopy(d["lambda"][src])
    for ent in extra:
        ent["coeff"] = f"({ent['coeff']})*({factor})"
    d["lambda"][dst] = d["lambda"][dst] + extra
    d["name"] = label
    return d


def test_builtin_model_and_analysis_are_shared():
    for name in BUILTIN_MODELS:
        model = load_model(name)
        assert load_model(name) is model
        an = ModelAnalysis.of(model)
        assert an.model is model
        assert ModelAnalysis.of(model) is an
        assert ModelAnalysis(model) is not an   # the constructor is fresh
    assert homogeneous._builtin_model.cache_info().currsize == \
        len(BUILTIN_MODELS)


def test_verdicts_are_kept_per_flag(monkeypatch):
    # each stage decides both flags on one cleared value, once per flag,
    # and hands out the same Verdict on every call
    decided = []
    verdict_of = homogeneous.vanishing_verdict

    def recorded(values, *args):
        decided.append(values)
        return verdict_of(values, *args)

    monkeypatch.setattr(homogeneous, "vanishing_verdict", recorded)
    for name in BUILTIN_MODELS:
        an = ModelAnalysis.of(load_model(name))
        for stage in (an.canonical_parameters, an.harmonicity,
                      an.laplacian_cross_check):
            decided.clear()
            verdicts = {flag: stage(flag) for flag in (True, False)}
            for flag, verdict in verdicts.items():
                assert type(verdict) is Verdict
                assert stage(flag) is verdict
            assert stage() is verdicts[True]
            values, again = decided   # one decision per flag
            assert values is again
        for stage in (an.torsion, an.classify):
            assert stage() is stage()
        (s, eta), (s2, eta2) = an.extract_S_eta(), an.extract_S_eta()
        assert s is s2 and eta == eta2


def test_second_flag_lifts_and_differentiates_nothing(monkeypatch):
    # after a report, the same report with the other positive_only setting
    # decides its verdicts on the cleared values already kept
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in ((SpinRep, "lift_act"), (SpinRep, "act_vector"),
                        (ModelAnalysis, "divergence_endo")):
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    for name in BUILTIN_MODELS:
        assert run_cli("report", name, "--format", "structured")[0] == 0
        assert calls["lift_act"] > 0 and calls["divergence_endo"] == 1
        calls.clear()
        assert run_cli("report", name, "--format", "structured",
                       "--include-negative-roots")[0] == 0
        assert calls == Counter(), name


def test_a_stage_that_raises_keeps_nothing(monkeypatch, capsys):
    structure = SpinorStructure.shared(7, [0, 0, 0, 0, 1, 0, 0, 0])
    for _ in range(2):
        with pytest.raises(ValueError, match="needs n = 6"):
            structure.almost_complex()

    def breach(self):
        raise InternalInvariantError("phi component nonzero")

    monkeypatch.setattr(ModelAnalysis, "_extract", breach)
    for _ in range(2):
        assert run_cli("report", "cp3") == (3, "")
        assert "invariant breach" in capsys.readouterr().err


def test_repeated_builtin_report_does_no_work(monkeypatch):
    # the second visit to a built-in parses no coefficient, lifts no slot
    # and takes no gcd: only the output is built again
    argvs = [argv for name in BUILTIN_MODELS
             for argv in (("report", name, "--format", "structured"),
                          ("report", name, "--at", "3/2"),
                          ("report", name, "--include-negative-roots"))]
    first = {argv: run_cli(*argv) for argv in argvs}
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    gcd = counted("poly_gcd", scalars.poly_gcd)
    monkeypatch.setattr(scalars, "poly_gcd", gcd)
    monkeypatch.setattr(homogeneous, "poly_gcd", gcd)
    monkeypatch.setattr(coeffexpr, "parse_scalar",
                        counted("parse_scalar", coeffexpr.parse_scalar))
    monkeypatch.setattr(SpinRep, "lift_act",
                        counted("lift_act", SpinRep.lift_act))
    for argv in argvs:
        assert run_cli(*argv) == first[argv], argv
    assert calls == Counter()


def test_lambda_slots_are_read_only():
    model = load_model("cp3")
    dumped = model.dumps()
    with pytest.raises(TypeError):
        model.lam[0].terms[(3, 5)] = ONE
    golden = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "perfbench", "golden", "dump-cp3.json")
    with open(golden, encoding="utf-8") as fh:
        assert run_cli("dump", "cp3") == (0, fh.read()) == (0, dumped)


def test_model_file_rewritten_between_reports(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(load_model("cp3").dumps(), encoding="utf-8")
    first = run_cli("report", str(path), "--format", "structured")
    path.write_text(load_model("aw11").dumps(), encoding="utf-8")
    second = run_cli("report", str(path), "--format", "structured")
    assert first == run_cli("report", "cp3", "--format", "structured")
    assert second == run_cli("report", "aw11", "--format", "structured")


def test_two_loads_of_a_file_share_nothing(tmp_path, g2_toy_dict):
    # nothing but the immutable coefficient values of the fold table
    path = tmp_path / "g2toy.json"
    path.write_text(HomogeneousModel.from_dict(g2_toy_dict).dumps(),
                    encoding="utf-8")
    a, b = load_model(str(path)), load_model(str(path))
    assert a is not b
    an_a, an_b = ModelAnalysis.of(a), ModelAnalysis.of(b)
    assert an_a is not an_b
    assert ModelAnalysis.of(a) is not an_a   # a file model keeps none
    assert an_a.harmonicity() is not an_b.harmonicity()
    assert an_a.harmonicity() == an_b.harmonicity()


def test_generated_file_reports_keep_no_model(tmp_path):
    # with the collector off, a model left in a reference cycle (say, with
    # its analysis) would outlive its report
    gc.disable()
    try:
        for k in range(20):
            name = BUILTIN_MODELS[k % 3]
            label = f"generated-{k}"
            path = tmp_path / f"{label}.json"
            path.write_text(HomogeneousModel.from_dict(
                _perturbed(name, 0, 2, f"t-{k + 1}/7", label)).dumps(),
                encoding="utf-8")
            code, _ = run_cli("report", str(path), "--format", "structured")
            assert code == 0
            assert run_cli("report", name)[0] == 0
        kept = [o.name for o in gc.get_objects()
                if isinstance(o, HomogeneousModel)
                and o.name.startswith("generated-")]
    finally:
        gc.enable()
    assert kept == []
    assert homogeneous._builtin_model.cache_info().currsize <= 3


def test_shared_results_are_read_only():
    model = load_model("aw11")
    with pytest.raises(TypeError):
        model.lam[0] = model.lam[1]
    an = ModelAnalysis.of(model)
    canonical = an.canonical_parameters()
    assert dict(canonical.roots) == {Fraction(1, 8): 1}
    with pytest.raises(TypeError):
        canonical.roots[Fraction(1, 8)] = 2
    for verdict in (canonical, an.harmonicity(),
                    an.laplacian_cross_check()):
        with pytest.raises(TypeError):
            verdict.roots[Fraction(1)] = 1
        with pytest.raises(TypeError):
            verdict.kind = NEVER
        with pytest.raises(TypeError):
            verdict.roots = {}
        with pytest.raises(TypeError):
            del verdict.kind
    assert dict(an.canonical_parameters().roots) == {Fraction(1, 8): 1}
    assert an.harmonicity().to_dict() == {"kind": "ALL_T", "roots": {}}
    report = run_cli("report", "aw11")[1]
    assert "canonical parameters: ROOT_SET {1/8 (mult 1)}\n" in report
    assert "harmonicity: ALL_T\n" in report


def test_kept_s_and_eta_cannot_be_written_into():
    golden = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "perfbench", "golden", "report-aw11.json")
    with open(golden, encoding="utf-8") as fh:
        want = (0, fh.read())
    argv = ("report", "aw11", "--format", "structured")
    assert run_cli(*argv) == want
    an = ModelAnalysis.of(load_model("aw11"))
    s, eta = an.extract_S_eta()
    with pytest.raises(TypeError):
        s.data[0][0] = ONE
    eta.append(ONE)
    assert len(an.extract_S_eta()[1]) == 7
    assert run_cli(*argv) == want


def test_interleaved_requests_print_fresh_process_bytes():
    runs = []
    for name, t in (("cp3", "1/2"), ("spin4", "3/2"), ("aw11", "5/4")):
        runs += [("report", name, "--format", "structured"),
                 ("report", name, "--include-negative-roots", "--format",
                  "structured"),
                 ("report", name, "--at", t),
                 ("dump", name)]
    runs.append(("verify", "--trials", "20"))
    src = os.path.dirname(os.path.dirname(spinharm.__file__))
    script = "import sys, spinharm.cli\nsys.exit(spinharm.cli.main())\n"
    fresh = {}
    for argv in runs:
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=300)
        assert done.stderr == "", argv
        fresh[argv] = (done.returncode, done.stdout)
    for argv in runs + runs[::-1]:
        assert run_cli(*argv) == fresh[argv], argv


def _golden_report(name):
    golden = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "perfbench", "golden", f"report-{name}.json")
    with open(golden, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_kept_classes_torsion_and_cleared_values_are_read_only(name):
    an = ModelAnalysis.of(load_model(name))
    classes = an.classify()
    for label in classes.coords:
        with pytest.raises(TypeError):
            classes.coords[label] = (ONE,)
        with pytest.raises(TypeError):
            classes.coords[label][0] = ONE
    for label, matrix in classes.components.items():
        with pytest.raises(TypeError):
            matrix.data[0][0] = ONE
        with pytest.raises(TypeError):
            classes.components[label] = matrix
    for slots in (an.torsion(), an.cleared):
        with pytest.raises(TypeError):
            slots[0] = slots[1]
        for slot in slots:
            with pytest.raises(TypeError):
                slot.terms[(1, 2)] = ONE
    with pytest.raises(TypeError):
        classes.w4_vector[0] = ONE
    for part in (an._cleared_residual, *an._cleared_cross):
        with pytest.raises(TypeError):
            part[0] = ONE
    assert run_cli("report", name, "--format", "structured") == \
        (0, _golden_report(name))


def test_second_structured_report_builds_no_component_matrix(monkeypatch):
    assert run_cli("report", "cp3", "--format", "structured")[0] == 0
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for attr in ("_symmetric", "_skew"):
        monkeypatch.setattr(gstruct, attr,
                            counted(attr, getattr(gstruct, attr)))
    assert run_cli("report", "cp3", "--format", "structured") == \
        (0, _golden_report("cp3"))
    assert calls == Counter()
    # the counters see a build: fresh classes build their matrices
    ModelAnalysis.of(load_model("cp3")).classify().scale(ONE).components
    assert calls["_symmetric"] and calls["_skew"]


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_classes_labels_follow_the_dimension(name):
    classes = ModelAnalysis.of(load_model(name)).classify()
    if classes.structure.n == 6:
        assert set(classes.coords) == {"W1+", "W1-", "W2+", "W2-", "W3",
                                       "W4", "W5"}
        assert classes.w4_vector == ()
    else:
        assert set(classes.coords) == {"W1", "W2", "W3", "W4"}
        assert len(classes.w4_vector) == 7


def test_spin4_checks_survive_a_torsion_write():
    def results():
        return [(r.name, r.ok, r.detail) for r in verify.check_spin4()]

    before = results()
    slot = ModelAnalysis.of(load_model("spin4")).torsion()[3]
    with contextlib.suppress(TypeError):
        slot.terms[(1, 2)] = ONE
    assert results() == before
