"""Each distinct cleared Wang-map slot is analysed once per process.

`homogeneous.slot_record` and `slot_squares` keep, per (structure, common
denominator D, slot as written), the cleared slot and every per-slot value
the pipeline reads, in one bounded table (`_SLOTS`).  These tests pin that
a model sharing slots with one analysed before analyses and clears only
its new slots, that a new D clears the shared slots afresh, that a warm
table prints the recorded bytes, that the table keeps within
MAX_SLOT_TABLE_BYTES, that a kept value cannot be written into, that a
build that raises keeps nothing, and that a report refused before the
cross-check builds no squares.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from spinharm import homogeneous, linalg
from spinharm.cli import main
from spinharm.clifford import SpinRep
from spinharm.coeffexpr import MAX_SLOT_TABLE_BYTES
from spinharm.gstruct import SpinorParts, SpinorStructure
from spinharm.homogeneous import (BUILTIN_MODELS, HomogeneousModel,
                                  ModelAnalysis, ModelError, load_model,
                                  slot_record, slot_squares)
from spinharm.scalars import ONE, Poly
from test_fuzz_model_file import _model_record
from test_pinned_reports import record

GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden"
SLOW = Path(__file__).parent / "data" / "slow"
# the model files there, each accepted by every size limit
SLOW_MODELS = ("slow-cleared", "worst-accepted", "worst-case-14",
               "worst-case-272")


def _perturbed_aw11(p, q):
    """aw11's record with slot 1 gaining slot 2 times (t - p/q): its
    common denominator stays u, so slots 2 to 7 clear as aw11's do."""
    d = load_model("aw11").to_dict()
    d["lambda"][0] += [dict(ent, coeff=f"({ent['coeff']})*(t-{p}/{q})")
                       for ent in d["lambda"][1]]
    d["name"] = f"aw11-{p}-{q}"
    return d


def _report(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


def _within_bound():
    table = homogeneous._SLOTS
    assert table.size <= MAX_SLOT_TABLE_BYTES
    assert table.size == sum(entry[-1] for entry in table.values())


def test_a_perturbed_copy_lifts_only_its_new_slot(tmp_path, monkeypatch):
    assert _report(["report", "aw11"])[0] == 0
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(_perturbed_aw11(3, 7)), encoding="utf-8")
    phi0 = load_model("aw11").phi0
    on_phi0 = []
    lift_act = SpinRep.lift_act

    def counted(rep, omega, spinor):
        on_phi0.append(spinor == phi0)
        return lift_act(rep, omega, spinor)

    monkeypatch.setattr(SpinRep, "lift_act", counted)
    assert _report(["report", str(path)])[0] == 0
    assert on_phi0.count(True) == 1


def test_a_perturbed_copy_clears_only_its_new_slot(monkeypatch):
    # slots 2 to 7 are aw11's as written, under aw11's D = u: their
    # records are hits, and only slot 1's six entries are multiplied out
    assert _report(["report", "aw11"])[0] == 0
    an = ModelAnalysis(HomogeneousModel.from_dict(_perturbed_aw11(3, 7)))
    an.common_denominator
    calls = []
    exact_div = Poly.exact_div

    def counted(a, b):
        calls.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(Poly, "exact_div", counted)
    an._slots
    assert len(calls) == 6


def test_a_new_denominator_clears_the_shared_slots_afresh(tmp_path):
    # an entry 1/(t+1) in slot 1 makes D = u (u + 1), while slots 2 to 7
    # stay aw11's as written: their records under D = u must not be read
    d = load_model("aw11").to_dict()
    d["lambda"][0].append({"i": 1, "j": 2, "coeff": "1/(t+1)"})
    d["name"] = "aw11-pole"
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    argv = ["report", str(path), "--format", "structured"]
    aw11 = ["report", "aw11", "--format", "structured"]
    cold = _report(argv)
    homogeneous._builtin_model.cache_clear()
    assert _report(aw11)[1] == \
        (GOLDEN / "report-aw11.json").read_text(encoding="utf-8")
    homogeneous._SLOTS.clear()
    homogeneous._builtin_model.cache_clear()
    assert _report(aw11)[0] == 0
    assert _report(argv) == cold


def test_records_are_shared_across_term_order_not_across_structures():
    builtin = ModelAnalysis.of(load_model("aw11"))
    d = load_model("aw11").to_dict()
    for entries in d["lambda"]:
        entries.reverse()
    reordered = ModelAnalysis(HomogeneousModel.from_dict(d))
    assert all(a is b for a, b in zip(reordered._slots, builtin._slots))
    assert len(homogeneous._SLOTS) == 7
    d = builtin.common_denominator
    assert [slot_squares(reordered.structure, d, slot)
            for slot in reordered.model.lam] == \
        [slot_squares(builtin.structure, d, slot)
         for slot in builtin.model.lam]
    assert len(homogeneous._SLOTS) == 14
    slots = [[{"i": 1, "j": 2, "coeff": "t"}]]
    for n in (6, 7):
        flat = {"name": "flat", "n": n, "substitution": "t=u",
                "spinor": ["0", "0", "0", "0", "1", "0", "0", "0"],
                "lambda": slots + [[] for _ in range(n - 1)]}
        ModelAnalysis(HomogeneousModel.from_dict(flat))._slots
    # two slots for each n (t e12 and zero), none shared between them
    assert len(homogeneous._SLOTS) == 14 + 4


def test_warm_reports_print_the_recorded_bytes():
    # model files before built-ins, so a built-in reads records a file
    # kept (g2toy shares aw11's slots 2 to 7), then the reverse order on
    # the warm table with every built-in analysed afresh
    runs = [(record.report_args(name, variant),
             record.report_path(name, variant))
            for name in sorted(record.MODELS)
            for variant in sorted(record.VARIANTS)]
    runs += [(["report", name, "--format", "structured"],
              GOLDEN / f"report-{name}.json") for name in BUILTIN_MODELS]
    for order in (runs, runs[::-1]):
        homogeneous._builtin_model.cache_clear()
        for argv, path in order:
            code, out, _ = _report(argv)
            assert code == 0, argv
            assert out == path.read_text(encoding="utf-8"), argv


def test_slot_table_keeps_within_its_bound():
    # far more perturbed copies than the bound holds, each analysed up to
    # its squares: the least recently used go first, and aw11's own slots,
    # read by every copy, stay
    builtin = ModelAnalysis.of(load_model("aw11"))._slots
    kept = []
    for q in range(2, 60):
        an = ModelAnalysis(HomogeneousModel.from_dict(_perturbed_aw11(1, q)))
        kept.append(an._slots[0])
        an._cleared_cross
        _within_bound()
    held = {id(entry[0]) for entry in homogeneous._SLOTS.values()}
    assert id(kept[0]) not in held and id(kept[-1]) in held
    assert {id(r) for r in builtin[1:]} <= held

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzzed=_model_record())
    def analyse(fuzzed):
        with contextlib.suppress(ModelError):
            ModelAnalysis(HomogeneousModel.from_dict(fuzzed))._cleared_cross
        _within_bound()

    analyse()
    for name in SLOW_MODELS:
        before = list(homogeneous._SLOTS)
        text = (SLOW / f"{name}.json").read_text(encoding="utf-8")
        ModelAnalysis(HomogeneousModel.loads(text))._cleared_cross
        _within_bound()
        if name == "slow-cleared":
            # each of its records and squares alone passes the bound: none
            # is kept, and none evicts another
            assert list(homogeneous._SLOTS) == before


def test_a_kept_record_is_read_only():
    cp3 = ModelAnalysis.of(load_model("cp3"))
    copy = ModelAnalysis(HomogeneousModel.from_dict(
        load_model("cp3").to_dict()))
    for mine, theirs in zip(cp3._slots, copy._slots):
        assert mine is theirs
        for spinor in (mine.lifted, mine.column, mine.canonical):
            with pytest.raises(TypeError):
                spinor[0] = ONE
        with pytest.raises(TypeError):
            mine.xi.terms[(1, 2)] = ONE
        with pytest.raises(TypeError):
            mine.cleared.terms[(1, 2)] = ONE
        with pytest.raises(TypeError):
            mine[0] = ONE
    d = cp3.common_denominator
    for slot in cp3.model.lam:
        squares = slot_squares(cp3.structure, d, slot)
        assert squares is slot_squares(copy.structure, d, slot)
        for spinor in (squares, *squares):
            with pytest.raises(TypeError):
                spinor[0] = ONE
    assert _report(["report", "cp3", "--format", "structured"])[1] == \
        (GOLDEN / "report-cp3.json").read_text(encoding="utf-8")


def test_a_record_build_that_raises_keeps_nothing(monkeypatch):
    project = linalg.Subspace.project
    calls = []

    def third_fails(self, coords):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("projection failed")
        return project(self, coords)

    monkeypatch.setattr(linalg.Subspace, "project", third_fails)
    an = ModelAnalysis(load_model("aw11"))
    with pytest.raises(RuntimeError, match="projection failed"):
        an.torsion()
    structure = an.structure
    kept = [entry[0] for entry in homogeneous._SLOTS.values()]
    assert kept == [slot_record(structure, an.common_denominator, slot)
                    for slot in an.model.lam[:2]]
    monkeypatch.undo()
    assert len(an._slots) == 7 and len(homogeneous._SLOTS) == 7
    assert _report(["report", "aw11", "--format", "structured"])[1] == \
        (GOLDEN / "report-aw11.json").read_text(encoding="utf-8")


def test_phi_component_breach_names_the_slot_in_each_model(tmp_path,
                                                          monkeypatch):
    # aw11's slot 2 decomposes with a phi component; a model holding that
    # slot fifth reads the kept record, and the breach names slot 5
    aw11 = ModelAnalysis(load_model("aw11"))
    structure = aw11.structure
    target = structure.rep.lift_act(aw11.cleared[1], structure.phi)
    # reading cleared keeps aw11's records: built again, under the patch
    homogeneous._SLOTS.clear()
    decompose = SpinorStructure.decompose

    def breach(self, psi):
        parts = decompose(self, psi)
        if list(psi) == target:
            return SpinorParts(ONE, parts.b, parts.vector)
        return parts

    monkeypatch.setattr(SpinorStructure, "decompose", breach)
    code, _, err = _report(["report", "aw11"])
    assert (code, err) == (3, "internal invariant breach: slot 2: nabla phi "
                              "has a phi component\n")
    d = load_model("aw11").to_dict()
    d["lambda"][1], d["lambda"][4] = d["lambda"][4], d["lambda"][1]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    code, _, err = _report(["report", str(path)])
    assert (code, err) == (3, "internal invariant breach: slot 5: nabla phi "
                              "has a phi component\n")


def test_a_report_refused_at_harmonicity_builds_no_squares(monkeypatch):
    # the squares are quadratic in the slot, and only the cross-check
    # reads them: a file refused before it (irrational harmonicity roots)
    # lifts no slot twice
    path = SLOW / "worst-case-14.json"
    phi0 = HomogeneousModel.loads(path.read_text(encoding="utf-8")).phi0
    on_phi0 = []
    lift_act = SpinRep.lift_act

    def counted(rep, omega, spinor):
        on_phi0.append(spinor == phi0)
        return lift_act(rep, omega, spinor)

    monkeypatch.setattr(SpinRep, "lift_act", counted)
    code, _, err = _report(["report", str(path)])
    assert code == 2 and "harmonicity" in err
    assert on_phi0 == [True] * 6
