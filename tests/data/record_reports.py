"""Write the pinned model files and record their reports.

    PYTHONPATH=src python tests/data/record_reports.py

Writes models/<name>.json and, for each model, the exact stdout of
`report FILE --format structured`, of the same with
`--include-negative-roots`, and of `report FILE --at T` (text) under
reports/.  tests/test_pinned_reports.py compares the program's output with
these bytes.  The models divide some Lambda entries of the built-ins by
(t + 3), (t^2 + 1) or (2t - 1), so that their coefficients carry
denominators beyond u; cp3-mixed adds to cp3's slot 5 the entries of its
slot 1 times (t - 2)(1 + u), so that its Lambda mixes even and odd powers
of u = sqrt(t); aw11-family multiplies entry m of aw11 by
(t + a_m)^4/(t^2 + b_m)^2, so that the common denominator has degree 37;
the others are the test fixtures with a pole at t = 1 (tests/test_cli.py),
g2_toy_dict and eta_toy_dict (tests/conftest.py).
Re-record only when an output is meant to change.
"""

import copy
import io
import json
import random
import sys
from pathlib import Path

from spinharm.cli import main
from spinharm.homogeneous import load_model

HERE = Path(__file__).resolve().parent
S5 = ["0", "0", "0", "0", "1", "0", "0", "0"]


def _divided(base, name, picks):
    """The built-in with entry e of slot k divided by f, for (k, e, f)."""
    d = load_model(base).to_dict()
    for k, e, f in picks:
        ent = d["lambda"][k][e]
        ent["coeff"] = f"({ent['coeff']})/({f})"
    d["name"] = name
    d["notes"] = f"{base} with entries divided by " + ", ".join(
        f"slot {k + 1} entry {e + 1} by {f}" for k, e, f in picks)
    return d


def aw11_family(k):
    """aw11 with entry m times (t + a_m)^k/(t^2 + b_m)^(k/2), a_m and b_m
    drawn in 1..9 from random.Random(5), entry after entry."""
    d = load_model("aw11").to_dict()
    rng = random.Random(5)
    for entries in d["lambda"]:
        for ent in entries:
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            ent["coeff"] = f"({ent['coeff']})*(t+{a})^{k}/(t^2+{b})^{k // 2}"
    d["name"] = "aw11-family"
    d["notes"] = (f"aw11 with entry m times (t+a_m)^{k}/(t^2+b_m)^{k // 2}, "
                  "a_m, b_m in 1..9 from random.Random(5)")
    return d


def _g2_toy():
    base = load_model("aw11").to_dict()
    d = copy.deepcopy(base)
    d["name"] = "g2toy"
    extra = copy.deepcopy(base["lambda"][1])
    for ent in extra:
        ent["coeff"] = f"({ent['coeff']})*t"
    d["lambda"][0] = d["lambda"][0] + extra
    d["notes"] = "synthetic perturbation with a genuine harmonicity root"
    return d


def _cp3_mixed():
    base = load_model("cp3").to_dict()
    d = copy.deepcopy(base)
    d["name"] = "cp3-mixed"
    extra = copy.deepcopy(base["lambda"][0])
    for ent in extra:
        ent["coeff"] = f"({ent['coeff']})*(t-2)*(1+u)"
    d["lambda"][4] = d["lambda"][4] + extra
    d["notes"] = "cp3 with slot 1 times (t-2)*(1+u) added to slot 5"
    return d


def _eta_toy():
    return {
        "name": "etatoy", "n": 6, "substitution": "t=u",
        "spinor": list(S5),
        "lambda": [[{"i": 5, "j": 6, "coeff": "t"},
                    {"i": 3, "j": 5, "coeff": "t"},
                    {"i": 4, "j": 6, "coeff": "t"}],
                   [], [], [], [], []],
        "notes": "sign fixture for the chi term",
    }


def _pole():
    lam = [[] for _ in range(6)]
    lam[0] = [{"i": 1, "j": 2, "coeff": "1/(t-1)"}]
    return {"name": "pole", "n": 6, "substitution": "t=u",
            "spinor": list(S5), "lambda": lam, "notes": ""}


# name -> (model record, T for --at)
MODELS = {
    "cp3-divided": (_divided("cp3", "cp3-divided", [
        (0, 0, "t+3"), (2, 0, "2*t-1"), (4, 1, "t^2+1")]), "3/2"),
    "spin4-divided": (_divided("spin4", "spin4-divided", [
        (0, 0, "2*t-1"), (1, 1, "t^2+1"), (3, 0, "t+3")]), "3/2"),
    "aw11-divided": (_divided("aw11", "aw11-divided", [
        (0, 1, "t+3"), (2, 1, "t^2+1"), (6, 0, "2*t-1")]), "3/2"),
    "cp3-mixed": (_cp3_mixed(), "2"),
    "aw11-family": (aw11_family(4), "3/2"),
    "pole": (_pole(), "2"),
    "g2toy": (_g2_toy(), "1/2"),
    "etatoy": (_eta_toy(), "3/2"),
}

# output file suffix -> report arguments after the model path
VARIANTS = {
    "structured.json": ("--format", "structured"),
    "negative.json": ("--format", "structured", "--include-negative-roots"),
    "at.txt": ("--at",),
}


def model_path(name):
    return HERE / "models" / f"{name}.json"


def report_path(name, variant):
    return HERE / "reports" / f"{name}-{variant}"


def report_args(name, variant):
    args = ["report", str(model_path(name)), *VARIANTS[variant]]
    if variant == "at.txt":
        args.append(MODELS[name][1])
    return args


def run(argv):
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


def record():
    (HERE / "models").mkdir(exist_ok=True)
    (HERE / "reports").mkdir(exist_ok=True)
    for name, (record_, _) in MODELS.items():
        model_path(name).write_text(
            json.dumps(record_, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        for variant in VARIANTS:
            code, text = run(report_args(name, variant))
            if code != 0:
                sys.exit(f"{name} {variant}: exit {code}")
            report_path(name, variant).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    record()
