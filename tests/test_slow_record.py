"""The slowest accepted model files known, reported within the fuzz bound.

`tests/data/slow/slow-cleared.json` passes every size limit (its common
denominator has degree 40, its cleared coefficients up to 75), and its
verdicts take gcds of polynomials of that degree and more, with integer
coefficients of hundreds of bits.  The primitive PRS alone took 9 to 11 s
to report it; the
heuristic gcd in front of it takes well under a second.  Its bytes were
recorded once from the PRS path.

The two `worst-case-*.json` files are recipes of `tests/worst_case.py`
(the recipe is in each file's notes).  Both exit 2, because the gcd of
the harmonicity numerators (degree 113 for recipe 272 and 98 for recipe
14, coefficients of up to 355 bits) has irrational real roots.  Sturm
isolation took 50 to 70 s and 13 to 17 s to find that; continued
fractions take well under a second.  Their stderr was recorded once from
the Sturm path.

`worst-accepted.json` is the slowest file that `tests/worst_case.py`
(seed 1, 480 s) found among the files every size limit accepts, once
root isolation ran on continued fractions: about a second, against 17 to
19 s with Sturm isolation, nearly all of it isolating the negative roots
of a degree-105 gcd in the cross-check.  Those roots lie outside the
default domain t > 0, and a default report isolates the positive side
alone: about 0.1 s, with no Taylor shift.  It reports NEVER.  Its bytes
were recorded once from the Sturm path.  With `--include-negative-roots`
those roots are in the domain: 536 Taylor shifts and about a second, to
find that they are irrational, and the report exits 2.  That stderr was
recorded once from continued fractions, before the fold table.

The files live outside `tests/data/models`, which the plain-kernel byte
test reads in full: on that textbook kernel one report of slow-cleared
takes about a minute.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

import pytest

import spinharm.scalars
from spinharm.cli import main
from test_fuzz_model_file import SECONDS_PER_EXAMPLE
from worst_case import build

DATA = Path(__file__).parent / "data" / "slow"
MODEL = DATA / "slow-cleared.json"
WORST = {"worst-case-272": 2, "worst-case-14": 2, "worst-accepted": 0}
NEGATIVE = ["--include-negative-roots"]
# (file, flags, exit code, recorded output file without its suffix)
REPORTS = [(name, [], code, name) for name, code in WORST.items()] + [
    ("worst-accepted", NEGATIVE, 2, "worst-accepted-negative")]


def slow_cleared(seed):
    """n = 6, t = u, spinor e5; slot k holds three entries, on
    random.Random(seed).sample of the 15 pairs i < j, each
    (c + d*t)*(t + a)^42/(t^2 + b)^4 with a, c in 1..3 and d in -2..2
    drawn in that order, and b = 1, 2, 3, 5, 7, 1 by slot."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    lam = []
    for b in (1, 2, 3, 5, 7, 1):
        entries = []
        for i, j in rng.sample(pairs, 3):
            a = rng.randint(1, 3)
            c, d = rng.randint(1, 3), rng.randint(-2, 2)
            entries.append({"i": i, "j": j,
                            "coeff": f"({c}+{d}*t)*(t+{a})^42/(t^2+{b})^4"})
        lam.append(sorted(entries, key=lambda e: (e["i"], e["j"])))
    return {"name": "slow-cleared", "n": 6, "substitution": "t=u",
            "spinor": ["0", "0", "0", "0", "1", "0", "0", "0"],
            "lambda": lam,
            "notes": f"(c+d*t)*(t+a)^42/(t^2+b)^4 entries from "
                     f"random.Random({seed}), see tests/test_slow_record.py"}


def test_the_file_is_the_recipe():
    assert json.loads(MODEL.read_text(encoding="utf-8")) == slow_cleared(3)


@pytest.mark.parametrize("flags, recorded", [
    ([], "slow-cleared.txt"),
    (["--format", "structured"], "slow-cleared-structured.json")])
def test_slow_record_reports_within_the_bound(flags, recorded):
    out = io.StringIO()
    start = time.perf_counter()
    assert main(["report", str(MODEL), *flags], out=out) == 0
    assert time.perf_counter() - start < SECONDS_PER_EXAMPLE
    assert out.getvalue() == (DATA / recorded).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", WORST)
def test_worst_case_file_is_its_recipe(name):
    record = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    assert record == build(json.loads(record["notes"].removeprefix("recipe ")))


def _report(name, flags, code, recorded):
    """Run `report FILE flags`, assert its exit code and its recorded
    stderr (exit 2) or text (exit 0); returns the seconds it took."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        assert main(["report", str(DATA / f"{name}.json"), *flags],
                    out=out) == code
    seconds = time.perf_counter() - start
    printed, suffix = (err, "stderr") if code else (out, "txt")
    assert printed.getvalue() == \
        (DATA / f"{recorded}.{suffix}").read_text(encoding="utf-8")
    return seconds


@pytest.mark.parametrize("name, flags, code, recorded", REPORTS,
                         ids=[f"{r}-{c}" for _, _, c, r in REPORTS])
def test_worst_case_reports_within_the_bound(name, flags, code, recorded):
    """Exit 2 with the recorded stderr, or exit 0 with the recorded text."""
    assert _report(name, flags, code, recorded) < SECONDS_PER_EXAMPLE


def test_worst_accepted_isolates_no_root_outside_the_domain(monkeypatch):
    """A default report of worst-accepted asks for t > 0 only, so root
    isolation, counted in Taylor shifts, does next to no work: it makes
    none, where the negative side of the degree-105 gcd takes 536, the
    bound with `--include-negative-roots`."""
    shifts = []
    shift = spinharm.scalars._shift

    def counted(g, m):
        shifts.append(m)
        return shift(g, m)

    monkeypatch.setattr(spinharm.scalars, "_shift", counted)
    for flags, code, recorded, most in (
            ([], 0, "worst-accepted", 10),
            (NEGATIVE, 2, "worst-accepted-negative", 536)):
        shifts.clear()
        _report("worst-accepted", flags, code, recorded)
        assert len(shifts) <= most, flags
