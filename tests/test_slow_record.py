"""The slowest accepted model file known, reported within the fuzz bound.

`tests/data/slow/slow-cleared.json` passes every size limit (its common
denominator has degree 40, its cleared coefficients up to 75), and its
verdicts take gcds of polynomials of that degree and more, with integer
coefficients of hundreds of bits.  The primitive PRS alone took 9 to 11 s
to report it; the
heuristic gcd in front of it takes well under a second.  Its bytes were
recorded once from the PRS path.  The file lives outside
`tests/data/models`, which the plain-kernel byte test reads in full: on
that textbook kernel one report of it takes about a minute.
"""

import io
import json
import random
import time
from pathlib import Path

import pytest

from spinharm.cli import main
from test_fuzz_model_file import SECONDS_PER_EXAMPLE

DATA = Path(__file__).parent / "data" / "slow"
MODEL = DATA / "slow-cleared.json"


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
