"""Search for the slowest model file that the size limits accept.

    PYTHONPATH=src python tests/worst_case.py > worst-case.json

A candidate takes the Wang map of a built-in (cp3, spin4, aw11) or a random
sparse one of dimension n, sets its substitution, and multiplies entry m by
(t + a_m)^k / (t^2 + b_m)^p, the b_m running over d distinct values: the
recipe is (base, n, substitution, d, p, k, seed).  A candidate counts only
if it loads and both MAX_DENOMINATOR_* limits and MAX_CLEARED_DEGREE accept
it; then `report FILE` is timed in-process, cut at CAP_S seconds.  The
recipes are drawn from SEED alone, so every run tries the same sequence;
how far along it a run of BUDGET_S seconds gets depends on the machine.
Progress goes to stderr, and the slowest file, its recipe in `notes`, to
stdout.  pytest does not collect this file (no test_ prefix).
"""

import contextlib
import io
import json
import random
import signal
import sys
import tempfile
import time
from pathlib import Path

from spinharm.cli import main
from spinharm.homogeneous import (HomogeneousModel, ModelAnalysis, ModelError,
                                  load_model)

BASES = {6: ["cp3", "spin4", "random"], 7: ["aw11", "random"]}
SUBSTITUTIONS = ["t=u", "t=u^2", "t=u^2/2"]
SIMPLE = ["1", "t", "u", "2*t-1", "t^2+3", "1/u"]
S5 = ["0", "0", "0", "0", "1", "0", "0", "0"]
SEED = 1
BUDGET_S = 480
CAP_S = 120


def build(recipe):
    """The model record of a recipe."""
    rng = random.Random(recipe["seed"])
    n = recipe["n"]
    if recipe["base"] == "random":
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        lam = [[{"i": i, "j": j, "coeff": rng.choice(SIMPLE)}
                for i, j in sorted(rng.sample(pairs, rng.randint(1, 2)))]
               for _ in range(n)]
        record = {"name": "worst-case", "n": n, "substitution": "t=u",
                  "spinor": S5, "lambda": lam, "notes": ""}
    else:
        record = load_model(recipe["base"]).to_dict()
        record["name"] = "worst-case"
    record["substitution"] = recipe["substitution"]
    bs = rng.sample(range(1, 10), recipe["d"])
    k, p = recipe["k"], recipe["p"]
    for m, ent in enumerate(ent for slot in record["lambda"] for ent in slot):
        a = rng.randint(1, 9)
        ent["coeff"] = (f"({ent['coeff']})*(t+{a})^{k}"
                        f"/(t^2+{bs[m % len(bs)]})^{p}")
    record["notes"] = "recipe " + json.dumps(recipe, sort_keys=True)
    return record


def draw_recipe(rng):
    n = rng.choice([6, 7])
    return {"base": rng.choice(BASES[n]), "n": n,
            "substitution": rng.choice(SUBSTITUTIONS),
            "d": rng.randint(1, 6), "p": rng.randint(1, 8),
            "k": rng.randint(0, 60), "seed": rng.randrange(10 ** 6)}


class _Cap(BaseException):
    """Past the cap; not an Exception, which the CLI would report."""


def _alarm(signum, frame):
    raise _Cap


def time_report(record, path, cap):
    """(seconds, exit code, stderr) of `report FILE`, or None when a size
    limit refuses the record; a run past the cap reads (cap, None, "")."""
    try:
        ModelAnalysis(HomogeneousModel.from_dict(record)).cleared
    except ModelError:
        return None
    path.write_text(json.dumps(record), encoding="utf-8")
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main(["report", str(path)], out=io.StringIO())
    except _Cap:
        return cap, None, ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, code, err.getvalue().strip()


def search(log):
    rng = random.Random(SEED)
    start = time.perf_counter()
    best = None   # (seconds, code, stderr, recipe, record)
    tried = accepted = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "candidate.json"
        while (elapsed := time.perf_counter() - start) < BUDGET_S:
            recipe = draw_recipe(rng)
            record = build(recipe)
            tried += 1
            timed = time_report(record, path, min(CAP_S, BUDGET_S - elapsed))
            if timed is None:
                continue
            accepted += 1
            if best is None or timed[0] > best[0]:
                best = (*timed, recipe, record)
                log(f"{elapsed:7.1f}s  #{tried:<4d} {timed[0]:8.3f}s  "
                    f"exit {timed[1]}  {json.dumps(recipe, sort_keys=True)}")
    return best, tried, accepted


def run():
    def log(line):
        print(line, file=sys.stderr, flush=True)
    best, tried, accepted = search(log)
    log(f"{tried} recipes tried, {accepted} accepted by the size limits")
    if best is None:
        return 1
    seconds, code, err, recipe, record = best
    status = f"exit {code}" if code is not None else f"cut at {CAP_S} s"
    log(f"slowest: {seconds:.3f} s ({status})")
    if err:
        log("stderr: " + err)
    log("recipe: " + json.dumps(recipe, sort_keys=True))
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(run())
