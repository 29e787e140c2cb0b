"""Search for the slowest model file that the size limits accept.

    PYTHONPATH=src python tests/worst_case.py > worst-case.json

A candidate takes the Wang map of a built-in (cp3, spin4, aw11) or a random
sparse one of dimension n, sets its substitution, and multiplies entry m by
(t + a_m)^k / (t^2 + b_m)^p, the b_m running over d distinct values: the
recipe is (base, n, substitution, d, p, k, seed).  A candidate counts only
if it loads and both MAX_DENOMINATOR_* limits and MAX_CLEARED_DEGREE accept
it; then it is timed in-process in both domains, as `report FILE` (t > 0)
and as `report FILE --include-negative-roots`, each cut at CAP_S seconds
and each on an empty fold table and slot table, as in a fresh process.
The recipes are drawn from SEED alone, so every run tries the same
sequence; how far along it a run of BUDGET_S seconds gets depends on the
machine.  Progress goes to stderr, and to stdout one JSON object that maps
each domain to its slowest file, with its recipe in `notes`.  pytest does
not collect this file (no test_ prefix).
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

from spinharm import coeffexpr, homogeneous
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
# the flags of each timed report, by domain
DOMAINS = {"default": [], "negative-roots": ["--include-negative-roots"]}


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


def accepted(record):
    """Whether the record loads and every size limit accepts it."""
    try:
        ModelAnalysis(HomogeneousModel.from_dict(record)).cleared
    except ModelError:
        return False
    return True


def time_report(path, flags, cap):
    """(seconds, exit code, stderr) of `report FILE flags` on an empty fold
    table and slot table; a run past the cap reads (cap, None, "")."""
    coeffexpr._FOLDS.clear()
    homogeneous._SLOTS.clear()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main(["report", str(path), *flags], out=io.StringIO())
    except _Cap:
        return cap, None, ""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, code, err.getvalue().strip()


def search(log):
    rng = random.Random(SEED)
    start = time.perf_counter()
    # domain -> (seconds, code, stderr, recipe, record)
    best = dict.fromkeys(DOMAINS)
    tried = accepted_count = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "candidate.json"
        while time.perf_counter() - start < BUDGET_S:
            recipe = draw_recipe(rng)
            record = build(recipe)
            tried += 1
            if not accepted(record):
                continue
            accepted_count += 1
            path.write_text(json.dumps(record), encoding="utf-8")
            for domain, flags in DOMAINS.items():
                # a cap of 0 would switch the alarm off, not cut at once
                left = BUDGET_S - (time.perf_counter() - start)
                timed = time_report(path, flags, max(min(CAP_S, left), 0.01))
                if best[domain] is None or timed[0] > best[domain][0]:
                    best[domain] = (*timed, recipe, record)
                    log(f"{time.perf_counter() - start:7.1f}s  "
                        f"#{tried:<4d} {domain:14s} {timed[0]:8.3f}s  "
                        f"exit {timed[1]}  "
                        f"{json.dumps(recipe, sort_keys=True)}")
    return best, tried, accepted_count


def run():
    def log(line):
        print(line, file=sys.stderr, flush=True)
    best, tried, accepted_count = search(log)
    log(f"{tried} recipes tried, {accepted_count} accepted by the size "
        "limits")
    if best["default"] is None:
        return 1
    for domain, (seconds, code, err, recipe, _) in best.items():
        status = f"exit {code}" if code is not None else f"cut at {CAP_S} s"
        log(f"slowest {domain}: {seconds:.3f} s ({status})")
        if err:
            log("  stderr: " + err)
        log("  recipe: " + json.dumps(recipe, sort_keys=True))
    print(json.dumps({domain: b[4] for domain, b in best.items()}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(run())
