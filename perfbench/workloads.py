"""Seeded inputs, request lists and output checks for the three workloads.

A request is one user-visible operation: one `spinharm.cli.main(argv)` call
or one call of a check function from `spinharm.verify`.  Each request
carries the check that decides whether its output is correct; checks run
outside the timed region.  Inputs depend only on the workload seed and the
pass index, so the same seed gives byte-identical model files.
"""

from __future__ import annotations

import copy
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from spinharm import cli, numeric, verify
from spinharm.homogeneous import load_model

WORKLOADS = ("reports", "roots", "acceptance")
BUILTINS = ("cp3", "spin4", "aw11")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# reports: the seed picks one T per run; golden text exists for every T
AT_VALUES = ("1/3", "5/4", "3/2", "7/2")
# spin4 is harmonic for all t, so every scanned residual must be ~0
SCAN_ARGV = ("scan", "spin4", "--min", "1/2", "--max", "5/2",
             "--steps", "50")
GENERATED_PER_PASS = 6     # two perturbed files per built-in, never repeated
PQ_MAX = 999               # planted roots p/q with at most 3 digits
ORACLE_TOL = 1e-9          # numeric.residual_norm tolerance
ORACLE_SAMPLES = 6         # off-root samples per generated file

# roots: p and q are primes from one narrow band, so the cost of divisor
# enumeration (about sqrt(q) trial divisions per divisor of p) is nearly the
# same for every seed.  Random composites of the same size vary 3-50x.
ROOT_BAND_LO = 50_000_000_000
ROOT_BAND_WIDTH = 1_000_000_000
ROOTS_PER_PASS = 4

# acceptance: the three spin4 checks that assert published values fail by
# design (README "Three acceptance checks fail by design").  The property
# suite's 10 trials per pass run as 5 seeded calls of 2 trials: one 2.5 s
# call would be the whole p90 tail, and host-speed drift inside a single
# long call is what the timings cannot correct for.
PROPERTY_CALLS = 5
PROPERTY_TRIALS = 2
EXPECTED_RED = frozenset({"spin4-eta-exact", "spin4-root-set",
                          "spin4-class-flags"})
CHECK_FUNCTIONS = ("check_clifford_relations", "check_volume_element",
                   "check_stabilizer_algebras", "check_cp3", "check_spin4",
                   "check_aw11", "check_property_suite", "check_cross_check",
                   "check_numeric_scan")


class Request:
    """One timed operation: `run()` returns its output, `check(output)`
    returns None when the output is correct and a reason otherwise.

    `kind` groups requests that repeat the same work; `cold` is the argument
    list for `perfbench/cold.py`, which replays the request in a fresh
    interpreter."""

    __slots__ = ("kind", "run", "check", "cold")

    def __init__(self, kind, run, check, cold):
        self.kind = kind
        self.run = run
        self.check = check
        self.cold = cold


# -- running requests ---------------------------------------------------------


def call_cli(argv, write_to=None):
    """One in-process CLI call; `write_to` plays the shell's `> file`."""
    buf = io.StringIO()
    rc = cli.main(list(argv), out=buf)
    text = buf.getvalue()
    if write_to is not None:
        Path(write_to).write_text(text, encoding="utf-8")
    return rc, text


def call_check(name, kwargs):
    """One acceptance check; looked up by name so wrappers installed on the
    verify module are the ones called."""
    results = getattr(verify, name)(**kwargs)
    return [(r.name, r.ok) for r in results]


def cli_request(kind, argv, check, write_to=None):
    return Request(kind, lambda: call_cli(argv, write_to), check,
                   ["cli"] + list(argv))


def check_request(name, kwargs, check):
    return Request(name, lambda: call_check(name, kwargs), check,
                   ["check", name, json.dumps(kwargs)])


# -- output checks ------------------------------------------------------------


def golden(name):
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def golden_name(argv):
    """File under golden/ holding the exact output of a built-in request."""
    cmd, model = argv[0], argv[1]
    if cmd == "dump":
        return f"dump-{Path(model).stem}.json"
    if "--at" in argv:
        t = argv[argv.index("--at") + 1]
        return f"at-{model}-{t.replace('/', '_')}.txt"
    return f"report-{model}.json"


def expect_bytes(expected):
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        if text != expected:
            return "output differs from golden bytes"
        return None
    return check


def expect_verdict(verdict):
    """Exact harmonicity verdict of a structured report."""
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        got = json.loads(text)["harmonicity"]
        if got != verdict:
            return f"verdict {got} != {verdict}"
        return None
    return check


def expect_oracle(path, sample_seed):
    """Harmonicity verdict of a structured report against the float oracle.

    Every reported root must have residual below the tolerance; seeded
    samples off the root set must stay above it, except for ALL_T, where
    every sample must be below it.  The Laplacian cross-check is not an
    oracle here: the perturbed models are not Levi-Civita.
    """
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        verdict = json.loads(text)["harmonicity"]
        kind = verdict["kind"]
        roots = [Fraction(r) for r in verdict["roots"]]
        if kind not in ("ALL_T", "ROOT_SET", "NEVER") or \
                (kind == "ROOT_SET") != bool(roots):
            return f"malformed verdict {verdict}"
        model = load_model(path)
        for r in roots:
            res = numeric.residual_norm(model, r)
            if res is None or res >= ORACLE_TOL:
                return f"root {r} has residual {res}"
        rng = random.Random(sample_seed)
        for _ in range(ORACLE_SAMPLES):
            t = Fraction(rng.randint(1, 128), 16)
            if any(abs(t - r) < Fraction(1, 64) for r in roots):
                continue
            res = numeric.residual_norm(model, t)
            if res is None:
                continue
            if (res < ORACLE_TOL) != (kind == "ALL_T"):
                return f"{kind} but residual {res:.3e} at t={t}"
        return None
    return check


def expect_scan(out):
    rc, text = out
    if rc != 0:
        return f"exit code {rc}"
    rows = text.splitlines()
    if len(rows) != int(SCAN_ARGV[-1]) + 1:
        return f"{len(rows)} scan rows"
    for row in rows:
        value = row.split()[1]
        if value == "pole" or float(value) >= ORACLE_TOL:
            return f"spin4 is ALL_T but scan row reads {row.strip()!r}"
    return None


def expect_checks(name, names):
    """Result names as recorded, and exactly the by-design failures red."""
    def check(out):
        got = [n for n, _ in out]
        if got != names:
            return f"{name} returned checks {got}, expected {names}"
        red = {n for n, ok in out if not ok}
        if red != EXPECTED_RED & set(names):
            return f"{name} failing checks {sorted(red)}"
        return None
    return check


# -- seeded model files -------------------------------------------------------


def perturb(base, dst, src, p, q, name):
    """Slot dst gains slot src times (t - p/q), as tests/conftest.py's
    g2_toy_dict does with the factor t."""
    d = copy.deepcopy(base)
    extra = copy.deepcopy(base["lambda"][src])
    for ent in extra:
        ent["coeff"] = f"({ent['coeff']})*(t-{p}/{q})"
    d["lambda"][dst] = d["lambda"][dst] + extra
    d["name"] = name
    d["notes"] = f"slot {dst + 1} += slot {src + 1} * (t - {p}/{q})"
    return d


def _disjoint(base, dst, src):
    keys = [{(e["i"], e["j"]) for e in base["lambda"][k]} for k in (dst, src)]
    return dst != src and not keys[0] & keys[1]


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _band_prime(rng):
    while True:
        c = rng.randrange(ROOT_BAND_LO, ROOT_BAND_LO + ROOT_BAND_WIDTH)
        if _is_prime(c):
            return c


def _write_model(workdir, name, data):
    path = Path(workdir) / f"{name}.json"
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return str(path)


def _pass_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def reports_files(seed, index, workdir, bases):
    """Generated files of one reports pass: (path, sample seed) pairs."""
    rng = _pass_rng("reports", seed, index)
    out = []
    for k in range(GENERATED_PER_PASS):
        model = BUILTINS[k % len(BUILTINS)]
        base = bases[model]
        pairs = [(d, s) for d in range(base["n"]) for s in range(base["n"])
                 if _disjoint(base, d, s)]
        dst, src = rng.choice(pairs)
        p, q = rng.randint(1, PQ_MAX), rng.randint(1, PQ_MAX)
        name = f"reports-{index}-{k}"
        path = _write_model(workdir, name,
                            perturb(base, dst, src, p, q, name))
        out.append((path, rng.getrandbits(32)))
    return out


def roots_files(seed, index, workdir, bases):
    """Generated files of one roots pass: (path, planted root) pairs."""
    rng = _pass_rng("roots", seed, index)
    out = []
    for k in range(ROOTS_PER_PASS):
        p = _band_prime(rng)
        q = p
        while q == p:
            q = _band_prime(rng)
        name = f"roots-{index}-{k}"
        path = _write_model(workdir, name,
                            perturb(bases["aw11"], 0, 1, p, q, name))
        out.append((path, Fraction(p, q)))
    return out


# -- workloads ----------------------------------------------------------------


class Workload:
    """Requests of each pass.  Pass 0 supplies the untimed warm-up and the
    fresh-interpreter replays; timed passes start at 1."""

    def __init__(self, name, seed, workdir):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.bases = {m: load_model(m).to_dict() for m in BUILTINS}
        self.at = random.Random(f"at:{seed}").choice(AT_VALUES)
        if name == "acceptance":
            self.names = json.loads(golden("acceptance-names.json"))

    def requests(self, index):
        return getattr(self, "_" + self.name)(index)

    def repeated_inputs(self):
        """Requests of a pass that repeat, input for input, every pass."""
        return {tuple(r.cold) for r in self.requests(0)} & \
            {tuple(r.cold) for r in self.requests(1)}

    def _reports(self, index):
        reqs = []
        for m in BUILTINS:
            argv = ("report", m, "--format", "structured")
            reqs.append(cli_request(f"report {m} structured", argv,
                                    expect_bytes(golden(golden_name(argv)))))
        for m in BUILTINS:
            argv = ("report", m, "--at", self.at)
            reqs.append(cli_request(f"report {m} --at", argv,
                                    expect_bytes(golden(golden_name(argv)))))
        for m in BUILTINS:
            path = str(self.workdir / f"dump-{m}.json")
            expected = expect_bytes(golden(golden_name(("dump", m))))
            reqs.append(cli_request(f"dump {m}", ("dump", m), expected,
                                    write_to=path))
            reqs.append(cli_request(f"reload {m}", ("dump", path), expected))
        reqs.append(cli_request("scan spin4", SCAN_ARGV, expect_scan))
        for path, sample_seed in reports_files(self.seed, index, self.workdir,
                                               self.bases):
            argv = ("report", path, "--format", "structured")
            reqs.append(cli_request("report generated", argv,
                                    expect_oracle(path, sample_seed)))
        return reqs

    def _roots(self, index):
        reqs = []
        for path, root in roots_files(self.seed, index, self.workdir,
                                      self.bases):
            verdict = {"kind": "ROOT_SET",
                       "roots": {"1/2": 1, str(root): 1}}
            argv = ("report", path, "--format", "structured")
            reqs.append(cli_request("report planted root", argv,
                                    expect_verdict(verdict)))
        return reqs

    def _acceptance(self, index):
        reqs = []
        for name in CHECK_FUNCTIONS:
            calls = [{}]
            if name == "check_property_suite":
                calls = [{"trials": PROPERTY_TRIALS,
                          "seed": self.seed * PROPERTY_CALLS + k}
                         for k in range(PROPERTY_CALLS)]
            for kwargs in calls:
                reqs.append(check_request(
                    name, kwargs, expect_checks(name, self.names[name])))
        return reqs
