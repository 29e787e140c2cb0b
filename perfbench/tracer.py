"""Wrappers that time the calls into each layer of spinharm.

The benchmark installs these from its own files; the program carries no
tracing code.  Every wrapper opens a span on a stack: a span's self time is
its duration minus the time of the spans it encloses, so time spent in an
unwrapped helper counts toward the nearest wrapped caller.  Spans are folded
into per-name totals as they close, which keeps memory flat over millions of
calls.  A wrapper is installed at every name a caller looks up: a function
imported by name into another module (`homogeneous.rational_roots`) is
replaced there too.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (metric prefix, module, class or None, attribute, stats reported)
SPANS = (
    ("scalars.poly_gcd", "scalars", None, "poly_gcd",
     ("calls", "self_s", "const_share")),
    ("scalars.rational_roots", "scalars", None, "rational_roots",
     ("calls", "self_s")),
    ("scalars.as_polynomial_in_t", "scalars", None, "as_polynomial_in_t",
     ("self_s",)),
    ("coeffexpr.parse_scalar", "coeffexpr", None, "parse_scalar",
     ("calls", "self_s")),
    ("linalg.Matrix.rref", "linalg", "Matrix", "rref", ("calls", "self_s")),
    ("linalg.Matrix.solve", "linalg", "Matrix", "solve", ("calls", "self_s")),
    ("linalg.Matrix.mul", "linalg", "Matrix", "__mul__", ("calls", "self_s")),
    ("linalg.Subspace.project", "linalg", "Subspace", "project",
     ("calls", "self_s")),
    ("clifford.SpinRep.endo", "clifford", "SpinRep", "endo",
     ("calls", "self_s")),
    ("clifford.SpinRep.spin_lift", "clifford", "SpinRep", "spin_lift",
     ("calls", "self_s")),
    ("clifford.c_sigma", "clifford", None, "c_sigma", ("self_s",)),
    ("clifford.bracket", "clifford", None, "bracket", ("calls",)),
    ("gstruct.SpinorStructure.decompose", "gstruct", "SpinorStructure",
     "decompose", ("self_s",)),
    ("gstruct.SpinorStructure.annihilator", "gstruct", "SpinorStructure",
     "annihilator", ("self_s",)),
    ("gstruct.SpinorStructure.complement_m", "gstruct", "SpinorStructure",
     "complement_m", ("self_s",)),
    ("gstruct.SpinorStructure.classify", "gstruct", "SpinorStructure",
     "classify", ("self_s",)),
    ("gstruct.SpinorStructure.torsion_from_S", "gstruct", "SpinorStructure",
     "torsion_from_S", ("self_s",)),
    ("gstruct.SpinorStructure.chi_vector", "gstruct", "SpinorStructure",
     "chi_vector", ("self_s",)),
    ("homogeneous.vanishing_verdict", "homogeneous", None,
     "vanishing_verdict", ("calls", "self_s")),
    ("homogeneous.vanishing_verdict_general", "homogeneous", None,
     "vanishing_verdict_general", ("calls", "self_s")),
    ("homogeneous.load_model", "homogeneous", None, "load_model",
     ("self_s",)),
) + tuple(
    (f"homogeneous.ModelAnalysis.{stage}", "homogeneous", "ModelAnalysis",
     stage, ("self_s",))
    for stage in ("extract_S_eta", "classify", "torsion",
                  "canonical_parameters", "harmonicity",
                  "laplacian_cross_check")
) + (
    ("numeric.scan", "numeric", None, "scan", ("calls", "self_s")),
    ("numeric.residual_norm", "numeric", None, "residual_norm",
     ("calls", "self_s")),
    ("cli.main", "cli", None, "main", ("self_s",)),
) + tuple(
    (f"verify.{check}", "verify", None, check, ("self_s",))
    for check in ("check_clifford_relations", "check_volume_element",
                  "check_stabilizer_algebras", "check_cp3", "check_spin4",
                  "check_aw11", "check_property_suite", "check_cross_check",
                  "check_numeric_scan")
)

# stage outputs whose Scalars are measured for expression growth
STAGE_PREFIX = "homogeneous.ModelAnalysis."

UNITS = {"calls": "count", "self_s": "s", "const_share": "ratio"}

# metrics not tied to one span: (name, unit)
EXTRA_METRICS = (
    ("scalars.Scalar.constructions", "count"),
    ("scalars.max_num_degree", "degree"),
    ("scalars.max_coeff_bits", "bits"),
)


def metric_units():
    """Every metric this module reports, name -> unit."""
    units = {f"{prefix}.{stat}": UNITS[stat]
             for prefix, _, _, _, stats in SPANS for stat in stats}
    units.update(EXTRA_METRICS)
    return units


class _Stat:
    __slots__ = ("calls", "self_s", "const")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.const = 0


class Tracer:
    """Install with `install()`, run the traced work, then `uninstall()`."""

    def __init__(self):
        self.stats = {prefix: _Stat() for prefix, *_ in SPANS}
        self.constructions = 0
        self.max_num_degree = 0
        self.max_coeff_bits = 0
        self.missing = []
        self._stack = []
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, prefix, fn):
        stat = self.stats[prefix]
        stack = self._stack
        const_share = prefix == "scalars.poly_gcd"
        stage = prefix.startswith(STAGE_PREFIX)

        def wrapper(*args, **kwargs):
            if const_share and args[0].degree <= 0 and args[1].degree <= 0:
                stat.const += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if stage:
                # the walk is tracing work: keep it out of the caller's self time
                walk_start = perf_counter()
                self._measure(result)
                if stack:
                    stack[-1] += perf_counter() - walk_start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn):
        def wrapper(*args, **kwargs):
            self.constructions += 1
            return fn(*args, **kwargs)
        return wrapper

    def _measure(self, obj):
        """Largest numerator degree and coefficient size in a stage output."""
        from spinharm.clifford import MultiVector
        from spinharm.linalg import Matrix
        from spinharm.scalars import Scalar
        todo, seen = [obj], set()
        while todo:
            x = todo.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            if isinstance(x, Scalar):
                self.max_num_degree = max(self.max_num_degree, x.num.degree)
                for c in x.num.coeffs + x.den.coeffs:
                    self.max_coeff_bits = max(self.max_coeff_bits,
                                              c.numerator.bit_length(),
                                              c.denominator.bit_length())
            elif isinstance(x, Matrix):
                todo.extend(x.data)
            elif isinstance(x, MultiVector):
                todo.extend(x.terms.values())
            elif isinstance(x, (list, tuple)):
                todo.extend(x)
            elif hasattr(type(x), "__slots__"):
                # result records (verdicts, class components); their
                # `structure` back-reference leads into cached program state
                todo.extend(getattr(x, s, None) for s in type(x).__slots__
                            if s != "structure")

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("spinharm.")]
        from spinharm import scalars
        self._patch(scalars.Scalar, "__init__",
                    self._counter(scalars.Scalar.__init__))
        for prefix, modname, cls, attr, _ in SPANS:
            module = sys.modules.get(f"spinharm.{modname}")
            owner = getattr(module, cls, None) if cls else module
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.missing.append(prefix)
                continue
            wrapper = self._span(prefix, original)
            if cls:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, passes):
        """Per-pass counts and self times, shares and maxima."""
        out = {}
        for prefix, _, _, _, stats in SPANS:
            st = self.stats[prefix]
            for stat in stats:
                if stat == "const_share":
                    value = st.const / st.calls if st.calls else 0.0
                else:
                    value = getattr(st, stat) / passes
                out[f"{prefix}.{stat}"] = value
        out["scalars.Scalar.constructions"] = self.constructions / passes
        out["scalars.max_num_degree"] = self.max_num_degree
        out["scalars.max_coeff_bits"] = self.max_coeff_bits
        return out

    def self_times(self):
        """Total self time of every span, largest first."""
        return sorted(((st.self_s, prefix) for prefix, st in self.stats.items()),
                      reverse=True)
