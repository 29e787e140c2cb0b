"""Record the exact outputs that the reports and acceptance workloads
compare against.

usage: python3 perfbench/record_golden.py     # from the root of a checkout

Writes perfbench/golden/.  Re-record only when a change to the program is
meant to change its output; the structured report must stay byte-identical.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import (AT_VALUES, BUILTINS, CHECK_FUNCTIONS,  # noqa: E402
                       GOLDEN_DIR, call_check, call_cli, golden_name)


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    argvs = [("dump", m) for m in BUILTINS]
    argvs += [("report", m, "--format", "structured") for m in BUILTINS]
    argvs += [("report", m, "--at", t) for m in BUILTINS for t in AT_VALUES]
    for argv in argvs:
        rc, text = call_cli(argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)}: exit code {rc}")
        (GOLDEN_DIR / golden_name(argv)).write_text(text, encoding="utf-8")
    names = {}
    for name in CHECK_FUNCTIONS:
        kwargs = {"trials": 1} if name == "check_property_suite" else {}
        names[name] = [n for n, _ in call_check(name, kwargs)]
    (GOLDEN_DIR / "acceptance-names.json").write_text(
        json.dumps(names, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(argvs) + 1} files to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
