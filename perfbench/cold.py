"""Replay one benchmark request in a fresh interpreter.

usage: python3 perfbench/cold.py cli ARG...           # like `spinharm ARG...`
       python3 perfbench/cold.py check NAME KWARGS    # one verify check
       python3 perfbench/cold.py import               # time `import spinharm.cli`

Run with the checkout's `src` on PYTHONPATH.  The parent process times the
whole interpreter (setup_s, cli_cold_s) and checks what this prints.
"""

import sys
import time


def main(argv):
    what = argv[0]
    start = time.perf_counter()
    import spinharm.cli
    if what == "import":
        print(time.perf_counter() - start)
        return 0
    if what == "cli":
        return spinharm.cli.main(argv[1:])
    import json
    from spinharm import verify
    results = getattr(verify, argv[1])(**json.loads(argv[2]))
    print(json.dumps([[r.name, r.ok] for r in results]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
