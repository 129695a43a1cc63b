"""Run the crosscheck command in this process with layer wrappers installed.

Usage: python3 child.py OUT_JSON [crosscheck arguments...]

Behaves like the ``crosscheck`` console script (``crosscheck.cli:run``)
and, on exit, writes the tracer's totals and spans to OUT_JSON for the
parent benchmark to merge.
"""

import json
import sys

from tracer import Tracer


def main() -> None:
    out_path = sys.argv[1]
    sys.argv = ["crosscheck", *sys.argv[2:]]
    tracer = Tracer()
    missing = tracer.install()
    try:
        from crosscheck import cli

        cli.run()
    finally:
        dumped = tracer.dump()
        dumped["missing"] = missing
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(dumped, handle)


if __name__ == "__main__":
    main()
