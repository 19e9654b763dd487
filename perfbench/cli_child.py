"""Traced stand-in for ``python -m udrange``: patch the layers, then call cli.main.

Usage: PERFBENCH_SPANS=OUT_JSON python3 perfbench/cli_child.py <udrange arguments>

Stdout, stderr and the exit status are those of ``python -m udrange`` with the
same arguments. The import time and the spans go to OUT_JSON on exit.
"""

import json
import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import udrange.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return udrange.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
