"""Run one ``twogrp`` CLI command with the tracer installed.

    python launch.py SPANS_OUT ARG...

Installs the same wrappers the in-process workloads use, calls
``twogrp.cli.main(ARG...)``, writes the spans (and the time the installation
took) to SPANS_OUT as JSON and exits with the command's code.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import twogrp.cli

    tracer = Tracer()
    started = time.perf_counter()
    tracer.install()
    install_s = time.perf_counter() - started

    tracer.job = 0
    try:
        return twogrp.cli.main(argv)
    finally:
        tracer.job = None
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({**tracer.export(), "install_s": install_s}, fh)


if __name__ == "__main__":
    sys.exit(main())
