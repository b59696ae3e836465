"""One traced qcreg CLI op in a fresh interpreter.

usage: python3 bench/shim.py TRACE_OUT [qcreg arguments ...]

Times ``import numpy`` and then ``import qcreg``, installs the tracer, runs
``qcreg.cli.main(arguments)`` and writes the spans, counts and import times
to TRACE_OUT as JSON once, at exit. Without qcreg arguments it only times
the imports. The exit code is the CLI's.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import qcreg.cli

    t2 = time.perf_counter()
    from tracing import Tracer

    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    code = 0
    try:
        if argv:
            code = qcreg.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["import"] = {"numpy_s": t1 - t0, "qcreg_s": t2 - t1}
        with open(trace_out, "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
