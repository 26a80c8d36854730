"""One workload repetition, run in a fresh single-threaded interpreter.

Usage: python3 worker.py SPEC.json  (run by run.py, with the rep's output
directory as the working directory and the program's src/ on PYTHONPATH).

SPEC holds the CLI argument lists to pass to ``rigline.cli.main`` in order,
whether to trace, and where to write the result. The timed span covers the
``main`` calls only: interpreter start and imports are excluded. A command
that exits non-zero stops the sequence, since later commands read its
output.
"""

import contextlib
import json
import resource
import sys
import traceback
from time import perf_counter


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import rigline.cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    with open(spec["log"], "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        start = perf_counter()
        for argv in spec["commands"]:
            try:
                code = rigline.cli.main(argv)
            except Exception:  # a crash outside the CLI's own stage handling
                traceback.print_exc(file=log)
                code = -1
            codes.append(code)
            if code != 0:
                break
        wall = perf_counter() - start
    result = {
        "wall_s": wall,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        result["spans"] = tracer.spans
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
