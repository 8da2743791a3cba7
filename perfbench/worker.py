"""One benchmark job in a fresh interpreter.

Usage: worker.py TRACE [CLI ARGS...]

Imports `baerkit` (and, when TRACE is 1, wraps its layers), then calls
`baerkit.cli.main(CLI ARGS)` with its output captured.  The last line of
standard output is one JSON object: the monotonic clock when the import
finished, the job time around `cli.main`, the exit code and captured output,
the peak RSS and, when traced, the per-layer totals.  With no CLI ARGS the
worker only imports and reports.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main(trace: bool, argv: list[str]) -> dict:
    import baerkit.cli

    tracer = None
    if trace:
        import tracing  # the benchmark's own module, beside this file

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = {"ready": time.monotonic(), "module": baerkit.cli.__file__}
    if argv:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            rc = baerkit.cli.main(argv)
            job_s = time.perf_counter() - start
        out.update(rc=rc, job_s=job_s, output=captured.getvalue())
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = {
            "calls": tracer.calls,
            "incl": tracer.incl,
            "self": tracer.self_time,
            "counts": tracer.counts,
            "spans": tracer.spans,
        }
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1] == "1", sys.argv[2:])))
