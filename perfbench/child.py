"""One measured invocation: import the CLI, run its commands, report.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``commands`` (a list of CLI argument lists, run in order
through ``maxent_markov.cli.main``) and ``trace`` (a path for the span
dump, or null for an untraced run).  The last stdout line is a JSON
record with the monotonic time at which the CLI module finished
importing, the run's wall and CPU seconds, its peak RSS and the exit
codes.  The parent takes set-up time as that import time minus its own
monotonic clock at spawn; CLOCK_MONOTONIC is shared by all processes.
"""

import json
import resource
import sys
import time

import maxent_markov.cli as cli

ready = time.monotonic()


def main() -> int:
    spec = json.loads(sys.argv[1])
    recorder = None
    if spec["trace"]:
        import tracer

        recorder = tracer.install()
    codes = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv in spec["commands"]:
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.dump(spec["trace"])
    record = {
        "ready": ready,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "codes": codes,
    }
    print(json.dumps(record))
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
