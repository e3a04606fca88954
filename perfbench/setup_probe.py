"""Time one cold set-up of a workload in a fresh interpreter and print the seconds.

run.py starts this a few times per run so that setup_s is a median:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import run
import tracing

if __name__ == "__main__":
    run.prepare()
    _, _, seconds = run.timed_setup(sys.argv[1], int(sys.argv[2]), tracing.NullTracer())
    print(repr(seconds))
