"""Process entry of one timed segment (see ``load.py``).

Its first act is to import the workload's entry module and print
``ready``: for compile-cold and sweep-warm, whose segment process is
the program process, spawn-to-``ready`` is the run's set-up time.
Everything else is imported afterwards.
"""

import sys

#: workload -> the module its set-up time covers (serve-mix measures a
#: server launch instead, from inside the segment).
ENTRIES = {"compile-cold": "repro.pipeline", "sweep-warm": "repro.batch.sweep"}

if __name__ == "__main__":
    entry = ENTRIES.get(sys.argv[sys.argv.index("--workload") + 1])
    if entry is not None:
        __import__(entry)
    print("ready", flush=True)

    import load

    sys.exit(load.main(sys.argv[1:]))
