"""Entry point of one benchmark child process.

Usage: python3 child.py SPAWNED_AT [probe]

SPAWNED_AT is the parent's time.monotonic() reading taken just before it
started this interpreter (CLOCK_MONOTONIC is shared by all processes on
Linux). The child imports skewpairs before anything else, so SPAWNED_AT to
the end of that import is the set-up time every command-line user pays. It
is converted to reference seconds (see refclock.py) with the reference
timed right after, on the same core. With "probe" the child reports only
that; otherwise it reads a job from stdin and runs it (see worker.py).
"""

import sys
import time

if __name__ == "__main__":
    spawned_at = float(sys.argv[1])
    import skewpairs  # noqa: F401  (the import being timed)

    raw_setup_s = time.monotonic() - spawned_at
    import json

    from refclock import REFERENCE_S, reference_duration

    setup = {
        "setup_s": raw_setup_s * REFERENCE_S / reference_duration(),
        "raw_setup_s": raw_setup_s,
    }
    if sys.argv[2:] == ["probe"]:
        print(json.dumps(setup))
    else:
        import worker

        worker.main(setup)
