"""Set-up probe: one fresh interpreter brought to the point where a workload
can run.

It imports the package, writes the workload's input files and runs the
workload's warm-up calls on tiny inputs, so every import the operations
trigger is paid here; then it prints CLOCK_MONOTONIC, which on Linux is
shared by all processes, for the parent to subtract its own start stamp.

    python3 bench/probe.py --workload NAME --seed N --dir DIR
"""

import argparse
import contextlib
import io
import os
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()

    from defect_spectra import cli, fitting

    import workloads

    wl = workloads.make(args.workload, args.dir, args.seed)
    for call in wl.warmup_calls():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(call.argv)
        if rc != 0:
            sys.exit(f"warm-up call {call.argv[0]} exited with {rc}")
        if call.after is not None:
            call.after(fitting, call.out)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


if __name__ == "__main__":
    main()
