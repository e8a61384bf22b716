"""Benchmark of the defect-spectra CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: density-series, wide-spectrum,
kinetics (see bench/README.md). The run

1. imports the package from ./src, writes the workload's inputs and runs
   one checked pass of its CLI calls in this process, with spans recorded;
2. for --seconds, alternates a timed pass over the calls, whose outputs
   must be byte-identical to the checked pass, with one set-up probe: a
   fresh interpreter brought to the point where the workload can run
   (bench/probe.py). It reports the median pass as wall_s, the median
   probe as setup_s and the peak resident memory of this process as
   peak_rss_mb. Interleaving the two keeps both medians on the same
   stretch of machine time;
3. checks the checked pass's outputs against bench/reference.py and prints
   one JSON line: correct, operations attempted and failed, metrics.

With --trace 1 it alternates plain and traced passes instead, and reports
the per-layer metrics of the traced ones, the import-time profile of the
set-up probe and the tracing overhead in place of the end-to-end metrics.
Outputs go to bench/out/<workload>/ (git-ignored).
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# Runs are single-threaded throughout: without this, numpy's OpenBLAS starts
# a thread per core for the fits' least-squares solves. It must be set
# before numpy is first imported; the set-up probes inherit it.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORTTIME_PROBES = 3
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ensemble.sample_s": "s",
    "ensemble.raw_draws": "count",
    "ensemble.samples_retained": "count",
    "ensemble.retained_per_draw": "ratio",
    "ensemble.range_rejections": "count",
    "ensemble.synthesize_s": "s",
    "ensemble.grid_points": "count",
    "ensemble.lorentzian_evals": "count",
    "ensemble.lorentzian_evals_per_s": "1/s",
    "ensemble.histogram_s": "s",
    "zplmap.shift_for_strain_s": "s",
    "zplmap.strains_evaluated": "count",
    "zplmap.default_table_s": "s",
    "kinetics.schedule_s": "s",
    "kinetics.segments_built": "count",
    "kinetics.integrate_damage_s": "s",
    "kinetics.history_rows": "count",
    "kinetics.simulate_decay_s": "s",
    "kinetics.decay_grid_points": "count",
    "fitting.fit_exponential_s": "s",
    "fitting.fit_exponential_iterations": "count",
    "fitting.fit_power_law_s": "s",
    "fitting.numerical_fwhm_s": "s",
    "cli.main_s.simulate-spectrum": "s",
    "cli.main_s.sweep-fluence": "s",
    "cli.main_s.simulate-decay": "s",
    "cli.load_config_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "bytes",
    "cli.svg_s": "s",
    "strainfield.calls": "count",
    "strainfield.s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_package_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_pct": "%",
}


def package_env(root):
    env = dict(os.environ)
    env.pop("DEFECT_SPECTRA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return env


def probe(root, args, directory, *python_flags):
    cmd = [sys.executable, *python_flags, os.path.join(HERE, "probe.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--dir", directory]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=root, env=package_env(root),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start, proc.stderr


def digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Runner:
    """Runs passes over the workload's calls and tracks, per call, how many
    passes differed from the checked one."""

    def __init__(self, cli, fitting, calls):
        self.cli, self.fitting, self.calls = cli, fitting, calls
        self.expected = None
        self.passes = 0
        self.mismatched = [0] * len(calls)

    def run_call(self, call):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(call.argv)
            after = (call.after(self.fitting, call.out)
                     if call.after is not None and rc == 0 else None)
        except Exception:
            traceback.print_exc()
            return -1, buf.getvalue(), None
        return rc, buf.getvalue(), after

    def checked_pass(self, tracer):
        records = []
        with tracer.installed():
            for call in self.calls:
                first = len(tracer.spans)
                rc, stdout, after = self.run_call(call)
                records.append(workloads.Record(rc, stdout, after,
                                                tracer.spans[first:]))
        self.expected = [(r.rc, digest(c.out))
                         for c, r in zip(self.calls, records)]
        self.passes += 1
        return records

    def timed_pass(self, tracer=None):
        """One pass over the calls; returns its wall time."""
        gc.collect()
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            rcs = [self.run_call(call)[0] for call in self.calls]
            elapsed = time.perf_counter() - t0
        self.passes += 1
        for i, (call, rc) in enumerate(zip(self.calls, rcs)):
            if (rc, digest(call.out)) != self.expected[i]:
                self.mismatched[i] += 1
        return elapsed

    def timed_passes(self, budget_s, between):
        """Time passes until the next one would end past ``budget_s``;
        ``between`` runs after each pass, within the budget."""
        times, steps = [], []
        start = time.perf_counter()
        while (len(times) < MIN_PASSES or time.perf_counter() - start
               + statistics.median(steps) <= budget_s):
            step = time.perf_counter()
            times.append(self.timed_pass())
            between()
            steps.append(time.perf_counter() - step)
        return times


def import_profile(root, args, out):
    import reference

    runs = []
    for k in range(IMPORTTIME_PROBES):
        _, stderr = probe(root, args, os.path.join(out, f"importtime-{k}"),
                          "-X", "importtime")
        runs.append(reference.importtime_totals(stderr, "defect_spectra.cli"))
    return (statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "defect_spectra",
                                       "cli.py")):
        print("bench: src/defect_spectra not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.environ.pop("DEFECT_SPECTRA_THREADS", None)
    out = os.path.join(HERE, "out", args.workload)
    if os.path.isdir(out):
        shutil.rmtree(out)

    metrics = {}
    if args.trace:
        scipy_s, package_s = import_profile(root, args, out)
        metrics["setup.import_scipy_s"] = scipy_s
        metrics["setup.import_package_s"] = package_s

    sys.path.insert(0, os.path.join(root, "src"))
    from defect_spectra import cli, fitting

    wl = workloads.make(args.workload, os.path.join(out, "run"), args.seed)
    runner = Runner(cli, fitting, wl.calls())
    records = runner.checked_pass(spans.Tracer())
    if args.trace:
        tracer = spans.Tracer()
        traced = []
        plain = runner.timed_passes(
            args.seconds, lambda: traced.append(runner.timed_pass(tracer)))
        metrics.update(spans.layer_metrics(tracer.spans, len(traced)))
        metrics["trace.untraced_wall_s"] = statistics.median(plain)
        metrics["trace.traced_wall_s"] = statistics.median(traced)
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
            - 1.0)
        with open(os.path.join(out, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        setups = []

        def setup_probe():
            directory = os.path.join(out, f"setup-{len(setups)}")
            setups.append(probe(root, args, directory)[0])

        metrics["wall_s"] = statistics.median(
            runner.timed_passes(args.seconds, setup_probe))
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    verdicts = iter(wl.check(records))
    correct, attempted, failed = True, 0, 0
    known = set()
    for call, mismatched in zip(runner.calls, runner.mismatched):
        for _ in call.ops:
            v = next(verdicts)
            for problem in v.problems:
                print(f"bench: {v.op}: {problem}", file=sys.stderr)
            known.update(v.known)
            failing = bool(v.problems or v.known)
            correct = correct and not v.problems
            attempted += runner.passes
            failed += (mismatched if not failing else runner.passes)
        if mismatched:
            correct = False
            print(f"bench: {call.argv[0]} -> {call.out}: {mismatched} passes "
                  "differ from the checked pass", file=sys.stderr)
    for message in sorted(known):
        print(f"bench: known fault: {message}", file=sys.stderr)

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
