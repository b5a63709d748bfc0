"""polyorbit benchmark: one seeded workload of CLI jobs, timed end to end.

Usage, from the root of a checkout:

    python3 polybench/run.py --workload orbit-conversion --seed 1 --seconds 10 --trace 0

The run imports ``polyorbit`` from ``src/`` of the checkout and refuses to
run without it.  Set-up (a fresh import of the package plus writing every
input file of the workload) is repeated ``SETUP_REPS`` times and reported as
a median.  Then every job runs once through ``polyorbit.cli.main``, in this
process, one after another (a closed loop with one client), and each answer
is checked after the timed region.  With ``--trace 1`` the job list runs
once untraced and twice traced, and the per-layer metrics of the first
traced pass are reported; the two traced passes must agree on every count.

Times are reported at reference speed.  On the 2-vCPU virtual machine this
benchmark was tuned on, the speed of pure-Python code swings by up to 2x
within seconds, in CPU time as much as in wall time, from contention on the
host.  So every job and every set-up is bracketed by a short fixed
reference loop, and its measured seconds are scaled by ``REF_SECONDS`` over
the mean of the two reference timings around it.  The unscaled totals are
printed on the comment lines before the result.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Inputs and DOT files go to ``.polybench/`` in
the checkout and are removed at exit; span dumps of traced runs stay in
``.polybench/traces/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
REF_SECONDS = 0.0105   # reference() on an uncontended core of that host

sys.path.insert(0, ROOT)
from polybench import spans, workloads  # noqa: E402


def fresh_import():
    """Import polyorbit from the checkout's src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "polyorbit" or m.startswith("polyorbit.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import polyorbit.cli
    where = os.path.dirname(os.path.abspath(polyorbit.__file__))
    if where != os.path.join(SRC, "polyorbit"):
        raise ImportError(f"polyorbit was imported from {where}, not from src/")
    return polyorbit.cli


def reference() -> float:
    """Seconds taken by a fixed loop of exact rational arithmetic."""
    gc.collect()
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 4001):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * REF_SECONDS * 2 / (before + after)


def run_pass(cli, jobs: list, tracer=None, serial: bool = False):
    """Run every job once; returns (results by name, per-job seconds at
    reference speed, per-job scale factors, unscaled wall)."""
    results, times = {}, []
    refs = [reference()]
    wall = 0.0
    for job in jobs:
        argv = list(job.argv)
        dot = job.dot
        if serial:
            argv[argv.index("--jobs") + 1] = "1"
            if dot is not None:
                dot += ".serial"
                argv[argv.index("--dot") + 1] = dot
        if tracer is not None:
            tracer.job = job.name
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:   # a crash is a failed job, not a failed run
                code = f"raised {type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
        wall += times[-1]
        results[job.name] = workloads.Result(code, out.getvalue(), dot)
        refs.append(reference())
    factors = [scaled(1.0, a, b) for a, b in zip(refs, refs[1:])]
    for r in results.values():
        if r.dot is not None:
            with open(r.dot) as fh:
                r.dot = fh.read()
    return results, [t * f for t, f in zip(times, factors)], factors, wall


def verify(jobs: list, results: dict, others: list) -> list:
    """Error messages of the jobs whose answer is wrong; ``others`` are result
    sets of further passes whose stdout and DOT text must match exactly."""
    errors = []
    for job in jobs:
        r = results[job.name]
        try:
            err = job.check(r, results)
        except Exception:
            err = "check raised:\n" + traceback.format_exc()
        for other in others:
            o = other.get(job.name)
            if err is None and o is not None and (o.out, o.dot) != (r.out, r.dot):
                err = "stdout differs between passes"
        if err is not None:
            errors.append(f"{job.name} ({' '.join(job.argv)}): {err}")
    return errors


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten of n jobs
    beyond it."""
    return max(0, math.floor(100 * (n - 10) / n))


def quantile(times: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of per-job times, taken on
    log times: a mean of every order statistic, the i-th of n weighted by the
    mass of Beta(p(n+1), (1-p)(n+1)) on ((i-1)/n, i/n].  It estimates the
    same quantile as the single order statistic at rank pn, but with far
    less noise, because one job that runs slow moves it only by its weight."""
    n = len(times)
    if not 0 < p < 1:
        return sorted(times)[0 if p <= 0 else -1]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - lbeta) \
            if 0 < x < 1 else 0.0

    steps = 200                        # trapezoid steps per order statistic
    cdf, acc, prev = [0.0], 0.0, pdf(0.0)
    for k in range(1, n * steps + 1):
        cur = pdf(k / (n * steps))
        acc += (prev + cur) / (2 * n * steps)
        prev = cur
        if k % steps == 0:
            cdf.append(acc)
    logs = (math.log(max(t, 1e-12)) for t in sorted(times))
    return math.exp(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], logs)) / cdf[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETTINGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = os.path.join(ROOT, ".polybench", f"{args.workload}-{args.seed}-{os.getpid()}")
    setup = []
    try:
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            before = reference()
            t0 = perf_counter()
            cli = fresh_import()
            os.makedirs(workdir)
            jobs = workloads.build(args.workload, args.seed, args.seconds, workdir)
            setup.append(scaled(perf_counter() - t0, before, reference()))
        return measure(args, cli, jobs, statistics.median(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, jobs: list, setup_s: float) -> int:
    results, times, _, raw_wall = run_pass(cli, jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    others, consistent = [], True
    if any(job.rerun_serial for job in jobs):
        serial = [job for job in jobs if job.rerun_serial]
        others.append(run_pass(cli, serial, serial=True)[0])
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        traced, traced_times, factors, _ = run_pass(cli, jobs, tracer)
        first = tracer.counts()
        dump = tracer.spans
        tracer.reset()
        others += [traced, run_pass(cli, jobs, tracer)[0]]
        if tracer.counts() != first:
            print("FAILED two traced passes disagree on span counts", file=sys.stderr)
            consistent = False
        tracer.spans = dump
        scale = {job.name: f for job, f in zip(jobs, factors)}
        metrics = spans.layer_metrics(tracer, jobs, traced, scale,
                                      sum(traced_times) / sum(times))
        os.makedirs(os.path.join(ROOT, ".polybench", "traces"), exist_ok=True)
        tracer.dump(os.path.join(ROOT, ".polybench", "traces",
                                 f"{args.workload}-seed{args.seed}.json"))
    errors = verify(jobs, results, others)
    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)

    pct = tail_percentile(len(times))
    if not args.trace:
        metrics = {
            "wall_s": (sum(times), "s"),
            "job_p50_s": (quantile(times, 0.5), "s"),
            "job_tail_s": (quantile(times, pct / 100), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"--jobs {workloads.SETTINGS[args.workload][0]}, job_tail_s is p{pct} "
          f"({len(jobs)} samples), failed_ratio {len(errors) / len(jobs):.4f}; "
          f"unscaled wall {raw_wall:.3f} s; Python {sys.version.split()[0]}, "
          f"nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": consistent and not errors,
        "attempted": len(jobs),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
