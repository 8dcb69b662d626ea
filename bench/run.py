"""Benchmark of the user paths of limitroots, end to end and per module.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: jobs of one workload run back to
back for ``--seconds`` seconds after a set-up and a reduced warm-up job.
Workloads (see ``workloads.py`` and ``PREDICTIONS.md``): sample-fig1a
(CLI limit-roots), census-fig1b (classify), enumerate-fig1b (element
enumeration) and sandwich-u3 (verify sandwich).  Job times are scaled to a
reference host speed (``hostspeed.py``).

With ``--trace 0`` the result carries the end-to-end metrics: job_s,
job_s.tail, setup_s and peak_rss_mb.  With ``--trace 1`` the first half of
the run is untraced and the second half wraps the program's module
functions (``tracing.py``); the result carries the per-layer metrics.

Every metric is printed by name and unit, with host facts and the
correctness outcome; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The program is
imported from ``src/`` of the checkout; without it the benchmark exits 2
and prints no result.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
# A run keeps starting jobs while the next one is expected to end within
# this share of --seconds past the deadline, and always runs MIN_JOBS.
OVERRUN = 0.1
MIN_JOBS = 2
TAIL_BEYOND = 10

CLASSIFY_KINDS = ("elliptic", "parabolic", "hyperbolic")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def host_facts():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    blas = {v: os.environ.get(v, "unset") for v in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas_threads": blas,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
    }


def measure_setup(ctx):
    """Wall times from process start to first job ready, over fresh probes.

    Not scaled by host speed: the probe runs in another process, and a
    kernel timed in this one does not track it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), ctx.graph_path,
           *ctx.workload.modules]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        times.append(t1 - t0)
    return times


class Jobs:
    """Timed jobs of one phase, with their span ranges and check outcomes."""

    def __init__(self):
        self.walls = []
        self.times = []
        self.factors = []
        self.ranges = []
        self.broken_jobs = 0
        self.calls = 0
        self.failed_calls = set()
        self.broken = []
        self.residual = 0.0
        self.reports = []


def run_jobs(ctx, tracer, seconds, min_jobs):
    wl = ctx.workload
    jobs = Jobs()
    start = time.perf_counter()
    while True:
        lo = len(tracer.spans)
        with hostspeed.Sampler(tracer.span) as speed, tracer.span("job"):
            t0 = time.perf_counter()
            try:
                out, err = wl.job(ctx), None
            except Exception:  # a job that raises is a failed job; the run goes on
                out, err = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
        hi = len(tracer.spans)
        jobs.walls.append(t1 - t0)
        jobs.times.append(speed.scaled(t1 - t0))
        jobs.factors.append(speed.factor)
        jobs.ranges.append((lo, hi))
        if err is None:
            try:
                outcome = wl.check(ctx, out, tracer.spans[lo:hi])
            except Exception:
                outcome = workloads.Outcome([traceback.format_exc(limit=3)])
        else:
            outcome = workloads.Outcome([err])
        del out
        jobs.broken_jobs += bool(outcome.broken)
        jobs.calls = max(jobs.calls, outcome.calls)
        jobs.failed_calls |= outcome.failed_calls
        jobs.broken += outcome.broken
        jobs.residual = max(jobs.residual, outcome.residual)
        jobs.reports.append(outcome.report)
        elapsed = time.perf_counter() - start
        if len(jobs.walls) >= min_jobs and (
            elapsed >= seconds
            or elapsed + statistics.median(jobs.walls) > seconds * (1 + OVERRUN)
        ):
            return jobs


def count_operations(all_jobs):
    """Attempted and failed operations of a run.

    An operation is one job, or on census-fig1b one ``classify`` input.
    Every census job classifies the same inputs, so a run counts each input
    once, and an input that raised in any job as one failed operation; a job
    that broke a reference check counts as one more of each.  The counts then
    depend on the seed, not on how many jobs fit into the run.
    """
    broken_jobs = sum(j.broken_jobs for j in all_jobs)
    calls = max(j.calls for j in all_jobs)
    if not calls:
        return sum(len(j.times) for j in all_jobs), broken_jobs
    raised = set().union(*(j.failed_calls for j in all_jobs))
    return calls + broken_jobs, len(raised) + broken_jobs


def tail(times):
    """Highest percentile of job time with at least TAIL_BEYOND jobs above it.

    With too few jobs for that, the slowest job (percentile 100, none beyond).
    Returns (value, percentile, jobs beyond).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def layer_metrics(tracer, lo, hi, factor):
    """Per-layer metrics of one traced job from the spans in [lo, hi); times
    are multiplied by the job's host-speed ``factor``."""
    own = tracer.self_times(lo, hi)
    self_s, calls, sums = {}, {}, {}
    kind_s = {k: 0.0 for k in CLASSIFY_KINDS}
    kind_n = {k: 0 for k in CLASSIFY_KINDS + ("failed",)}
    for (name, _, _, _, note), own_s in zip(tracer.spans[lo:hi], own):
        self_s[name] = self_s.get(name, 0.0) + own_s
        calls[name] = calls.get(name, 0) + 1
        note = note or {}
        for key, val in note.items():
            if isinstance(val, (int, float)):
                sums[name, key] = sums.get((name, key), 0) + val
        if name == "spectral.classify":
            kind = note.get("kind", "failed")
            kind_n[kind] += 1
            if kind in kind_s:
                kind_s[kind] += own_s * factor

    def t(name):
        return self_s.get(name, 0.0) * factor

    def s(name, key):
        return sums.get((name, key), 0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    enum = "elements.enumerate_elements"
    count = s(enum, "count")
    images, points = s("limits.dedup", "images"), s("limits.dedup", "points")
    m = {
        "elements.enumerate_s": t(enum),
        "elements.count": count,
        "elements.us_per_element": ratio(t(enum), count, 1e6),
        "elements.rss_delta_mb": s(enum, "rss_delta") / 2**20,
        "spectral.classify_s": t("spectral.classify"),
        "spectral.calls": calls.get("spectral.classify", 0),
        "spectral.failed": kind_n["failed"],
        "limits.push_s": t("limits.sample_limit_roots"),
        "limits.dedup_s": t("limits.dedup"),
        "limits.images": images,
        "limits.points": points,
        "limits.keep_ratio": ratio(points, images),
        "limits.ns_per_image": ratio(t("limits.sample_limit_roots") + t("limits.dedup"), images, 1e9),
        "limits.power_dynamics_s": t("limits.power_dynamics"),
        "limits.power_steps": s("limits.power_dynamics", "steps"),
        "projective.to_chart_calls": calls.get("projective.to_chart", 0),
        "projective.to_chart_s": t("projective.to_chart"),
        "arrangement.roots_s": t("arrangement.roots_by_depth"),
        "arrangement.roots": s("arrangement.roots_by_depth", "count"),
        "arrangement.codim2_s": t("arrangement.codim2_spacelike"),
        "arrangement.pairs_tested": s("arrangement.codim2_spacelike", "pairs_tested"),
        "arrangement.spacelike_pairs": s("arrangement.codim2_spacelike", "spacelike"),
        "arrangement.unimodular_s": t("arrangement.intersection_equals_unimodular"),
        "verify.sandwich_self_s": t("verify.run_suite"),
        "io.write_csv_s": t("io.write_pointset_csv"),
        "io.write_json_s": t("io.write_pointset_json"),
        "io.manifest_s": t("io.manifest_add_output") + t("io.manifest_write"),
        "io.bytes": sum(s(n, "bytes") for n in
                        ("io.write_pointset_csv", "io.write_pointset_json", "io.manifest_write")),
        "cli.overhead_s": t("job"),
    }
    for k in CLASSIFY_KINDS:
        m[f"spectral.us_per_call.{k}"] = ratio(kind_s[k], kind_n[k], 1e6)
        m[f"spectral.census.{k}"] = kind_n[k]
    return m


def metric_units(trace):
    """Units of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "limitroots", "__init__.py")):
        print(f"error: no program source at {SRC}/limitroots; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    host = host_facts()
    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "_work", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, host, wl, workdir)
    finally:
        shutil.rmtree(workdir)


def measure(args, host, wl, workdir):
    ctx = workloads.Context(wl, args.seed, workdir)

    setup_times = measure_setup(ctx)
    # Imported before any hook is installed, so that their names get wrapped.
    for name in wl.modules:
        importlib.import_module(name)
    ctx.system = workloads.make_system(ctx)
    wl.setup(ctx)
    tracer = tracing.Tracer()
    tracer.install(wl.check_hooks)
    wl.warmup(ctx)

    if args.trace:
        plain = run_jobs(ctx, tracer, args.seconds / 2, 1)
        tracer.install(set(h[0] for h in tracing.HOOKS) - set(wl.check_hooks))
        with tracer.span("setup"):
            ctx.system = workloads.make_system(ctx)
        jobs = run_jobs(ctx, tracer, args.seconds / 2, 1)
        tracer.restore()
        tracer.write(os.path.join(HERE, "_work", f"spans-{wl.name}-{args.seed}.tsv"))
        per_job = [layer_metrics(tracer, lo, hi, f) for (lo, hi), f in zip(jobs.ranges, jobs.factors)]
        metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
        build = [e - s for n, s, e, _, _ in tracer.spans if n == "geometry.make_system"]
        metrics["geometry.make_system_s"] = statistics.median(build)
        metrics["trace.overhead_ratio"] = (
            statistics.median(jobs.times) / statistics.median(plain.times))
        all_jobs = [plain, jobs]
    else:
        jobs = run_jobs(ctx, tracer, args.seconds, MIN_JOBS)
        tracer.restore()
        value, pct, beyond = tail(jobs.times)
        metrics = {
            "job_s": statistics.median(jobs.times),
            "job_s.tail": value,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        all_jobs = [jobs]

    attempted, failed = count_operations(all_jobs)
    broken = [b for j in all_jobs for b in j.broken]
    checks = {"fail_ratio": failed / attempted, "residual": max(j.residual for j in all_jobs)}
    if args.trace:
        metrics.update(checks)
    units = metric_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    reports = {}
    for j in all_jobs:
        for report in j.reports:
            for key, val in report.items():
                reports.setdefault(key, []).append(val)

    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print(f"# host {json.dumps(host, sort_keys=True)}")
    note = " (identity: the relabeled graph equals the original)" if ctx.identity else ""
    print(f"# permutation {ctx.perm}{note}; graph {json.dumps(ctx.graph)}")
    print(f"# setup probes (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
    for j, label in zip(all_jobs, ("untraced", "traced") if args.trace else ("untraced",)):
        print(f"# {label} jobs: {len(j.times)}; wall (s): "
              f"{', '.join(f'{t:.4f}' for t in j.walls)}; at reference speed (s): "
              f"{', '.join(f'{t:.4f}' for t in j.times)}")
    if not args.trace:
        print(f"# job_s.tail is percentile {pct:.1f} of {len(jobs.times)} jobs, "
              f"{beyond} jobs beyond it")
    for key, vals in reports.items():
        print(f"# {key}: {vals[0] if len(set(map(str, vals))) == 1 else vals}")
    if tracer.missing:
        print(f"# hooks missing from the program (metrics read 0): {tracer.missing}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"correct = {not broken}; attempted = {attempted}; failed = {failed}; "
          + "; ".join(f"{k} = {v:.6g}" for k, v in checks.items()))
    for b in broken[:5]:
        print(f"# broken: {b.strip()}")
    result = {
        "correct": not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
