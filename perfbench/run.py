"""Benchmark for baerkit: timed CLI jobs on fixed, seeded inputs.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source tree (the package is imported from `src/`).
Jobs run in a closed loop, one at a time, each in a fresh worker process
that calls `baerkit.cli.main`, so at most two processes (this one and one
worker) run at once.  Passes over the workload's job set repeat until
`--seconds` have passed (the first pass always runs whole); every answer is
checked.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between untraced and
traced workers and the JSON carries the per-layer metrics, including the
tracing overhead.  The lines above it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_output, render

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
JOB_TIMEOUT_S = 60.0
# A run ends within 180 s: jobs not started within this budget count as failed.
RUN_BUDGET_S = 170.0

# `slowest_job_s`, the largest per-job median, rests on a single job and
# spreads more from run to run than the bound allows on a host whose speed
# drifts, so it is printed in the report but is not a result metric.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit); `<span>.calls`, `.incl_s` and `.self_s` read the tracer's
# span totals, everything else is derived in `layer_metrics`.
PER_LAYER = (
    ("magnus.mul.calls", "count"),
    ("magnus.mul.self_s", "s"),
    ("magnus.mul.term_pairs", "count"),
    ("magnus.pow.calls", "count"),
    ("magnus.pow.exp_bits", "bits"),
    ("magnus.pow.incl_s", "s"),
    ("magnus.inverse.calls", "count"),
    ("magnus.inverse.incl_s", "s"),
    ("magnus.commutator.calls", "count"),
    ("magnus.conjugate.calls", "count"),
    ("words.element_of_word.calls", "count"),
    ("words.element_of_word.letters", "count"),
    ("words.element_of_word.incl_s", "s"),
    ("lyndon.coordinates.calls", "count"),
    ("lyndon.coordinates.self_s", "s"),
    ("subgroups.sieve.calls", "count"),
    ("subgroups.sieve.self_s", "s"),
    ("subgroups.sieve.member_ratio", "ratio"),
    ("subgroups.closure.calls", "count"),
    ("subgroups.closure.incl_s", "s"),
    ("subgroups.closure.sieves", "count"),
    ("subgroups.closure.useful_ratio", "ratio"),
    ("subgroups.closure.stored_rows", "count"),
    ("subgroups.commutator_with.incl_s", "s"),
    ("subgroups.join.calls", "count"),
    ("subgroups.quotient_invariants.incl_s", "s"),
    ("subgroups.containment.calls", "count"),
    ("intlinalg.abelian_invariants.calls", "count"),
    ("intlinalg.abelian_invariants.incl_s", "s"),
    ("intlinalg.abelian_invariants.cells", "count"),
    ("baer.class_bound.tries", "count"),
    ("baer.class_bound.incl_s", "s"),
    ("baer.invariant.incl_s", "s"),
    ("semidirect.validate_action.calls", "count"),
    ("semidirect.materialize.calls", "count"),
    ("semidirect.checks.calls", "count"),
    ("semidirect.complement.calls", "count"),
    ("semidirect.acting_invariant.calls", "count"),
    ("presentations.parse.incl_s", "s"),
    ("trace.overhead_s", "s"),
)

# Spans that only some workloads reach.  A time that reads 0.0 on every run
# is no measurement, so their metrics above are call counts, and their
# inclusive times are printed in the report of a traced run.
REPORT_ONLY_TIMES = (
    "subgroups.join", "subgroups.containment", "semidirect.validate_action",
    "semidirect.materialize", "semidirect.checks", "semidirect.complement",
    "semidirect.acting_invariant",
)


class Runner:
    """Spawns one worker per job and turns its report into a sample."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, trace: bool, argv: list[str]) -> tuple[dict | None, str | None]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None, "run budget exhausted before the job started"
        cmd = [sys.executable, str(HERE / "worker.py"), "1" if trace else "0", *argv]
        spawned = time.monotonic()
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self.env, cwd=ROOT,
        ) as proc:
            try:
                out, err = proc.communicate(timeout=min(JOB_TIMEOUT_S, remaining))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return None, "timeout"
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no message"]
            return None, f"worker exited {proc.returncode}: {tail[0]}"
        try:
            report = json.loads(out.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return None, "worker printed no report"
        if not Path(report["module"]).resolve().is_relative_to(ROOT / "src"):
            return None, f"imported baerkit from {report['module']}"
        report["setup_s"] = report["ready"] - spawned
        return report, None

    def run_job(self, job, path: Path, trace: bool) -> dict | None:
        self.attempted += 1
        report, error = self.spawn(trace, job.argv(str(path)))
        if report is not None and report["rc"] != 0:
            error = f"exit code {report['rc']}"
        elif report is not None:
            error = check_output(job, report["output"])
        if error is not None:
            self.failures.append(f"{job.name}: {error}")
            return None
        return report


def job_times(passes) -> dict[int, float]:
    """Median time of every job (by its index in the workload) over the
    passes in which it succeeded."""
    out = {}
    for i in range(max(map(len, passes))):
        times = [p[i]["job_s"] for p in passes if i < len(p) and p[i] is not None]
        if times:
            out[i] = statistics.median(times)
    return out


def wall_time(passes) -> float:
    return sum(job_times(passes).values())


def end_to_end_metrics(passes) -> dict[str, float]:
    samples = [s for p in passes for s in p if s is not None]
    if not samples:
        return {}
    return {
        "wall_s": wall_time(passes),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": max(s["maxrss_kb"] for s in samples) / 1024,
    }


def pass_totals(samples) -> dict[str, dict[str, float]]:
    totals: dict[str, dict[str, float]] = {"calls": {}, "incl": {}, "self": {}, "counts": {}}
    for s in samples:
        if s is None:
            continue
        for kind, table in totals.items():
            for key, value in s["trace"][kind].items():
                table[key] = table.get(key, 0) + value
    return totals


def layer_metrics(traced_passes, untraced_passes) -> tuple[dict[str, float], bool]:
    """Per-layer metrics and whether every traced pass counted the same
    operations.  Counts come from the first traced pass; times are medians
    over the traced passes."""
    per_pass = [pass_totals(p) for p in traced_passes]
    first = per_pass[0]
    repeat = all(
        t["calls"] == first["calls"] and t["counts"] == first["counts"] for t in per_pass
    )
    calls, counts = first["calls"], first["counts"]

    def timed(kind: str, span: str) -> float:
        return statistics.median(t[kind].get(span, 0.0) for t in per_pass)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    derived = {
        "baer.class_bound.tries": calls.get("baer.verify_class_bound", 0),
        "subgroups.sieve.member_ratio": ratio(
            counts.get("subgroups.sieve.members", 0), calls.get("subgroups.sieve", 0)),
        "subgroups.closure.useful_ratio": ratio(
            counts.get("subgroups.closure.nonmember_sieves", 0),
            counts.get("subgroups.closure.sieves", 0)),
        "trace.overhead_s": wall_time(traced_passes) - wall_time(untraced_passes),
    }
    out = {}
    for name, _unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field == "calls":
            out[name] = calls.get(span, 0)
        elif field == "incl_s":
            out[name] = timed("incl", span)
        elif field == "self_s":
            out[name] = timed("self", span)
        else:
            out[name] = counts.get(name, 0)
    return out, repeat


def run_workload(name: str, seed: int, seconds: float, trace: bool, runner: Runner):
    rng = random.Random(f"{name}/{seed}")
    jobs = WORKLOADS[name]
    workdir = SCRATCH / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, job in enumerate(jobs):
            paths.append(workdir / f"job{i}.grp")
            paths[-1].write_text(render(job, rng), encoding="utf-8")
        # Untimed: compiles bytecode on a fresh tree and proves the package
        # imports from this tree.
        _, error = runner.spawn(False, [])
        if error is not None:
            raise SystemExit(f"baerkit does not import from {ROOT / 'src'}: {error}")
        untraced, traced = [], []
        start = time.monotonic()

        def time_up() -> bool:
            return time.monotonic() - start >= seconds

        while True:
            tracing_pass = trace and len(untraced) > len(traced)
            samples = []
            (traced if tracing_pass else untraced).append(samples)
            for job, path in zip(jobs, paths):
                # After one whole pass, an untraced run stops once time is up.
                if not trace and len(untraced) > 1 and time_up():
                    break
                samples.append(runner.run_job(job, path, tracing_pass))
            if time_up() and (not trace or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured = traced if trace else untraced
    counts = sorted(sum(i < len(p) for p in measured) for i in range(len(jobs)))
    report = [f"samples_per_job={counts[0]}" + (f"-{counts[-1]}" if counts[-1] != counts[0] else "")]
    if not trace:
        times = job_times(untraced)
        report += [f"{'slowest_job_s':40s} {max(times.values()):14.6g} s"]
        report += [f"{jobs[i].name:18s} {t:8.4f} s" for i, t in times.items()]
        return end_to_end_metrics(untraced), dict(END_TO_END), report
    metrics, repeat = layer_metrics(traced, untraced)
    spans = [
        {"job": job.name, "spans": s["trace"]["spans"]}
        for job, s in zip(jobs, traced[0]) if s is not None
    ]
    trace_file = SCRATCH / f"trace-{name}-seed{seed}.json"
    trace_file.write_text(json.dumps(spans), encoding="utf-8")
    incl = pass_totals(traced[0])["incl"]
    report += [f"{span}.incl_s {incl.get(span, 0.0):.4f} s" for span in REPORT_ONLY_TIMES]
    report += [f"wall_s untraced {wall_time(untraced):.4f} s, "
               f"traced {wall_time(traced):.4f} s",
               f"operation counts repeat across traced passes: {repeat}",
               f"spans of the first traced pass: {trace_file.relative_to(ROOT)}"]
    return metrics, dict(PER_LAYER), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "baerkit" / "cli.py").is_file():
        print(f"error: no baerkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        runner = Runner(time.monotonic() + RUN_BUDGET_S)
        metrics, units, report = run_workload(
            name, args.seed, args.seconds, bool(args.trace), runner)
        print(f"== {name} (seed {args.seed}, {'traced' if args.trace else 'untraced'})")
        print(f"   nproc={os.cpu_count()} python={platform.python_version()} {report[0]}")
        for metric, value in metrics.items():
            shown = f"{value:14.6g}" if isinstance(value, float) else f"{value:14d}"
            print(f"   {metric:40s} {shown} {units[metric]}")
        fail_ratio = len(runner.failures) / runner.attempted
        print(f"   {'fail_ratio':40s} {fail_ratio:>14.6g} "
              f"({len(runner.failures)}/{runner.attempted})")
        for failure in runner.failures:
            print(f"   failed: {failure}")
        for line in report[1:]:
            print(f"   {line}")
        results[name] = {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
