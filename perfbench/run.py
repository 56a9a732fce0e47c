"""The zeropack benchmark.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 35 --trace 0

Workloads: ``reference`` (``zeropack simulate`` on the reference recipe),
``seal_sweep`` (a three-value sealing sweep on two workers) and
``design_study`` (minimum caps, equivalent thicknesses and a calibration
jackknife drawn from the seed); ``all`` runs the three in turn. The load
is a closed loop with one client: each operation runs in a fresh
interpreter, started when the previous one has ended.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes one
untraced and two traced runs and reports the per-layer metrics, after
checking that tracing leaves the output unchanged and its counts repeat.
Every output is checked for correctness. The last line of standard
output is one JSON object; the lines before it describe the machine and
give each metric with its unit. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
from child import REFERENCE, SWEEP_VALUES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")

WORKLOADS = {
    "reference": ["simulate", REFERENCE, "--format", "tabular"],
    "seal_sweep": [
        "sweep", REFERENCE, "--param", "stack.clog_deposition",
        "--values", SWEEP_VALUES, "--workers", "2", "--format", "tabular",
    ],
    "design_study": None,
}
SETUP_SAMPLES = 5
MIN_SAMPLES = 4
CHILD_TIMEOUT = 150.0
# the layers below run_recipe must explain this share of its time
MIN_LAYER_SHARE = 0.9
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.cpu_s": "s",
    "recipe.load_s": "s",
    "pipeline.run_recipe_s": "s",
    "pipeline.run_recipe_calls": "count",
    "pipeline.emit_s": "s",
    "pipeline.release_repeat_ratio": "ratio",
    "release.ttr_s": "s",
    "release.ttr_calls": "count",
    "release.ttr_self_s": "s",
    "release.coverage_queries_per_ttr": "count",
    "release.calibrate_s": "s",
    "release.calibrate_calls": "count",
    "geometry.coverage_s": "s",
    "geometry.coverage_calls": "count",
    "geometry.coverage_far_ms": "ms",
    "geometry.coverage_near_ms": "ms",
    "geometry.coverage_released_ratio": "ratio",
    "mechanics.solve_calls": "count",
    "mechanics.cold_solves": "count",
    "mechanics.cold_solve_ms": "ms",
    "mechanics.warm_solve_ms": "ms",
    "mechanics.cache_hit_ratio": "ratio",
    "mechanics.solve_s": "s",
    "design.min_cap_s": "s",
    "design.solves_per_min_cap": "count",
    "design.equivalent_s": "s",
    "design.solves_per_equivalent": "count",
    "clogging.s": "s",
    "clogging.calls": "count",
    "output.byte_identical": "ratio",
    "trace.overhead_s": "s",
    "trace.layer_share": "s/s",
}
# counted, not timed, so they must repeat exactly between traced runs
EXACT_UNITS = ("count", "ratio")
MEASURED_OUTSIDE_TRACE = ("cli.cpu_s", "output.byte_identical", "trace.overhead_s")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    """One operation of a workload."""

    wall: float  # seconds the user waits for the result
    rss_mb: float
    cpu_s: float
    attempted: int
    failures: list[str]
    output: str
    identical: bool
    trace: dict = field(default_factory=dict)


def _environment() -> dict:
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


ENV = _environment()


def run_child(argv: list[str], work: Path):
    """Run ``python argv`` in the checkout and wait for it; returns wall
    time, exit code, stdout, stderr and the child's own resource usage."""
    out, err = work / "stdout", work / "stderr"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=ENV, stdout=fo, stderr=fe
        )
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out.read_bytes(), err.read_bytes(), usage


def _usage(usage):
    return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def _read_trace(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def cli_sample(workload: str, work: Path, traced: bool) -> Sample:
    trace_path = work / "trace.json"
    trace_path.unlink(missing_ok=True)
    argv = [CHILD, "cli", str(trace_path)] if traced else ["-m", "zeropack"]
    wall, code, out, err, usage = run_child(argv + WORKLOADS[workload], work)
    expected = (HERE / "expected" / f"{workload}.csv").read_bytes()
    failures = []
    if code != 0:
        failures.append(f"exit {code}: {err.decode(errors='replace').strip()[-300:]}")
    else:
        problem = checks.check_report(out.decode(errors="replace"), expected.decode())
        if problem:
            failures.append(problem)
    rss, cpu = _usage(usage)
    return Sample(
        wall, rss, cpu, 1, failures, out.decode(errors="replace"),
        out == expected, _read_trace(trace_path) if traced else {},
    )


def study_sample(seed: int, work: Path, traced: bool) -> Sample:
    trace_path = work / "trace.json"
    trace_path.unlink(missing_ok=True)
    argv = [CHILD, "study", str(seed)] + ([str(trace_path)] if traced else [])
    wall, code, out, err, usage = run_child(argv, work)
    rss, cpu = _usage(usage)
    try:
        result = json.loads(out) if code == 0 else None
    except ValueError:
        result = None
    if result is None:
        reason = f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
        return Sample(wall, rss, cpu, 1, [reason], "", False)
    study_s = result.pop("study_s")
    verdicts = checks.check_study(result)
    return Sample(
        study_s, rss, cpu, len(verdicts), [v for v in verdicts if v is not None],
        json.dumps(result, sort_keys=True), True, _read_trace(trace_path) if traced else {},
    )


def sample(workload: str, seed: int, work: Path, traced: bool = False) -> Sample:
    if workload == "design_study":
        return study_sample(seed, work, traced)
    return cli_sample(workload, work, traced)


def setup_time(workload: str, seed: int, work: Path) -> float:
    """A fresh interpreter that imports zeropack and loads the workload's
    inputs without running it."""
    wall, code, _, err, _ = run_child([CHILD, "setup", workload, str(seed)], work)
    if code != 0:
        raise BenchError(f"set-up failed: {err.decode(errors='replace').strip()}")
    return wall


def _identity(samples: list[Sample]) -> None:
    """The design study has no seed-independent expected bytes: its
    samples are compared with the first one of the run instead."""
    for s in samples:
        s.identical = s.identical and s.output == samples[0].output


def measure(workload: str, seed: int, seconds: float, work: Path):
    setup_time(workload, seed, work)  # fills the bytecode caches; not counted
    setup, samples = [], []
    start = time.perf_counter()
    # A set-up precedes each operation, so both sample the whole run and
    # not one stretch of it. Another round starts while it is expected to
    # end within half a round of the deadline.
    while len(samples) < MIN_SAMPLES or (
        time.perf_counter() - start
    ) * (1.0 + 0.5 / len(samples)) < seconds:
        setup.append(setup_time(workload, seed, work))
        samples.append(sample(workload, seed, work))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_time(workload, seed, work))
    _identity(samples)
    metrics = {
        "wall_s": statistics.median(s.wall for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }
    notes = {
        "wall_s": f"median of {len(samples)} runs",
        "setup_s": f"median of {len(setup)} set-ups",
        "peak_rss_mb": f"largest of {len(samples)} runs",
    }
    return metrics, END_TO_END, notes, samples, []


def measure_traced(workload: str, seed: int, work: Path):
    samples = [sample(workload, seed, work, traced=t) for t in (False, True, False, True)]
    plain, traced = samples[0::2], samples[1::2]
    _identity(samples)
    problems = []
    if any(s.output != plain[0].output for s in samples):
        problems.append("traced output differs from the untraced output")
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name in MEASURED_OUTSIDE_TRACE:
            continue
        values = [s.trace.get(name) for s in traced]
        if None in values:
            problems.append(f"{name} missing from a trace")
            values = [0.0]
        elif unit in EXACT_UNITS and values[0] != values[1]:
            problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = statistics.mean(values)
    share = metrics["trace.layer_share"]
    if metrics["pipeline.run_recipe_calls"] and share < MIN_LAYER_SHARE:
        problems.append(f"layers explain {share:.3f} of run_recipe, below {MIN_LAYER_SHARE}")
    metrics["cli.cpu_s"] = statistics.mean(s.cpu_s for s in plain)
    metrics["output.byte_identical"] = sum(s.identical for s in samples) / len(samples)
    metrics["trace.overhead_s"] = statistics.mean(s.wall for s in traced) - statistics.mean(
        s.wall for s in plain
    )
    notes = {n: "mean of 2 traced runs" for n in LAYER_METRICS}
    notes["cli.cpu_s"] = "user+sys, mean of 2 untraced runs"
    notes["output.byte_identical"] = f"share of {len(samples)} runs"
    notes["trace.overhead_s"] = "mean traced minus mean untraced wall"
    return metrics, LAYER_METRICS, notes, samples, problems


def machine() -> dict:
    """The machine and its conditions, recorded as found."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "loadavg": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    if trace:
        metrics, units, notes, samples, problems = measure_traced(workload, seed, work)
    else:
        metrics, units, notes, samples, problems = measure(workload, seed, seconds, work)
    attempted = sum(s.attempted for s in samples)
    failures = [f for s in samples for f in s.failures]
    identical = sum(s.identical for s in samples)
    for name, unit in units.items():
        print(f"{workload} {name} {metrics[name]:.6g} {unit} ({notes[name]})")
    print(f"{workload} fail_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    if "output.byte_identical" not in units:
        print(f"{workload} output.byte_identical {identical / len(samples):.6g} ratio "
              f"({identical} of {len(samples)} runs)")
    for problem in failures[:5] + problems:
        print(f"{workload} FAILED: {problem}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zeropack" / "__init__.py").is_file() or not (
        ROOT / REFERENCE
    ).is_file():
        print(f"perfbench: no zeropack sources under {ROOT}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine()), flush=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            for w in workloads:
                results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), Path(tmp))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
