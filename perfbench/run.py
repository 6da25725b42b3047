"""End-to-end and per-layer benchmark of kinfp.

    python3 perfbench/run.py --workload simulate-400 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The package is imported from the ``src/`` beside this directory, whatever
the working directory.  One run sets the workload up three times (the
median is ``setup_s``), then repeats its operation until ``--seconds`` are
spent, checking every output.  The first operation is a warm-up, left out
of the timings when at least two more follow.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics plus the tracing overhead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  The
full report (machine, sample counts, quartiles, final-field digests,
computed kernel costs) goes to ``.perfbench_runs/`` and, as one JSON line,
to stdout before the result.
See NOTES.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo  # the modules that import numpy load after pin_blas_threads()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPS = 3
# reported on the result line with --trace 0; cpu_sys_s stays in the report
END_TO_END = ("setup_s", "wall_s", "steps_per_s", "cpu_user_s", "peak_rss_mb")
IMPORT_REPS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import kinfp.cli, kinfp.verify; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def kernel_costs(grid) -> dict:
    """Operation count and compulsory bytes per kernel call, computed from
    the array shapes for the numpy formulation in kinfp.kernels."""
    nx, nv = grid.Nx, grid.Nv
    return {
        "label": "computed",
        "transport": {
            "arith_ops": nv * (11 * nx + 13),
            "compare_abs_select_ops": nv * (7 * nx + 14),
            "bytes": 8 * (2 * nx * nv + nv),  # read f, v; write out
        },
        "velocity": {
            "arith_ops": nx * (5 * nv - 4),
            "bytes": 8 * (2 * nx * nv + 2 * nx * (nv - 1)),  # read f, cp, cm; write out
        },
    }


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


class Runner:
    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.ops: list[dict] = []
        self.digests: set[str] = set()
        self.outdir = workload.workdir / "out"

    def one_op(self, tracer=None) -> None:
        """Run, time and check one operation and keep its record."""
        import checks

        w = self.workload
        shutil.rmtree(self.outdir, ignore_errors=True)
        rec = {"traced": tracer is not None, "problems": []}
        try:
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            if tracer is None:
                res = w.run(self.outdir)
            else:
                with tracer.installed(), tracer.operation():
                    res = w.run(self.outdir)
            rec["wall_s"] = time.perf_counter() - t0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            rec["user_s"] = r1.ru_utime - r0.ru_utime
            rec["sys_s"] = r1.ru_stime - r0.ru_stime
            rec["problems"] = w.check(res)
            rec["steps"] = w.count_steps(res)
            if tracer is not None and self.outdir.is_dir():
                tracer.snapshot_bytes += [
                    p.stat().st_size for p in self.outdir.glob("snapshot_*")
                ]
            final = w.final_field(res) if res.code == 0 else None
            if final is not None:
                rec["final_sha256"] = checks.payload_sha256(final.values)
                self.digests.add(rec["final_sha256"])
                rec["problems"] += checks.repeats_identical(self.digests)
        except Exception:  # one broken operation is a failure, not a crash
            rec["problems"].append(traceback.format_exc())
        self.ops.append(rec)

    def timed_section(self, tracer=None) -> None:
        """Repeat operations (untraced, or untraced+traced pairs) for the budget."""
        start = time.perf_counter()
        rounds: list[float] = []
        while True:
            t = time.perf_counter()
            self.one_op()
            if tracer is not None:
                self.one_op(tracer)
            rounds.append(time.perf_counter() - t)
            if time.perf_counter() - start + statistics.median(rounds) > self.seconds:
                break


def run_benchmark(args) -> int:
    import tracing
    from workloads import WORKLOADS

    import_s = import_seconds()
    workload = WORKLOADS[args.workload](RUNS / args.workload, args.seed)
    setup_times, parse_ms = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        parse_ms.append(1e3 * workload.setup())
        setup_times.append(time.perf_counter() - t0)

    runner = Runner(workload, args.seconds)
    tracer = tracing.Tracer() if args.trace else None
    runner.timed_section(tracer)

    ops = runner.ops
    failed = sum(1 for r in ops if r["problems"])
    plain = [r for r in ops if not r["traced"] and "wall_s" in r]
    # The first operation warms caches and the allocator.  It is checked like
    # the others but left out of the timings when at least two more were made.
    if len(plain) > 2:
        plain[0]["warmup"] = True
        plain = plain[1:]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": envinfo.record(ROOT, args.seed),
        "import_s": import_s,
        "setup_s_each": setup_times,
        "fail_ratio": failed / len(ops),
        "final_sha256": sorted(runner.digests),
        "kernel_costs": kernel_costs(workload.grid) if workload.grid else None,
        "operations": ops,
    }
    if args.trace:
        traced = [r for r in ops if r["traced"] and "wall_s" in r]
        overhead = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)
            if traced and plain else 0.0
        )
        spans = tracer.spans
        layers = tracing.layer_metrics(tracer, spans, parse_ms, overhead)
        # System time of the whole process, per operation.  A steady-96 run
        # holds one operation, and its system time (page faults) spreads too
        # widely from run to run to carry an end-to-end bound.
        sys_s = [r["sys_s"] for r in plain]
        layers["process.cpu_sys_s"] = (statistics.median(sys_s) if sys_s else 0.0, "s", len(sys_s))
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
        report["per_layer"] = {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in layers.items()}
        report["missing_wrap_targets"] = tracer.missing
        spans_path = RUNS / f"{workload.name}-seed{args.seed}-spans.json"
        tracer.write(spans_path, spans)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        e2e = {
            "setup_s": ([import_s + statistics.median(setup_times)], "s"),
            "wall_s": ([r["wall_s"] for r in plain], "s"),
            "steps_per_s": ([r["steps"] / r["wall_s"] for r in plain if "steps" in r], "1/s"),
            "cpu_user_s": ([r["user_s"] for r in plain], "s"),
            "cpu_sys_s": ([r["sys_s"] for r in plain], "s"),
            "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
        }
        metrics = {k: {"value": statistics.median(e2e[k][0]), "unit": e2e[k][1]}
                   for k in END_TO_END if e2e[k][0]}
        report["end_to_end"] = {k: dict(summary(v), unit=u) for k, (v, u) in e2e.items() if v}

    RUNS.mkdir(parents=True, exist_ok=True)
    report_path = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    shutil.rmtree(runner.outdir, ignore_errors=True)
    for r in ops:
        for p in r["problems"]:
            print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="simulate-400, simulate-csv-128, steady-96 or certify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that every correctness check fires on a corrupted output")
    args = p.parse_args(argv)
    if not (SRC / "kinfp" / "__init__.py").is_file():
        print(f"perfbench: no kinfp package under {SRC}", file=sys.stderr)
        return 2
    envinfo.pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import kinfp

    if Path(kinfp.__file__).resolve().parent != (SRC / "kinfp").resolve():
        print(f"perfbench: imported kinfp from {kinfp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main(RUNS / "selftest")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
