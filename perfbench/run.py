"""uwdiff benchmark: seeded CLI workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the stages run the uwdiff CLI from
`src/`. The benchmark writes the workload's inputs from the seed, prepares the
models it needs (untimed), then runs passes of the workload's stages in a
closed loop, one caller and one fresh process per stage, until S seconds of
stage time are spent. Outputs of every pass are checked outside the timed
stage time. BLAS runs on one thread in every stage process, set through the
child environment only.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
passes alternate between untraced and traced, and it reports the per-layer
metrics of the traced passes plus the tracing overhead. The exit code is 0
only when every stage succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics, merge, unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_PROBES = 10  # per stage and run, at least
PROBES_PER_PASS = 2
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({name: str(BLAS_THREADS) for name in THREAD_VARIABLES})
    return env


class Runner:
    """Starts one stage process at a time and records its wall time and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.env = stage_env()

    def run(self, argv: list[str], log: Path, *flags: str) -> tuple[int, float, int]:
        """(exit code, wall seconds, peak RSS in KiB) of `stage.py [flags] -- argv`."""
        cmd = [sys.executable, str(HERE / "stage.py"), *flags, "--", *argv]
        with open(log, "w", encoding="utf-8") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def must(self, argv: list[str]) -> None:
        log = self.work / f"prep-{argv[0]}.log"
        code, _, _ = self.run(argv, log)
        if code != 0:
            raise RuntimeError(f"preparation stage {argv[0]} exited {code}:\n{tail(log)}")

    def setup_seconds(self, argv: list[str]) -> float:
        """Seconds from spawning the stage until its first item would begin."""
        mark = self.work / "probe.mark"
        log = self.work / "probe.log"
        spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        code, _, _ = self.run(argv, log, "--setup-probe", str(mark))
        if code != 0:
            raise RuntimeError(f"set-up probe of {argv[0]} exited {code}:\n{tail(log)}")
        return (int(mark.read_text()) - spawned) / 1e9


def tail(path: Path) -> str:
    try:
        return "\n".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-15:])
    except OSError:
        return ""


def run_pass(workload, runner: Runner, out: Path, traced: bool) -> dict:
    out.mkdir(parents=True)
    record = {"traced": traced, "walls": {}, "rss_kb": 0, "failed": 0, "attempted": 0, "problems": [],
              "snapshots": []}
    for argv in workload.stages(out):
        stage = argv[0]
        flags = ("--trace", str(out / f"{stage}.trace.json")) if traced else ()
        code, wall, rss = runner.run(argv, out / f"{stage}.log", *flags)
        record["attempted"] += 1
        record["walls"][stage] = wall
        record["rss_kb"] = max(record["rss_kb"], rss)
        if code != 0:
            record["failed"] += 1
            record["problems"].append(f"{stage} exited {code}:\n{tail(out / f'{stage}.log')}")
            return record
        if traced:
            record["snapshots"].append(json.loads((out / f"{stage}.trace.json").read_text()))
    return record


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uwdiff" / "cli.py").is_file():
        print(f"error: no uwdiff sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(WORKLOADS[args.workload](work, args.seed), args, env)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(workload, args, env) -> int:
    runner = Runner(workload.work)
    workload.generate()
    workload.prepare(runner.must)
    runner.setup_seconds(workload.stages(workload.work / "warmup")[0])  # fills the bytecode cache

    passes: list[dict] = []
    setup: dict[str, list[float]] = {stage: [] for stage in workload.stage_names}
    quality: dict[str, list[float]] = {}
    reference_digest = None
    kept = None  # the latest pass whose outputs passed the checks
    spent = 0.0
    while spent < args.seconds or (args.trace and len({p["traced"] for p in passes}) < 2):
        out = workload.work / f"pass{len(passes)}"
        record = run_pass(workload, runner, out, traced=bool(args.trace) and len(passes) % 2 == 1)
        passes.append(record)
        spent += sum(record["walls"].values())
        if record["failed"]:
            shutil.rmtree(out, ignore_errors=True)
            continue
        values, problems, output_digest = workload.check(out)
        reference_digest = reference_digest or output_digest
        if output_digest != reference_digest:
            problems.append("outputs differ from the first pass on the same inputs")
        if problems:
            record["problems"] += problems
            record["failed"] += 1
            shutil.rmtree(out, ignore_errors=True)
            continue
        for name, value in values.items():
            quality.setdefault(name, []).append(value)
        if kept is not None:
            shutil.rmtree(kept, ignore_errors=True)
        kept = out
        if not args.trace:
            # probes between passes sample set-up across the run, not in one burst
            for _ in range(PROBES_PER_PASS):
                for argv in workload.stages(kept):
                    setup[argv[0]].append(runner.setup_seconds(argv))
    while kept is not None and not args.trace and len(setup[workload.stage_names[0]]) < SETUP_PROBES:
        for argv in workload.stages(kept):
            setup[argv[0]].append(runner.setup_seconds(argv))

    ok = [p for p in passes if not p["failed"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = min(sum(p["failed"] for p in passes), attempted)
    plain = [sum(p["walls"].values()) for p in ok if not p["traced"]]

    print(f"# uwdiff benchmark: workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# why: {workload.why}")
    print("# environment " + json.dumps(env))
    print(f"# {len(passes)} passes of {', '.join(workload.stage_names)}; {attempted} stage runs, {failed} failed")
    for p in passes:
        for problem in p["problems"]:
            print(f"# FAILED: {problem}")
    print("# untraced pass walls (s): " + " ".join(f"{w:.3f}" for w in plain))

    if not args.trace:
        for stage, samples in setup.items():
            print(f"# setup {stage}: median {median(samples):.4f} s of {len(samples)} probes, "
                  f"range {min(samples):.4f}-{max(samples):.4f} s")
        rates = [workload.throughput(p["walls"]) for p in ok]
        for name in rates[0] if rates else ():
            print(f"{name} {median([r[name] for r in rates]):.6g} 1/s")
        for name, values in quality.items():
            print(f"{name} {median(values):.6g} {'dB' if name.endswith('_db') else '1'}")
        print(f"failed_frac {failed / max(attempted, 1):.6g} 1 ({failed} of {attempted} stage runs)")
        report = {
            "setup_s": (sum(median(samples) for samples in setup.values()), "s"),
            "wall_s": (median(plain), "s"),
            "peak_rss_mb": (max((p["rss_kb"] for p in passes), default=0) / 1024.0, "MB"),
        }
    else:
        traced = [merge(p["snapshots"]) for p in ok if p["traced"]]
        heavy = [sum(p["walls"].values()) for p in ok if p["traced"]]
        per_pass = [layer_metrics(m) for m in traced]
        # median_low keeps counts whole: it picks one pass's value
        report = {
            name: (statistics.median_low([m[name] for m in per_pass]), unit(name))
            for name in (per_pass[0] if per_pass else ())
        }
        print(f"# median pass wall: untraced {median(plain):.4f} s, traced {median(heavy):.4f} s")
        report["trace.overhead_s"] = (median(heavy) - median(plain), "s")
        if traced:
            print(f"# {'span (first traced pass)':38s} {'calls':>8s} {'total_s':>12s} {'self_s':>12s}")
            for name, (calls, total, self_s) in sorted(traced[0]["spans"].items()):
                print(f"#   {name:36s} {calls:8d} {total:12.4f} {self_s:12.4f}")
            if traced[0]["missing"]:
                print("# hooks not found: " + ", ".join(traced[0]["missing"]))

    metrics = {}
    for name, (value, label) in report.items():
        metrics[name] = {"value": value if math.isfinite(value) else 0.0, "unit": label}
        print(f"{name} {value:.6g} {label}")
    correct = failed == 0 and bool(ok)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
