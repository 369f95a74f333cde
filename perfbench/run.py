"""Benchmark entry point: ``hiergru run --jobs 1`` end to end on a seeded
synthetic workload, with correctness checks on every run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload panel-s --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` adds a traced in-process run and reports the per-layer
metrics.  Each metric is printed by name with its unit; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run is a fresh process, back to back, one at a time.
See ``perfbench/README.md`` for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from checks import output_digest, output_problems, rel_rmse_means, reload_forecast_digest
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
SETUP_PER_RUN = 3  # set-up samples taken before each timed run
PANELS = 3  # input sets per invocation; their seeds are seed * PANELS + 0, 1, 2
TRACE_BASELINE_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Children import hiergru from this checkout's sources and run BLAS on
    one thread, so a run is one process doing one thing at a time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def timed(cmd: list[str], log: Path) -> dict:
    """Run one child to completion; wall time from spawn to exit, plus the
    child's own CPU time and peak RSS."""
    with open(log, "wb") as fh:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = (time.perf_counter_ns() - spawn_ns) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "spawn_ns": spawn_ns,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment_stamp() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hiergru").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_children": {var: "1" for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


class Panel:
    """One input set of an invocation: its config, the first good run's
    output digests and that run's output directory."""

    def __init__(self, workload: str, seed: int, dest: Path):
        self.seed = seed
        self.config = make_inputs(workload, seed, dest)
        with open(dest / "hierarchy.csv", newline="", encoding="utf-8") as fh:
            self.root = next(r["node_id"] for r in csv.DictReader(fh) if not r["parent_id"])
        self.reference: tuple | None = None
        self.first_ok: Path | None = None


class Bench:
    """One invocation: ``PANELS`` input sets for one workload and seed, then
    timed runs that cycle through them."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.labels = self.workload.labels()
        self.work = WORK / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.panels = [Panel(workload, seed * PANELS + i, self.work / f"inputs{i}")
                       for i in range(PANELS)]
        self.setup: list[float] = []  # set-up sample wall times, s
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def check(self, panel: Panel, out: Path, tag: str, rc: int,
              extra: list[str] = ()) -> bool:
        """Count one attempted run; record why it failed, if it did."""
        self.attempted += 1
        problems = list(extra)
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            problems += output_problems(out, self.labels)
        if not problems:
            try:
                digests = (output_digest(out),
                           reload_forecast_digest(out, panel.config, self.labels))
            except Exception as exc:  # any reload failure fails this run
                problems.append(f"reload: {type(exc).__name__}: {exc}")
            else:
                if panel.reference is None:
                    panel.reference, panel.first_ok = digests, out
                elif digests[0] != panel.reference[0]:
                    changed = sorted(k for k in digests[0]
                                     if digests[0][k] != panel.reference[0].get(k))
                    problems.append(f"outputs differ from the first run: {changed[:5]}")
                elif digests[1] != panel.reference[1]:
                    problems.append("reloaded forecasts differ from the first run")
        if problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in problems]
        return not problems

    def setup_samples(self, count: int) -> None:
        """Append ``count`` set-up samples of the first panel to ``self.setup``."""
        cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
               str(self.panels[0].config)]
        for _ in range(count):
            i = len(self.setup)
            r = timed(cmd, self.work / f"setup{i}.log")
            if r["rc"] != 0:
                self.problems.append(f"setup probe {i}: exit code {r['rc']}")
            self.setup.append(r["wall_s"])

    def timed_runs(self, seconds: float, panels: list[Panel], least: int,
                   setup_per_run: int = 0) -> list[dict]:
        """Back-to-back untraced runs, cycling through ``panels``, until the
        next would overrun ``seconds``; always at least ``least``.  Set-up
        samples go between the runs, so that they and the runs see the same
        stretch of the host's speed."""
        runs = []
        t0 = time.perf_counter()
        while len(runs) < least or (time.perf_counter() - t0
                                    + statistics.median(r["wall_s"] for r in runs) < seconds):
            self.setup_samples(setup_per_run)
            panel = panels[len(runs) % len(panels)]
            tag = f"run{len(runs)}"
            out = self.work / tag
            r = timed([sys.executable, "-m", "hiergru.cli", "run",
                       "--config", str(panel.config), "--out", str(out), "--jobs", "1"],
                      self.work / f"{tag}.log")
            r["ok"] = self.check(panel, out, tag, r["rc"])
            r["out"] = str(out)
            r["panel_seed"] = panel.seed
            runs.append(r)
        return runs

    def traced_run(self) -> dict:
        panel = self.panels[0]
        out = self.work / "traced"
        result_path = self.work / "traced.json"
        r = timed([sys.executable, str(ROOT / "perfbench" / "traced_run.py"),
                   "--config", str(panel.config), "--out", str(out),
                   "--result", str(result_path), "--spans", str(self.work / "spans.npz"),
                   "--seed", str(panel.seed),
                   "--jobs-compare", ",".join(self.workload.jobs_compare)],
                  self.work / "traced.log")
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            result = {}
            extra = [f"no traced result ({exc})"]
        else:
            extra = [f"reload mismatch {m}" for m in result.get("reload_mismatches", [])]
        self.check(panel, out, "traced", r["rc"], extra)
        result["spawn_ns"] = r["spawn_ns"]
        return result


def end_to_end(bench: Bench, runs: list[dict]) -> dict[str, float]:
    good = [r for r in runs if r["ok"]] or runs
    # Quality is the mean over the panels; a panel without a checked report
    # has no quality figure, and its runs are already counted as failed.
    quality = [rel_rmse_means(p.first_ok, p.root) for p in bench.panels if p.first_ok]
    return {
        "run_s": statistics.median(r["wall_s"] for r in good),
        "setup_s": statistics.median(bench.setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "avg_rel_rmse": statistics.fmean(q[0] for q in quality) if quality else 0.0,
        "headline_rel_rmse": statistics.fmean(q[1] for q in quality) if quality else 0.0,
    }


def per_layer(traced: dict, runs: list[dict]) -> dict[str, float]:
    layers = dict(traced.get("layers", {}))
    if "run_end_ns" in traced:
        total = (traced["run_end_ns"] - traced["spawn_ns"]) / 1e9
        layers["cli.total_s"] = total
        layers["cli.other_s"] = total - traced.get("stages_s", 0.0)
        layers["trace.overhead_s"] = total - statistics.median(r["wall_s"] for r in runs)
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hiergru" / "__init__.py").is_file():
        print(f"perfbench: no hiergru package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stamp = environment_stamp()
    bench = Bench(args.workload, args.seed)

    if args.trace:
        # Untraced runs of the traced panel, for trace.overhead_s.
        runs = bench.timed_runs(0.0, bench.panels[:1], TRACE_BASELINE_RUNS)
        traced = bench.traced_run()
        values = per_layer(traced, runs)
        listed = spec["per_layer"]
    else:
        runs = bench.timed_runs(args.seconds, bench.panels, PANELS, SETUP_PER_RUN)
        traced = {}
        values = end_to_end(bench, runs)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}
    fail_rate = bench.failed / bench.attempted

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(runs)}")
    for m in listed:
        print(f"  {m['name']:<38} {metrics[m['name']]['value']:>14.6g} {m['unit']}"
              f" ({m['better']} is better)")
    print(f"  {'fail_rate':<38} {fail_rate:>14.6g} ratio ({bench.failed} of "
          f"{bench.attempted} runs failed a check; lower is better)")
    for problem in bench.problems:
        print(f"  problem: {problem}")
    for name in traced.get("unwrapped") or []:
        print(f"  not traced, no such function: {name}")
    print(f"stamp {json.dumps(stamp, sort_keys=True)}")

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "stamp": stamp, "metrics": metrics, "fail_rate": fail_rate,
            "problems": bench.problems, "runs": runs,
            "warnings_by_line": traced.get("warnings_by_line"),
            "unwrapped": traced.get("unwrapped"),
        }, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
