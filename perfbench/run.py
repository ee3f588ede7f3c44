"""Benchmark of the fockdirichlet workbench over the shipped scenarios.

    python3 perfbench/run.py --workload heat --seed 1 --seconds 18 --trace 0

Run from the repository root.  With `--trace 0` it times whole passes of one
workload through `cli.run_scenario` (a warm-up pass, then timed passes until
they add up to `--seconds`, at least three) and prints the end-to-end metrics:
`wall_s`, the mean timed pass scaled to a reference host speed by a probe
timed before each pass; the median `setup_s` of fresh processes that import
the package and load the workload's configs; and `peak_rss_mb`.
With `--trace 1` it runs each workload's pass three times, as a warm-up,
untraced and traced, and prints the per-layer metrics.  Every report is
checked against the benchmark's own computations (checks.py) and against
the report of the first pass, byte for byte.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_PASSES = 3
# Host speed probe: a fixed loop of dense SVDs, timed before every timed pass
# and once after the last.  The shared host's speed drifts by up to ±30% over
# tens of seconds; wall_s is scaled by CAL_REF_S over the probe's mean time,
# which is about its median time on the machine the bounds were measured on.
CAL_SIZE, CAL_REPS, CAL_REF_S = 200, 10, 0.08
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
from fockdirichlet import cli
for path in sys.argv[1:]:
    cli.load_config(path)
print(time.perf_counter() - t0)
"""


def _import_program():
    """Import fockdirichlet from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from fockdirichlet import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fockdirichlet from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: fockdirichlet came from {cli.__file__}, not {src}")
    return cli


class Runner:
    """Runs passes over configs, checks every report, counts failures."""

    def __init__(self, cli, seed: int):
        import checks  # numpy: imported only once the thread count is set
        self.cli, self.seed, self.check = cli, seed, checks.check
        self.attempted = self.failed = 0
        self.correct = True
        self.first_bytes: dict[str, bytes] = {}

    def run_pass(self, configs, out_dir: Path) -> float:
        """Wall seconds of one pass; checks run after the clock stops."""
        gc.collect()
        outcomes = []
        t0 = time.perf_counter()
        for stem, cfg in configs:
            try:
                status, _ = self.cli.run_scenario(cfg, out_dir=str(out_dir),
                                                  seed=self.seed)
                outcomes.append((stem, cfg, status, None))
            except Exception as exc:  # counted as a failed scenario call
                outcomes.append((stem, cfg, None, f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - t0
        for stem, cfg, status, err in outcomes:
            self._judge(stem, cfg, status, err, out_dir)
        return wall

    def _judge(self, stem, cfg, status, err, out_dir):
        self.attempted += 1
        problems = []
        if err is None and status != 0:
            err = f"exit status {status}"
        if err is None:
            names = [cfg["output"]["json"]] + (
                [cfg["output"]["csv"]] if "csv" in cfg["output"] else [])
            blob = b"".join((out_dir / n).read_bytes() for n in names)
            if self.first_bytes.setdefault(f"{out_dir}/{stem}", blob) != blob:
                problems.append("report differs from the first pass's")
            report = json.loads((out_dir / names[0]).read_text())
            problems += self.check(cfg, report, self.seed)
            self.correct = self.correct and not problems
        if err or problems:
            self.failed += 1
            print(f"perfbench: {stem}: {err or '; '.join(problems)}",
                  file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _setup_sample(paths) -> float:
    """One setup_s sample, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, paths)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _probe_seconds(matrix) -> float:
    """Seconds of the host speed probe: CAL_REPS SVDs of one fixed matrix."""
    import numpy as np
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        np.linalg.svd(matrix)
    return time.perf_counter() - t0


def timed_run(cli, name: str, seed: int, seconds: float) -> dict:
    out_dir = OUT / name
    shutil.rmtree(out_dir, ignore_errors=True)
    paths = workloads.write(workloads.build(ROOT, name), out_dir / "configs")
    configs = [(p.stem, cli.load_config(str(p))) for p in paths]

    import numpy as np
    probe_matrix = np.random.default_rng(0).standard_normal((CAL_SIZE, CAL_SIZE))
    runner = Runner(cli, seed)
    runner.run_pass(configs, out_dir)          # warm-up, not timed
    _probe_seconds(probe_matrix)               # warm-up, not kept
    # timed passes until they add up to `seconds`, each just after a probe;
    # the set-up samples are spread between them, so that they see the same
    # stretch of host speed as the passes
    walls, probes, setup = [], [], []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        if len(setup) < SETUP_SAMPLES:
            setup.append(_setup_sample(paths))
        probes.append(_probe_seconds(probe_matrix))
        walls.append(runner.run_pass(configs, out_dir))
    probes.append(_probe_seconds(probe_matrix))
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(paths))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host = statistics.fmean(probes) / CAL_REF_S
    print(f"# workload={name} seed={seed} blas_threads={BLAS_THREADS} "
          f"passes={len(walls)} pass_s={[round(w, 4) for w in walls]} "
          f"raw_wall_s={statistics.fmean(walls):.4f} host_factor={host:.4f} "
          f"probe_s={[round(p, 4) for p in probes]} "
          f"setup_s={[round(s, 4) for s in setup]}")
    return runner.result({
        "wall_s": {"value": statistics.fmean(walls) / host, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    })


def traced_run(cli, seed: int) -> dict:
    """Per-layer metrics over one pass of every workload."""
    suite = []
    for name in workloads.NAMES:
        out_dir = OUT / "trace" / name
        shutil.rmtree(out_dir, ignore_errors=True)
        suite.append((out_dir, workloads.write(workloads.build(ROOT, name),
                                               out_dir / "configs")))
    runner = Runner(cli, seed)
    tr = tracer.Tracer()

    def workload_pass(out_dir, paths) -> float:
        t0 = time.perf_counter()
        configs = [(p.stem, cli.load_config(str(p))) for p in paths]
        return time.perf_counter() - t0 + runner.run_pass(configs, out_dir)

    # each workload's untraced and traced passes run back to back, which
    # keeps host speed drift between the two as small as it can be
    plain = traced = 0.0
    for out_dir, paths in suite:
        workload_pass(out_dir, paths)           # warm-up
        plain += workload_pass(out_dir, paths)
        with tr.installed():
            traced += workload_pass(out_dir, paths)
    metrics = tr.metrics()
    metrics["src.lines"] = {"value": sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
        "unit": "lines"}
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    print(f"# trace seed={seed} blas_threads={BLAS_THREADS} untraced_s={plain:.4f} "
          f"traced_s={traced:.4f} spans={len(tr.spans)}")
    _write_trace(tr)
    return runner.result(metrics)


def _write_trace(tr):
    """All spans as tab-separated lines: name, start, end, parent index."""
    with open(OUT / "trace" / "spans.tsv", "w") as fh:
        fh.write("name\tstart_s\tend_s\tparent\n")
        for name, t0, t1, parent in tr.spans:
            fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # fix the BLAS/OpenMP pool before numpy is imported
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    cli = _import_program()
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")
    if args.trace:
        result = traced_run(cli, args.seed)
    else:
        result = timed_run(cli, args.workload, args.seed, args.seconds)
    # print exactly the metrics BENCHMARK.json declares; a missing one fails
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
