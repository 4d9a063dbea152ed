"""Run one benchmark workload against the amplipriv source in this checkout.

    python3 bench/run.py --workload audit-quadrature --seed 1 --seconds 25 --trace 0

Run it from the checkout root. It starts a few set-up probes and then one
worker process (worker.py), all with BLAS/OpenMP thread counts pinned to 1,
and prints the environment, some context lines and, as the last line of
standard output, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced replay. Scenarios, reports and
traces go to bench_out/ in the checkout. See bench/README.md.
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

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6  # fresh processes that only set up; with the worker, 7 samples
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# the host probe's wall time (worker.HostProbe) on the host the bounds were
# set on; timings are reported as if the host ran at that speed
PROBE_REF_S = 0.015


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("AMPLIPRIV_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_worker(root: Path, env: dict, extra: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), *extra]
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail_percentile(times: list):
    """Highest percentile with at least ten samples beyond it (None below 40)."""
    n = len(times)
    if n < 40:
        return None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, statistics.quantiles(times, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t_begin = time.monotonic()
    root = Path.cwd().resolve()
    if not (root / "src" / "amplipriv" / "__init__.py").is_file():
        print(f"bench: {root} holds no src/amplipriv to benchmark; run from the checkout root",
              file=sys.stderr)
        return 2
    env = worker_env(root)
    out = root / "bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    import numpy

    print(f"env: cores={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          + " ".join(f"{v}={env[v]}" for v in THREAD_VARS)
          + f" AMPLIPRIV_THREADS=unset commit={git_commit(root)}")

    setups = []
    for k in range(SETUP_PROBES):
        sample = run_worker(root, env, [*common, "--setup-only", "--out", str(out / f"setup{k}")],
                            DEADLINE_S - (time.monotonic() - t_begin))
        setups.append(sample["setup_s"])
    res = run_worker(root, env, [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                                 "--out", str(out)], DEADLINE_S - (time.monotonic() - t_begin))
    setups.append(res["setup_s"])

    # drift-resistant timing: divide by the host's speed during this run,
    # measured by the probe between operations, relative to PROBE_REF_S
    factor = statistics.median(res["probe_times"]) / PROBE_REF_S
    raw = res["op_times"]
    times = [t / factor for t in raw]
    p50 = statistics.median(times)
    tail = tail_percentile(times)
    print(f"ops={len(times)} op_p50_s={p50:.6f} "
          + (f"op_p{tail[0]:g}_s={tail[1]:.6f}" if tail else "tail=none (fewer than 40 ops)")
          + f" setup_samples_s={[round(s, 4) for s in setups]}")
    print(f"host: probes={len(res['probe_times'])} factor={factor:.4f} "
          f"raw op_p50_s={statistics.median(raw):.6f} raw setup_s={statistics.median(setups):.6f}")
    print(f"checks: {json.dumps(res['notes'], sort_keys=True)}")
    if args.trace:
        print("layer_shares=" + json.dumps({k: round(v, 4) for k, v in res["layer_shares"].items()}))
        metrics = res["per_layer"]
    else:
        metrics = {
            "op_p50_s": {"value": p50, "unit": "s"},
            "ops_per_s": {"value": len(times) / math.fsum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups) / factor, "unit": "s"},
        }
    print(json.dumps({
        "correct": bool(res["checks_ok"]),
        "attempted": len(times),
        "failed": sum(res["op_failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
