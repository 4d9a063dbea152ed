"""Benchmark worker: sets up one workload, runs it in a closed loop, checks
every output, and prints one JSON line of raw measurements.

Started by run.py with the thread variables pinned. Set-up time runs from the
first statement of this file until the scenarios are written and the program
is imported; reference computations come after the timed loop.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


PROBE_EVERY_S = 0.5  # host probes between operations, at most this often


class HostProbe:
    """A fixed kernel, independent of amplipriv, whose wall time gauges the
    host's speed: an interpreted walk over 50,000 small objects in shuffled
    order and in-place passes over a 4 MB array, both beyond the per-core
    cache, as the interpreter's heap and the Monte Carlo arrays are.

    run.py divides operation times by its median relative to a reference
    time, so drift of the host's speed cancels while changes in the
    program's cost do not. The buffers are allocated once; ``footprint_mb``
    is their resident size, which the worker subtracts from its peak.
    """

    def __init__(self):
        import random

        import numpy

        before = _rss_mb()
        self._np = numpy
        self._objs = [(float(i), i) for i in range(50_000)]
        random.Random(0).shuffle(self._objs)
        self._array = numpy.full(1 << 19, 0.5)
        self.footprint_mb = _rss_mb() - before

    def __call__(self) -> float:
        np, a = self._np, self._array
        t0 = time.perf_counter()
        acc = 0.0
        for x, _ in self._objs:
            acc += x
        for _ in range(6):
            np.multiply(a, 0.5, out=a)
            np.add(a, 0.25, out=a)
            np.sqrt(a, out=a)
        return time.perf_counter() - t0


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout root holding src/amplipriv")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="directory for scenarios, reports and traces")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_program(root: Path):
    """Import amplipriv from the checkout under test and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "amplipriv" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {src}/amplipriv")
    sys.path.insert(0, str(src))
    import amplipriv
    import amplipriv.cli

    if not Path(amplipriv.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: imported amplipriv from {amplipriv.__file__}, not {src}")
    return amplipriv.cli.run_scenario


def front_door_op(run_scenario, wl, index: int, report_dir: Path) -> list:
    """One operation: every call of the workload through run_scenario.

    Returns the exit codes; the console text is captured and dropped.
    """
    codes = []
    for call in wl.calls:
        seed = wl.release_seed0 + index if call.kind == "release" else None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(run_scenario(call.command, str(call.path), str(report_dir), "json", seed))
    return codes


def collect(wl, codes: list, report_dir: Path) -> list:
    """(exit code, report bytes) of each call of one operation."""
    out = []
    for call, rc in zip(wl.calls, codes):
        stem = call.path.stem
        names = [f"{stem}_release.json"] if call.kind == "release" else [
            f"{stem}_audit.csv", f"{stem}_audit.json"]
        blobs = [(report_dir / n).read_bytes() if (report_dir / n).exists() else b"" for n in names]
        out.append((rc, blobs))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root)
    out_dir = Path(args.out)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    run_scenario = import_program(root)
    import workloads

    wl = workloads.build(args.workload, args.seed, out_dir / "scenarios")
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks

    report_dir = out_dir / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    # untimed warm-up: the first operation through the front door
    warm = collect(wl, front_door_op(run_scenario, wl, 0, report_dir), report_dir)
    if args.trace:
        import tracing

        tr = tracing.Tracer()
        instrumented = tracing.instrumented(tr)
        source_dir = out_dir / "replay"
        source_dir.mkdir(parents=True, exist_ok=True)
        first = 0  # the first replay re-runs the warm-up operation

        def operation(index: int) -> list:
            tr.op = index
            for call in wl.calls:
                if call.kind == "release":
                    tracing.replay_simulate(tr, call.path, source_dir, wl.release_seed0 + index)
                else:
                    tracing.replay_audit(tr, call.path, source_dir)
            return [0] * len(wl.calls)
    else:
        instrumented = contextlib.nullcontext()
        source_dir = report_dir
        first = 1

        def operation(index: int) -> list:
            return front_door_op(run_scenario, wl, index, report_dir)

    probe = HostProbe()
    probe_times = []
    outputs = []
    op_times = []
    last_probe = -float("inf")
    deadline = time.perf_counter() + args.seconds
    with instrumented:
        index = first
        while True:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probe_times.append(probe())
                last_probe = time.perf_counter()
            gc.collect()
            t0 = time.perf_counter()
            codes = operation(index)
            t1 = time.perf_counter()
            op_times.append(t1 - t0)
            outputs.append(collect(wl, codes, source_dir))
            index += 1
            if t1 >= deadline:
                break
    probe_times.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe.footprint_mb

    result = {"setup_s": setup_s, "op_times": op_times, "probe_times": probe_times,
              "peak_rss_mb": peak_rss_mb}
    if args.trace:
        result["per_layer"] = {k: {"value": v, "unit": tracing.unit(k)}
                               for k, v in sorted(tracing.per_layer_metrics(tr, len(op_times)).items())}
        result["layer_shares"] = tracing.layer_shares(tr)
        tr.write(out_dir / "trace.jsonl")
    verdicts, result["notes"] = checks.check_run(wl, warm, outputs, replayed=bool(args.trace))
    result["op_failed"] = [not ok for ok in verdicts["ops"]]
    result["checks_ok"] = verdicts["run"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
