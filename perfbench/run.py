"""Run one gearpinv benchmark workload and print its metrics.

Usage, from the root of a gearpinv checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

One process and one closed-loop client: each op starts after the
previous one returned and was checked.  The run repeats whole passes of
the workload until ``--seconds`` have passed and enough ops ran for the
workload's tail percentile to have 10 samples beyond it.  Every op's
output goes through the correctness gate outside the timed region.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
Times are rescaled to a reference machine speed (see timing.py); the
summary lines also give them unscaled.  ``--trace 1`` runs every op
twice, untraced and then under the span recorder, reports the per-layer
metrics and writes the spans to ``.bench_out/``.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import gearpinv, gearpinv.cli; "
    "print(time.perf_counter() - start, gearpinv.__file__)"
)
MAX_REPORTED_ERRORS = 3


def _blas_threads() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    return {var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _from_src(module_file: str) -> bool:
    return Path(module_file).resolve().parent == (SRC / "gearpinv").resolve()


def _import_once(env) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    seconds, module_file = proc.stdout.split()
    if not _from_src(module_file):
        raise RuntimeError(f"the probe imported gearpinv from {module_file}, not from {SRC}")
    return float(seconds)


def measure_setup(timing) -> tuple[float, float]:
    """Median time for a fresh interpreter to import gearpinv and gearpinv.cli.

    Returns the median rescaled to the reference speed and the median
    wall time.  A first import, which may compile bytecode, is discarded.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    _import_once(env)
    values, speeds = [], [timing.calibrate()]
    for _ in range(SETUP_SAMPLES):
        values.append(_import_once(env))
        speeds.append(timing.calibrate())
    return statistics.median(timing.rescale(values, speeds)), statistics.median(values)


class Run:
    """Op timings and gate verdicts of one benchmark run."""

    def __init__(self, gate):
        self.gate = gate
        self.times: list[float] = []
        self.speeds: list[float] = []  # calibrate() before the first op and after each op
        self.traced_times: list[float] = []
        self.verdicts: Counter = Counter()
        self.errors = 0

    def op(self, op) -> float:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # an op that raises is a failed op; the run goes on
            elapsed = time.perf_counter() - start
            verdict = self.gate.REJECTED
            self._report(op, "raised")
        else:
            elapsed = time.perf_counter() - start
            try:
                verdict = op.check(result)
            except Exception:  # output too malformed to check is wrong
                verdict = self.gate.WRONG
                self._report(op, "malformed output")
            else:
                if verdict == self.gate.WRONG:
                    self._report(op, "wrong output")
        self.verdicts[verdict] += 1
        return elapsed

    def _report(self, op, problem: str) -> None:
        self.errors += 1
        if self.errors <= MAX_REPORTED_ERRORS:
            print(f"{op.kind} {op.size}: {problem}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc(file=sys.stderr)

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.verdicts[self.gate.OK]


def traced(run: Run, recorder, op) -> None:
    recorder.op = len(run.traced_times)
    first_span = len(recorder.spans)
    with recorder.installed():
        run.traced_times.append(run.op(op))
    recorder.finish_op(first_span)


def measure(workload, seconds: float, gate, timing, recorder=None) -> Run:
    run = Run(gate)
    for op in workload.warmup():
        op.run()
    min_ops = 1 if recorder else math.ceil(10 / (1 - workload.tail_q))
    start = time.perf_counter()
    run.speeds.append(timing.calibrate())
    pass_index = 0
    while time.perf_counter() - start < seconds or len(run.times) < min_ops:
        for op in workload.make_pass(pass_index):
            # In a traced run every other op runs traced first, so that
            # whichever copy runs second and finds warm caches is balanced.
            traced_first = recorder is not None and len(run.times) % 2 == 1
            if traced_first:
                traced(run, recorder, op)
            run.times.append(run.op(op))
            run.speeds.append(timing.calibrate())
            if recorder is not None and not traced_first:
                traced(run, recorder, op)
        pass_index += 1
    return run


def end_to_end(run: Run, workload, timing, setup: tuple[float, float]) -> tuple[dict[str, float], str]:
    """The end-to-end metrics and a summary with the unscaled times."""
    times = timing.rescale(run.times, run.speeds)
    setup_s, setup_wall_s = setup
    q = workload.tail_q
    values = {
        "latency_p50_s": timing.harrell_davis(times, 0.5),
        "latency_tail_s": timing.harrell_davis(times, q),
        "throughput_ops_s": len(times) / sum(times),
        "passed_ops_ratio": run.verdicts[run.gate.OK] / run.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = (
        f"{workload.name} seed {workload.seed}: {len(times)} ops, {run.failed} failed "
        f"(failed_ops_ratio {run.failed / run.attempted:.4f}); tail is p{float(q) * 100:.1f} "
        f"of {len(times)} samples\n"
        f"  unscaled: p50 {timing.harrell_davis(run.times, 0.5):.6g} s, "
        f"tail {timing.harrell_davis(run.times, q):.6g} s, "
        f"throughput {len(run.times) / sum(run.times):.6g} 1/s, setup {setup_wall_s:.6g} s; "
        f"machine speed {timing.CALIBRATION_REF_S / statistics.median(run.speeds):.4f} x reference"
    )
    return values, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "gearpinv" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} is not a gearpinv checkout (needs src/gearpinv and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())

    os.environ.update(_blas_threads())  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import gearpinv

    if not _from_src(gearpinv.__file__):
        print(f"error: gearpinv was imported from {gearpinv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import gate
    import timing
    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    try:
        if args.trace:
            listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
            layer_names = [name for name in listed if not name.startswith("trace.")]
            recorder = Recorder(layer_names)
            run = measure(workload, args.seconds, gate, timing, recorder)
            values = recorder.layer_metrics(len(run.traced_times))
            values["trace.overhead_ratio"] = sum(run.times) / sum(run.traced_times)
            spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
            recorder.write(spans_file)
            print(f"{args.workload} seed {args.seed}: {len(run.traced_times)} traced ops, "
                  f"{len(recorder.spans)} spans written to {spans_file.relative_to(ROOT)}")
        else:
            listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            setup = measure_setup(timing)
            run = measure(workload, args.seconds, gate, timing)
            values, summary = end_to_end(run, workload, timing, setup)
            print(summary)
    finally:
        workload.close()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in listed.items()}
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": run.verdicts[gate.WRONG] == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
