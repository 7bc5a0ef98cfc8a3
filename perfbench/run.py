"""The httool benchmark: one workload per invocation, one closed-loop client.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory and nothing else.  Operations run one at a time, each after
the previous one has returned, in whole passes (see `workloads.py`) until the
next pass would end after `--seconds`.  Every result is judged by the
workload's oracle after the timed loop.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones:

  setup_s   median, over fresh processes, of the time from process start to
            the first operation (interpreter start, imports including the
            CLI, loading the pools, making the first pass of inputs)
  p50_ms    median latency of the primary call
  tail_ms   latency at the workload's fixed tail percentile
  wall_s    median time of one pass, primary and verification calls

All times are scaled to the speed of a fixed reference routine timed next to
them (`speed.py`); the raw times are kept in the run details.

With `--trace 1` the workload's fixed number of passes runs with every public
function of the layer modules wrapped (`tracer.py`), and the metrics are the
per-layer ones, including the tracing overhead against the same passes run
untraced in a fresh process.  Details of each run, the spans of a traced run
included, are written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, SpeedMeter, reference_median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "check", "construct", "extend"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh processes that measure set-up and untraced passes
    parser.add_argument("--probe", choices=("setup", "untraced"), help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import httool from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "httool" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no httool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import httool
    import httool.cli  # noqa: F401  (its import cost belongs to set-up)

    if Path(httool.__file__).resolve().parent != SRC / "httool":
        raise SystemExit(f"perfbench: imported httool from {httool.__file__}, not {SRC}")


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "httool").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


class Runner:
    """Runs passes of operations and keeps their latencies and results.

    Latencies are scaled to the reference speed (`speed.py`); the raw ones
    are kept as well."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.meter = SpeedMeter()
        self.latencies: list[float] = []
        self.verify_latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.raw_latencies: list[float] = []
        self.raw_pass_walls: list[float] = []
        self.records: list = []
        self.failures: list[str] = []
        self.attempted = 0

    def _timed(self, fn):
        tracer = self.tracer
        if tracer is None:
            return self.meter.call(fn)
        tracer.op = self.attempted
        tracer.active = True
        try:
            return self.meter.call(fn)
        finally:
            tracer.active = False

    def run_op(self, op) -> float:
        """Run one operation; return its scaled time, primary and verify."""
        self.attempted += 1
        spent = 0.0
        try:
            result, raw, scaled = self._timed(op.primary)
            spent += scaled
            verified = None
            if op.verify is not None:
                verified, _raw, verify_scaled = self._timed(lambda: op.verify(result))
                spent += verify_scaled
                self.verify_latencies.append(verify_scaled)
            self.latencies.append(scaled)
            self.raw_latencies.append(raw)
            self.records.append((op, result, verified))
        except Exception as exc:  # a raised exception is a failed operation
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return spent

    def run_pass(self, ops) -> float:
        """Run a pass; return its raw wall time."""
        t0 = time.perf_counter()
        self.pass_walls.append(sum(self.run_op(op) for op in ops))
        wall = time.perf_counter() - t0
        self.raw_pass_walls.append(wall)
        return wall

    def run_for(self, seconds: float, first_ops) -> None:
        """Whole passes until the next one, as long as the last, would end
        after `seconds`, or until the workload's cap; at least one pass."""
        start = time.perf_counter()
        ops = first_ops
        while True:
            wall = self.run_pass(ops)
            if time.perf_counter() - start + wall > seconds:
                return
            if len(self.pass_walls) == self.workload.max_passes:
                return
            ops = self.workload.next_pass()

    def run_passes(self, count: int, first_ops) -> None:
        ops = first_ops
        for i in range(count):
            if i:
                ops = self.workload.next_pass()
            self.run_pass(ops)

    def _judge(self, op, outputs) -> None:
        try:
            reason = op.judge(*outputs())
        except Exception as exc:
            reason = f"raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")

    def judge(self, extra_ops=()) -> None:
        """Apply the oracles to the kept results, then run and judge the
        untimed `extra_ops`."""
        for op, result, verified in self.records:
            self._judge(op, lambda: (result, verified))
        for op in extra_ops:
            self.attempted += 1
            self._judge(op, lambda: (op.primary(), None))


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def child(args, probe: str, extra=()) -> subprocess.Popen:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--probe", probe, *extra,
    ]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes, one at a time: from just before the
    process is started until it reports that its first pass is ready.
    Returns the scaled and the raw samples; the scale comes from reference
    runs just before and just after each process."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = reference_median()
        t0 = time.perf_counter()
        proc = child(args, "setup")
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        after = reference_median()
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / ((before + after) / 2))
    return scaled, raw


def measure_untraced(args, passes: int) -> float:
    proc = child(args, "untraced", ("--passes", str(passes)))
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=170) != 0:
            raise RuntimeError("untraced probe failed")
    return json.loads(out.strip().splitlines()[-1])["wall_s"]


def end_to_end(args, runner, workload) -> tuple[dict, dict]:
    setup, raw_setup = measure_setup(args)
    tail, beyond = percentile(runner.latencies, workload.tail_percentile)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "p50_ms": {"value": statistics.median(runner.latencies) * 1e3, "unit": "ms"},
        "tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "wall_s": {"value": statistics.median(runner.pass_walls), "unit": "s"},
    }
    details = {
        "tail_percentile": workload.tail_percentile,
        "samples": len(runner.latencies),
        "samples_beyond_tail": beyond,
        "passes": len(runner.pass_walls),
        "reference_median_ms": statistics.median(runner.meter.references) * 1e3,
        "raw_p50_ms": statistics.median(runner.raw_latencies) * 1e3,
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "latencies_s": runner.latencies,
        "raw_latencies_s": runner.raw_latencies,
        "verify_latencies_s": runner.verify_latencies,
        "pass_walls_s": runner.pass_walls,
        "raw_pass_walls_s": runner.raw_pass_walls,
        "references_s": runner.meter.references,
    }
    if runner.verify_latencies:
        details["verify_p50_ms"] = statistics.median(runner.verify_latencies) * 1e3
    return metrics, details


def per_layer(args, runner, workload, tracer) -> tuple[dict, dict]:
    from tracer import LAYERS, REPORTED

    # self times are scaled like operation times, by the run's median reference
    scale = REFERENCE_S / statistics.median(runner.meter.references)
    stats = {name: (calls, self_s * scale) for name, (calls, self_s) in tracer.function_stats().items()}
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for module, functions in REPORTED.items():
        for function in functions:
            calls, self_s = stats[f"{module}.{function}"]
            put(f"{module.lstrip('_')}.{function}.calls", calls, "count")
            put(f"{module.lstrip('_')}.{function}.self_s", self_s, "s")
    for layer in LAYERS:
        total = sum(s for name, (_c, s) in stats.items() if name.split(".")[0] == layer)
        put(f"{layer.lstrip('_')}.self_s", total, "s")
    factorize_calls = stats["_intfactor.factorize"][0]
    distinct = len(tracer.distinct["_intfactor.factorize"])
    put("intfactor.factorize.repeat_ratio", factorize_calls / distinct if distinct else 0.0, "ratio")
    check_calls = stats["weilcheck.check_all"][0]
    admissible = tracer.true_outcomes["weilcheck.check_all"]
    put("weilcheck.check_all.admissible_ratio", admissible / check_calls if check_calls else 0.0, "ratio")
    put("padicpoly.negative_part_verdict.unknown", tracer.true_outcomes["padicpoly.negative_part_verdict"], "count")
    staged = total = 0.0
    for _op, result, _verified in runner.records:
        stages = getattr(result, "telemetry", {}).get("stage_seconds", {})
        total += stages.get("total", 0.0)
        staged += sum(v for k, v in stages.items() if k != "total")
    put("pipeline.stage_coverage", staged / total if total else 0.0, "ratio")
    traced = sum(runner.pass_walls)
    untraced = measure_untraced(args, workload.trace_passes)
    put("trace.overhead_s", traced - untraced, "s")
    put("src.lines", src_lines(), "lines")
    details = {
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "reference_median_ms": statistics.median(runner.meter.references) * 1e3,
        "spans": tracer.span_count,
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the benchmark and its probes, so that the reference runs and
    # the work they scale share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_pools())
    first_ops = workload.next_pass()
    if args.probe == "setup":
        print("ready", flush=True)
        return 0

    if args.probe == "untraced":
        runner = Runner(workload)
        runner.run_passes(args.passes, first_ops)
        print(json.dumps({"wall_s": sum(runner.pass_walls)}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(workload, tracer)
    if tracer is not None:
        runner.run_passes(workload.trace_passes, first_ops)
        tracer.uninstall()
    else:
        runner.run_for(args.seconds, first_ops)
    runner.judge(workload.pool_checks())

    if tracer is not None:
        metrics, details = per_layer(args, runner, workload, tracer)
    else:
        metrics, details = end_to_end(args, runner, workload)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src.lines": src_lines(),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        details["span_file"] = tracer.write_spans(OUT / f"{stem}.spans.bin")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**environment, **details, "failures": runner.failures, **result}, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in environment.items()))
    for name, value in details.items():
        if not isinstance(value, (list, dict)):
            print(f"  {name} = {value}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
