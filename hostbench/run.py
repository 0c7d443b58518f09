"""Host-side benchmark of the GMT simulator.

Usage (from the repository root)::

    python3 hostbench/run.py --workload replay-hit --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One workload runs in one process, single-threaded.  The run repeats
*set-up* (config, workload build, trace materialization, runtime or
population construction) and *passes* (one timed replay or serve loop
on a freshly built runtime) until ``--seconds`` have elapsed, then prints
every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (``accesses_per_s``,
``setup_s``, ``peak_rss_mb``; ``error_rate`` is printed and carried by
``attempted``/``failed``).  A reference kernel (:mod:`hostspeed`) runs
just before and just after every pass and set-up, and the pass rates and
set-up times are scaled to the host speed it measured there before their
medians are taken.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of :mod:`layers`, the traced
run's coverage and its overhead against the untraced passes; the spans
of the last traced pass are written to ``.hostbench_out/``.

Every pass must pass ``assert_conformant``, and every pass of one seed,
traced or not, must produce the same simulated outputs and the same
engine resolution; each workload must keep the character it was chosen
for.  Any failure makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_KERNEL_S, scaled_rate, scaled_seconds, time_kernel
from layers import LAYERS, PER_LAYER, layer_self_times
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".hostbench_out"
WORKLOADS = ("replay-hit", "replay-miss", "serve-openloop-1k")

#: Set-ups per run at least, however short ``--seconds`` is, so set-up
#: time is always a median.
MIN_SETUPS = 3

END_TO_END = (
    ("accesses_per_s", "acc/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

clock = time.perf_counter


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One workload's passes for one seed, and the correctness gate."""

    def __init__(self, case, seed: int, trace: bool) -> None:
        self.case = case
        self.seed = seed
        self.trace = trace
        self.setup_s: list[float] = []
        self.scaled_setup_s: list[float] = []
        self.kernel_s: list[float] = []
        self.rates: list[float] = []
        self.scaled_rates: list[float] = []
        self.walls: list[float] = []
        self.layers: list[dict] = []
        self.layer_self: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.summary: dict = {}
        self.engine = None
        self.last_rec = None

    def fail(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)
            print(f"FAIL {message}", file=sys.stderr)

    def time_kernel(self) -> float:
        kernel_s = time_kernel()
        self.kernel_s.append(kernel_s)
        return kernel_s

    def setup(self, rec=None):
        """Set up once; the reference kernel runs just before and just
        after, to scale the set-up time to the host's speed meanwhile."""
        gc.collect()
        before = self.time_kernel()
        start = clock()
        prepared = self.case.prepare(self.seed, rec)
        target = self.case.build(prepared)
        elapsed = clock() - start
        after = self.time_kernel()
        self.setup_s.append(elapsed)
        self.scaled_setup_s.append(scaled_seconds(elapsed, (before + after) / 2))
        return prepared, target

    def one_pass(self, prepared, target, rec=None, untraced_wall=None):
        """Time one pass on ``target``; returns its wall seconds (None if
        it failed)."""
        case = self.case
        self.attempted += 1
        try:
            before = target.engine_resolution()
            try:
                tracked = None
                if rec is not None:
                    rec.current_id = self.attempted
                    tracked = case.trace(rec, target)
                gc.collect()
                start = clock()
                result = case.execute(target, prepared)
                wall = clock() - start
            finally:
                if rec is not None:
                    rec.restore()
            outcome = case.finish(target, result)
            layers = None
            if rec is not None:
                layers = case.layers(
                    rec, tracked, target, result, prepared, wall, untraced_wall or wall
                )
        except Exception:
            self.failed += 1
            self.fail(f"pass {self.attempted} raised:\n{traceback.format_exc()}")
            return None

        key = (outcome.fingerprint, before, outcome.engine)
        if self.reference is None:
            self.reference = key
            self.summary = outcome.summary
            self.engine = outcome.engine
        elif key != self.reference:
            self.failed += 1
            kind = "traced" if rec is not None else "untraced"
            self.fail(
                f"{kind} pass {self.attempted} differs from the first pass: "
                f"{key} != {self.reference}"
            )
            return None
        for problem in case.character(outcome, layers):
            self.fail(f"{case.name} lost its character: {problem}")
        if rec is None:
            self.walls.append(wall)
            self.rates.append(outcome.accesses / wall)
        else:
            self.layers.append(layers)
            self_s = layer_self_times(rec)
            self_s["workloads"] += prepared.trace_gen_s
            self.layer_self.append(self_s)
            self.last_rec = rec
        return wall

    def measure(self, seconds: float) -> None:
        deadline = clock() + seconds
        setups = 0
        while setups < MIN_SETUPS or clock() < deadline:
            setup_rec = SpanRecorder() if self.trace else None
            try:
                prepared, target = self.setup(setup_rec)
            except Exception:
                self.attempted += 1
                self.failed += 1
                self.fail(f"set-up raised:\n{traceback.format_exc()}")
                return
            setups += 1
            for replay in range(self.case.replays_per_setup):
                if replay:
                    target = self.case.build(prepared)
                before = self.kernel_s[-1]
                wall = self.one_pass(prepared, target)
                after = self.time_kernel()
                if wall is not None:
                    self.scaled_rates.append(
                        scaled_rate(self.rates[-1], (before + after) / 2)
                    )
                if self.trace and wall is not None:
                    self.one_pass(
                        prepared, self.case.build(prepared), SpanRecorder(), wall
                    )

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def report(run: Run, workload: str) -> dict:
    """Print the human-readable table; return the result line's metrics."""
    print(f"workload {workload}  seed {run.seed}  engine {run.engine}")
    for name, value in run.summary.items():
        print(f"  simulated {name:<16} {value}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':<28} {error_rate:.6g} ratio "
          f"({run.failed} of {run.attempted} passes failed)")
    metrics: dict[str, dict] = {}
    if not run.trace:
        if not run.rates:
            return metrics
        q1, med, q3 = quartiles(run.scaled_rates)
        s1, smed, s3 = quartiles(run.scaled_setup_s)
        values = {
            "accesses_per_s": med,
            "setup_s": smed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        k1, kmed, k3 = quartiles(run.kernel_s)
        print(f"  {'host reference kernel':<28} {kmed * 1e3:.4g} ms "
              f"(q1 {k1 * 1e3:.4g}, q3 {k3 * 1e3:.4g}, n={len(run.kernel_s)}; "
              f"reference {REFERENCE_KERNEL_S * 1e3:.4g} ms)")
        print(f"  {'accesses_per_s':<28} {med:.6g} acc/s median at reference speed "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(run.scaled_rates)}; as measured: "
              f"median {statistics.median(run.rates):.6g}, fastest {max(run.rates):.6g})")
        print(f"  {'setup_s':<28} {smed:.6g} s median at reference speed "
              f"(q1 {s1:.6g}, q3 {s3:.6g}, n={len(run.scaled_setup_s)}; as measured: "
              f"median {statistics.median(run.setup_s):.6g})")
        print(f"  {'peak_rss_mb':<28} {values['peak_rss_mb']:.6g} MB")
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        return metrics

    if not run.layers:
        return metrics
    walls = statistics.median(run.walls) if run.walls else 0.0
    print(f"  traced passes {len(run.layers)}, untraced pass wall {walls:.6g} s")
    self_by_layer = {
        layer: statistics.median(d[layer] for d in run.layer_self) for layer in LAYERS
    }
    total = sum(self_by_layer.values()) or 1.0
    for layer in LAYERS:
        print(f"  layer {layer:<10} self {self_by_layer[layer]:.6g} s "
              f"({self_by_layer[layer] / total:.1%})")
    for name, unit, _ in PER_LAYER:
        value = statistics.median(d[name] for d in run.layers)
        print(f"  {name:<28} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_spans(run: Run, workload: str) -> None:
    if run.last_rec is None:
        return
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{run.seed}.spans.json.gz"
    run.last_rec.dump(path)
    print(f"  spans of the last traced pass: {path.relative_to(ROOT)}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from cases import CASES

    run = Run(CASES[args.workload], args.seed, bool(args.trace))
    run.measure(args.seconds)
    metrics = report(run, args.workload)
    if run.trace:
        write_spans(run, args.workload)
    correct = run.correct and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS must not be shared)."""
    attempted = failed = 0
    correct = True
    metrics: dict[str, dict] = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAIL {workload} printed no result line", file=sys.stderr)
            return 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{workload}.{name}"] = value
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no simulator sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
