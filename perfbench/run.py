#!/usr/bin/env python3
"""mharq benchmark: one workload per process, metrics on the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload asymptotic-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

The benchmark imports mharq from ``src/`` of the checkout it sits in, pins
BLAS/OpenMP to one thread, builds the workload's inputs from the seed, and
runs full passes over its ops, closed loop with one caller, until
``--seconds`` have gone by.  Every op's output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics of the traced
ones and their overhead over the untraced ones, and writes every span to
``perfbench/out/``.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics; the lines before it give
each metric with its unit, the machine facts and the ROADMAP baseline rows.

``--selfcheck`` runs every workload at a tiny size, traced and untraced,
and checks outputs and that the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from facts import machine_facts, pin_blas_threads

pin_blas_threads()

from clock import REFERENCE_S, Calibrator  # noqa: E402  (after pinning BLAS threads)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("asymptotic-sweep", "window-search", "sim-physical", "sim-queue")
SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 0.05  # measured op time between calibration samples
CALIBRATION_MIN = 15  # samples per pass, and per setup probe
CALIBRATION_WINDOW = 4  # samples on either side of an op that scale it
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "mharq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mharq sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mharq

    if Path(mharq.__file__).resolve().parent != (SRC / "mharq").resolve():
        raise SystemExit(f"perfbench: imported mharq from {mharq.__file__}, not {SRC}")


@dataclass
class Pass:
    traced: bool
    op_s: list[float]  # measured seconds per op
    calibration_s: list[float]  # kernel times taken between this pass's ops
    op_slot: list[int]  # calibration samples taken before each op ended

    @property
    def calibrated_op_s(self) -> list[float]:
        """Each op's time at reference speed, from the kernel samples nearest it.

        The speed of a shared machine wanders within seconds, so each op is
        scaled by the median of the CALIBRATION_WINDOW samples on either
        side of it rather than by one figure for the pass (see clock.py).
        """
        cal = self.calibration_s
        out = []
        for t, k in zip(self.op_s, self.op_slot):
            lo = max(0, min(k - CALIBRATION_WINDOW, len(cal) - 2 * CALIBRATION_WINDOW))
            near = cal[lo : lo + 2 * CALIBRATION_WINDOW]
            out.append(t * REFERENCE_S / statistics.median(near))
        return out

    @property
    def wall(self) -> float:
        return sum(self.op_s)

    @property
    def calibrated_wall(self) -> float:
        return sum(self.calibrated_op_s)


class Runner:
    """Runs passes of one workload and keeps its failures."""

    def __init__(self, workload, tracer=None, hooks=None):
        self.workload = workload
        self.tracer = tracer
        self.hooks = hooks
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, dict] = {}
        self.stats: dict = {}
        self.calibrator = Calibrator()

    def _fail(self, op, reason: str) -> None:
        self.failed += 1
        entry = self.failures.setdefault(
            op.key, {"reason": reason, "known_defect": op.known_defect, "count": 0}
        )
        entry["count"] += 1

    def run_pass(self, traced: bool) -> None:
        tracer = self.tracer
        ctx: dict = {}
        times = []
        failed_keys = set()
        slots = []
        since_calibration = 0.0
        if traced:
            tracer.install(self.hooks)
        try:
            for index, op in enumerate(self.workload.ops):
                if traced:
                    tracer.op = index
                error = None
                t0 = perf_counter()
                try:
                    result = op.call(ctx)
                except SystemExit as exc:
                    error = f"exited with {exc.code}"
                except Exception as exc:  # an op failure is recorded; the run goes on
                    error = f"{type(exc).__name__}: {exc}"
                times.append(perf_counter() - t0)
                slots.append(len(self.calibrator.samples))
                self.attempted += 1
                since_calibration += times[-1]
                if since_calibration >= CALIBRATE_EVERY_S:
                    # a burst after long ops, so the samples around them
                    # are not all from before they started
                    for _ in range(3 if since_calibration >= 0.2 else 1):
                        self.calibrator.sample()
                    since_calibration = 0.0
                if error is None:
                    try:
                        error = op.check(result, ctx)
                    except Exception as exc:  # a malformed output fails its op
                        error = f"check raised {type(exc).__name__}: {exc}"
                    if error is None:
                        ctx[op.key] = op.keep(result)
                    del result
                if error is not None:
                    failed_keys.add(op.key)
                    self._fail(op, error)
        finally:
            if traced:
                tracer.uninstall()
        by_key = {op.key: op for op in self.workload.ops}
        for key, reason in self.workload.cross_check(ctx):
            if key not in failed_keys:
                failed_keys.add(key)
                self._fail(by_key[key], reason)
        self.stats = self.workload.stats(ctx)
        while len(self.calibrator.samples) < CALIBRATION_MIN:
            self.calibrator.sample()
        self.passes.append(Pass(traced, times, self.calibrator.take(), slots))

    def run(self, seconds: float) -> None:
        begin = perf_counter()
        traced_run = self.tracer is not None
        while True:
            self.run_pass(traced_run and len(self.passes) % 2 == 1)
            if perf_counter() - begin >= seconds and (not traced_run or len(self.passes) >= 2):
                break

    @property
    def correct(self) -> bool:
        return all(f["known_defect"] for f in self.failures.values())


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def measure_setup(args) -> list[float]:
    """Fresh-process import of mharq and mharq.cli plus input generation, in seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe)
    return samples


def setup_probe(args) -> int:
    t0 = perf_counter()
    import_program()
    import mharq.cli  # noqa: F401

    t1 = perf_counter()
    import workloads

    OUT.mkdir(exist_ok=True)
    workloads.WORKLOADS[args.workload](args.seed, args.tiny, OUT)
    t2 = perf_counter()
    calibrator = Calibrator()
    for _ in range(CALIBRATION_MIN):
        calibrator.sample()
    kernel = statistics.median(calibrator.take())
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "calibration_s": kernel,
                      "setup_s": (t2 - t0) * REFERENCE_S / kernel}))
    return 0


def baseline_rows(workload, passes: list[Pass]) -> list[dict]:
    """This run's figures for the ROADMAP baseline rows its ops cover.

    ROADMAP measured plain seconds, so rows give measured and calibrated time.
    """
    keys = [op.key for op in workload.ops]
    rows = []
    for label, roadmap, unit, selector in workload.baseline:
        summed = selector.startswith("sum:")
        part = selector[4:] if summed else selector
        pick = [(part in k) if summed else k.startswith(part) for k in keys]
        if not any(pick):
            continue
        scale = 1000.0 if unit == "ms" else 1.0

        def median_of(times_per_pass: list[list[float]]) -> float:
            picked = [[t for t, hit in zip(ts, pick) if hit] for ts in times_per_pass]
            if summed:
                picked = [[sum(ts)] for ts in picked]
            return statistics.median(t for ts in picked for t in ts) * scale

        rows.append({
            "row": label,
            "roadmap": roadmap,
            "measured": median_of([p.op_s for p in passes]),
            "calibrated": median_of([p.calibrated_op_s for p in passes]),
            "unit": unit,
        })
    return rows


def end_to_end_metrics(runner: Runner, setup: list[dict]) -> dict[str, dict]:
    passes = [p for p in runner.passes if not p.traced]
    # each op's latency is its median over the passes; percentiles run over ops
    per_pass = [p.calibrated_op_s for p in passes]
    op_ms = [statistics.median(ts) * 1000.0 for ts in zip(*per_pass)]
    values = {
        "setup_s": statistics.median(probe["setup_s"] for probe in setup),
        "wall_s": statistics.median(p.calibrated_wall for p in passes),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": quantile(op_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, OUT)
    tracer = hooks = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        tracer.discover()
        hooks = layers.hooks(tracer)
    runner = Runner(workload, tracer, hooks)
    runner.run(args.seconds)

    untraced = [p for p in runner.passes if not p.traced]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        traced = [p for p in runner.passes if p.traced]
        overhead = (
            statistics.median(p.calibrated_wall for p in traced)
            / statistics.median(p.calibrated_wall for p in untraced)
            - 1.0
        )
        metrics = layers.per_layer_metrics(tracer, len(traced), runner.stats, overhead)
        absent = sorted({n.rsplit(".", 1)[0] for n, m in metrics.items() if m.get("absent")})
        extra = {"absent_layers": absent, "spans": len(tracer.starts)}
        tracer.write(OUT / f"{stem}-spans.npz")
    else:
        metrics = end_to_end_metrics(runner, setup)
        extra = {"setup_probes": setup, "baseline": baseline_rows(workload, untraced)}
    extra["passes"] = [
        {"traced": p.traced, "wall_s": p.wall, "calibrated_wall_s": p.calibrated_wall,
         "calibration_s": statistics.median(p.calibration_s)}
        for p in runner.passes
    ]

    facts = machine_facts(ROOT)
    facts.update(calibration_reference_s=REFERENCE_S,
                 calibration_s=statistics.median(c for p in runner.passes for c in p.calibration_s),
                 workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
                 tiny=args.tiny, passes=len(runner.passes), ops_per_pass=len(workload.ops),
                 ops_timed=sum(len(p.op_s) for p in untraced))
    ops_failed_frac = runner.failed / runner.attempted
    report = {"facts": facts, "metrics": metrics, "ops_failed_frac": ops_failed_frac,
              "failures": runner.failures, **extra}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print("facts " + json.dumps(facts, sort_keys=True))
    for row in extra.get("baseline", []):
        print(f"baseline {row['row']}: {row['measured']:.4g} {row['unit']} measured, "
              f"{row['calibrated']:.4g} calibrated (ROADMAP {row['roadmap']})")
    for key, f in runner.failures.items():
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"failed {key} x{f['count']} [{tag}]: {f['reason']}")
    if extra.get("absent_layers"):
        print("absent layers: " + ", ".join(extra["absent_layers"]))
    print(f"metric ops_failed_frac = {ops_failed_frac:.6g} frac "
          f"({runner.failed} of {runner.attempted} ops)")
    for name, m in metrics.items():
        shown = "absent" if m.get("absent") else f"{m['value']:.6g}"
        print(f"metric {name} = {shown} {m['unit']}")
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def selfcheck() -> int:
    """Tiny run of every workload, traced and untraced, against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    import_program()
    import layers

    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if expected[0] != dict(END_TO_END):
        problems.append("BENCHMARK.json end_to_end metrics differ from the benchmark's")
    if expected[1] != {name: unit for name, unit, *_ in layers.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer metrics differ from the benchmark's")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if got != expected[trace]:
                problems.append(f"{label}: metric names or units differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            print(f"selfcheck {label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} ({perf_counter() - t0:.1f} s)")
    for p in problems:
        print(f"selfcheck problem: {p}")
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-check size)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
