"""Host-time benchmark of the simulator's public entry points.

Usage, from the repository root::

    python3 perfbench/run.py --workload replica_decode --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fleet_route --seed 1 --seconds 30 --trace 1 \\
        --out .perfbench/fleet_route-1-traced.json

One run sets up one workload (see ``workloads.py``), then repeats its
public call ("op") for ``--seconds`` and reports medians.  Every op's
simulated outputs are digested and must equal the first op's digest and,
for seeds in ``expected.json``, the committed one; an op that raises,
leaves requests unfinished or differs counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``wall_s`` (median op time), ``setup_s`` (median over fresh processes of
importing ``repro``, building the deployment and config and synthesizing
the trace), ``peak_rss_mb`` and ``sim_tokens_per_s``.  Times are in
reference seconds, scaled by a host speed probe timed around and inside
each op (see ``hostspeed.py``); unscaled seconds stay in the record.
``--trace 1`` runs some ops untraced, then the rest with every layer
wrapped (see ``tracing.py``), and reports per-layer calls and self time,
the layer counters and ``trace.overhead``.  Spans of the last traced op
are written to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit, the simulated outputs (``sim.*``),
the pinned settings and a host fingerprint.  ``--out`` also writes all of
that as one JSON record, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_PROBE_S, Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

# How often the host probe interrupts a timed op or set-up (hostspeed.py).
OP_SAMPLE_INTERVAL_S = 0.25
SETUP_SAMPLE_INTERVAL_S = 0.1
# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 5
# Fewest ops a run makes, however long they take.
MIN_OPS = 3
# Share of a traced run's time spent on untraced ops (the overhead base).
UNTRACED_SHARE = 0.3
# Environment pinned for the benchmark and its set-up processes: no
# simulator knob comes from the caller's shell, and numeric libraries
# run single-threaded.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Metric names, units and the run length are declared once, here.
SPEC_PATH = ROOT / "BENCHMARK.json"


def pin_environment() -> dict[str, str | None]:
    """Drop every ``REPRO_*`` variable and pin ``PINNED_ENV``.

    Must run before ``repro`` is imported: some config defaults read
    the environment at construction time.  Returns what was changed.
    """
    changed: dict[str, str | None] = {}
    for key in sorted(os.environ):
        if key.startswith("REPRO_"):
            changed[key] = None
            del os.environ[key]
    for key, value in PINNED_ENV.items():
        if os.environ.get(key) != value:
            changed[key] = value
        os.environ[key] = value
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return changed


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up timing (in fresh processes, so imports are really paid)
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> None:
    """Child entry: time import + build, print it as JSON."""
    with Sampler(SETUP_SAMPLE_INTERVAL_S) as timed:
        import workloads

        workloads.build(workload, seed)
    print(json.dumps({"seconds": timed.seconds, "scaled": timed.scaled}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


# ----------------------------------------------------------------------
# The measured loop
# ----------------------------------------------------------------------
class OpLog:
    """Times and verdicts of every op in a run."""

    def __init__(self, workload, expected: dict | None) -> None:
        self.workload = workload
        self.expected = expected
        self.reference = None  # the first op's Outputs
        self.timings: list[Sampler] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.timings)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, label: str, interval: float | None) -> None:
        """One timed op plus its output checks."""
        gc.collect()
        raw = None
        with Sampler(interval) as timed:
            try:
                raw = self.workload.op()
            except Exception:
                self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
        self.timings.append(timed)
        if raw is None:
            return
        outputs = self.workload.outputs(raw)
        del raw
        problem = self._check(outputs)
        if problem:
            self.failures.append(f"{label}: {problem}")

    def _check(self, outputs) -> str | None:
        if outputs.problems:
            return "; ".join(outputs.problems)
        if self.expected is not None:
            if outputs.digest != self.expected["digest"]:
                return "output digest differs from the committed one"
            if outputs.sim != self.expected["sim"]:
                return "sim.* values differ from the committed ones"
        if self.reference is None:
            self.reference = outputs
        elif outputs.digest != self.reference.digest:
            return "output digest differs from this run's first op"
        return None

    def loop(self, label: str, seconds: float, min_ops: int,
             interval: float | None = OP_SAMPLE_INTERVAL_S, after_op=None) -> None:
        """Repeat ops while the next one is predicted to fit ``seconds``."""
        start = time.perf_counter()
        count = 0
        last = 0.0
        while count < min_ops or time.perf_counter() - start + last <= seconds:
            iteration = time.perf_counter()
            self.run(f"{label} op {count}", interval)
            if after_op is not None:
                after_op()
            last = time.perf_counter() - iteration
            count += 1


def load_expected(workload: str, seed: int) -> dict | None:
    if not EXPECTED.exists():
        return None
    table = json.loads(EXPECTED.read_text())
    return table.get(workload, {}).get(str(seed))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def untraced_metrics(log: OpLog, setup: list[dict]) -> dict[str, float]:
    wall = median([t.scaled for t in log.timings])
    tokens = log.reference.output_tokens if log.reference is not None else 0
    return {
        "wall_s": wall,
        "setup_s": median([sample["scaled"] for sample in setup]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_tokens_per_s": tokens / wall if wall > 0 else 0.0,
    }


def traced_run(log: OpLog, seconds: float, spans_path: Path) -> tuple[dict, list[str]]:
    """Untraced ops, then traced ops; returns per-layer metrics."""
    import tracing

    log.loop("untraced", seconds * UNTRACED_SHARE, min_ops=2)
    untraced = list(log.timings)

    tracer = tracing.Tracer()
    span_cost = tracer.calibrate()
    patches = tracing.install(tracer)
    op = log.workload.op
    root = tracer.wrap(op, tracing.ROOT)

    def traced_op():
        tracer.reset()
        return root()

    per_op: list[dict] = []
    log.workload.op = traced_op
    try:
        # Probes only around traced ops: inside, they would land in spans.
        log.loop(
            "traced", seconds * (1 - UNTRACED_SHARE), min_ops=2, interval=None,
            after_op=lambda: per_op.append(tracer.op_metrics(span_cost)),
        )
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(spans_path)
    finally:
        log.workload.op = op
        patches.remove()
    traced = log.timings[len(untraced):]

    metrics: dict[str, float] = {}
    for name in per_op[0]:
        if name.endswith("_s"):
            # Self times in reference seconds, like the op they sit in.
            metrics[name] = median(
                [m[name] * t.scaled / t.seconds for t, m in zip(traced, per_op)]
            )
        else:
            # Counts repeat exactly from op to op.
            metrics[name] = per_op[0][name]
    untraced_wall = median([t.scaled for t in untraced])
    metrics["trace.overhead"] = median([t.scaled for t in traced]) / untraced_wall
    metrics["trace.span_cost_s"] = span_cost
    return metrics, patches.missing


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    changed_env = pin_environment()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spec = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    import workloads
    from repro.perf.validation import validate_calibration

    if args.workload not in workloads.NAMES:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose one of {', '.join(workloads.NAMES)}"
        )
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed)
    anchors = validate_calibration()
    off_anchors = [str(a) for a in anchors if not a.passed]

    log = OpLog(workload, load_expected(args.workload, args.seed))
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    missing: list[str] = []
    if args.trace:
        metrics, missing = traced_run(log, args.seconds, spans_path)
    else:
        log.loop("untraced", args.seconds, MIN_OPS)
        metrics = untraced_metrics(log, setup)

    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json's {sorted(declared)}"
        )
    metrics = {name: metrics[name] for name in declared}
    correct = log.failed == 0 and not off_anchors and log.reference is not None
    host = host_fingerprint()
    probes = [p for t in log.timings for p in t.samples]
    host["probe_s"] = median(probes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reference_probe_s": REFERENCE_PROBE_S,
        "op_host_s": [t.seconds for t in log.timings],
        "op_probe_s": [t.samples for t in log.timings],
        "setup_samples": setup,
        "sim": log.reference.sim if log.reference is not None else None,
        "digest": log.reference.digest if log.reference is not None else None,
        "expected": "committed" if log.expected is not None else "none for this seed",
        "calibration_anchors_off": off_anchors,
        "trace_targets_missing": missing,
        "failures": log.failures,
        "settings": workload.settings,
        "environment": {"pinned": PINNED_ENV, "changed": changed_env},
        "host": host,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for failure in log.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for anchor in off_anchors:
        print(f"FAILED calibration anchor {anchor}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{log.attempted} ops, {log.failed} failed, outputs checked against "
          f"{record['expected']}")
    for name, entry in record["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        layers = [name[: -len(".self_s")] for name in metrics if name.endswith(".self_s")]
        traced = metrics["trace.unattributed_s"] + sum(metrics[f"{l}.self_s"] for l in layers)
        shares = ", ".join(
            f"{layer} {metrics[f'{layer}.self_s'] / traced:.1%}"
            for layer in layers if traced and metrics[f"{layer}.self_s"]
        )
        print(f"  self-time shares: {shares}")
    for name, value in (record["sim"] or {}).items():
        print(f"  {name} = {value}")
    if missing:
        print(f"  trace targets not found: {', '.join(missing)}")
    print(f"  op host seconds (unscaled): median {median([t.seconds for t in log.timings]):.6g} s; "
          f"host probe median {host['probe_s']:.6g} s (reference {REFERENCE_PROBE_S} s)")
    print(f"  host: {json.dumps(host)}")
    print(f"  settings: {json.dumps(workload.settings, default=str)}")
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
