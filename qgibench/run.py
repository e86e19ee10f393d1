"""qgi benchmark: one seeded workload per process, one client in a closed loop.

    python3 qgibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The run cycles over the workload's op pool for about ``--seconds``
seconds (whole passes, at least two and at least 100 samples) and checks
every output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones.

End-to-end times are calibrated: a fixed kernel (``calibrate.py``) runs
between ops, and each pass's timings are divided by that pass's kernel
time over its nominal time, so that drift in the machine's speed cancels.
Raw wall-clock figures are printed and recorded alongside.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  The run record and, in a traced
run, the spans are written under ``.qgibench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".qgibench"
WORKLOADS = ("sweep-4x4", "ladder-dense", "adversary-analyze")
# Latency percentiles need at least ten samples beyond p90.
MIN_SAMPLES = 100
MIN_PASSES = 2
# setup_s is the median of this many set-ups: this process plus fresh ones.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# Seconds between calibration samples, and samples taken after a set-up.
CALIBRATE_EVERY_S = 0.2
SETUP_CALIBRATION_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_facts(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }


class Pass:
    """Results of one pass over the op pool."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.latencies_ns: list[int] = []
        self.success: list[float] = []
        self.attempted = 0
        self.refused: collections.Counter = collections.Counter()
        self.wrong: list[str] = []
        self.digest = hashlib.sha256()
        self.elapsed = 0.0
        self.calibration: list[float] = []
        self.factor = 1.0
        self.span_range = (0, 0)
        self.counts: dict = {}

    @property
    def failed(self) -> int:
        return sum(self.refused.values()) + len(self.wrong)

    @property
    def op_seconds(self) -> float:
        """Wall time of the pass less its calibration samples."""
        return self.elapsed - sum(self.calibration)


def run_pass(workload, calibrator, recorder, qgi) -> Pass:
    """Run every op of the pool once; a refused or wrong op does not stop the pass."""
    result = Pass(traced=recorder is not None)
    calibrated_at = -math.inf
    if recorder is not None:
        recorder.counts.clear()
        lo = len(recorder.spans)
        recorder.install(qgi)
    start = time.perf_counter()
    try:
        for index, op in enumerate(workload.ops):
            if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
                result.calibration.append(calibrator.sample())
                calibrated_at = time.perf_counter()
            result.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                if recorder is None:
                    outcome = op.run()
                else:
                    recorder.op += 1
                    outcome = recorder.call(spans.OP_SPAN, op.run)
            except Exception as exc:  # counted as a failed op; the run goes on
                result.refused[f"{op.kind}: {type(exc).__name__}: {exc}"] += 1
                result.digest.update(f"{index} {op.kind} refused\n".encode())
                continue
            elapsed_ns = time.perf_counter_ns() - t0
            result.digest.update(f"{index} {op.kind} {outcome.digest}\n".encode())
            if not outcome.correct:
                result.wrong.append(f"op {index} {op.kind}: {outcome.digest}")
                continue
            result.latencies_ns.append(elapsed_ns)
            if outcome.success_prob is not None:
                result.success.append(outcome.success_prob)
    finally:
        result.elapsed = time.perf_counter() - start
        result.factor = calibrator.factor(result.calibration)
        if recorder is not None:
            recorder.uninstall()
    if recorder is not None:
        hi = len(recorder.spans)
        result.span_range = (lo, hi)
        result.counts = spans.pass_counts(recorder.spans, lo, hi,
                                          recorder.counts, result.attempted)
    return result


def run_passes(workload, calibrator, seconds: float, traced: bool, qgi):
    """Whole passes until the next would overrun ``seconds``; traced runs alternate."""
    # An untraced run needs its latency samples; a traced run needs two
    # traced passes to check that the computed counts repeat.
    min_passes = (2 * MIN_PASSES if traced else
                  max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(workload.ops))))
    recorder = spans.Recorder() if traced else None
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        use_recorder = recorder if traced and len(passes) % 2 == 1 else None
        passes.append(run_pass(workload, calibrator, use_recorder, qgi))
        if traced and len(passes) % 2 == 1:
            continue
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1].elapsed > seconds:
            return passes, time.perf_counter() - start, recorder


def setup_samples(args, own: float) -> list[float]:
    """Calibrated set-up times of this process and of fresh set-up-only ones."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def timings(passes, calibrated: bool) -> dict:
    """Median per-pass throughput and latency deciles, calibrated or raw."""
    def scale(p):
        return p.factor if calibrated else 1.0
    rates = [(p.attempted - p.failed) / (p.op_seconds / scale(p)) for p in passes]
    deciles = statistics.quantiles(
        [ns / 1e6 / scale(p) for p in passes for ns in p.latencies_ns], n=10,
        method="inclusive")
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (deciles[4], "ms"),
        "op_p90_ms": (deciles[8], "ms"),
    }


def end_to_end(passes, setup: list[float]) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        **timings(passes, calibrated=True),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "success_prob_mean": (statistics.fmean(passes[0].success), "prob"),
    }


def per_layer(passes, recorder) -> dict:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    ops = sum(p.attempted for p in traced)
    self_ms = collections.Counter()
    for p in traced:
        self_ms.update(spans.pass_self_ms(recorder.spans, *p.span_range, ops))
    metrics = {name: (self_ms[name], "ms") for name in spans.SELF_MS}
    for name, unit in spans.COUNTS.items():
        metrics[name] = (traced[0].counts[name], unit)

    def rate(group):
        return sum(p.attempted for p in group) / sum(p.op_seconds for p in group)
    metrics["trace.overhead_ratio"] = (rate(traced) / rate(untraced), "ratio")
    return metrics


def report(args, workload, passes, wall, recorder, own_setup: float):
    """Check repeatability, print the metrics and write the run record."""
    import numpy
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **machine_facts(numpy)}
    traced = [p for p in passes if p.traced]
    digests = sorted({p.digest.hexdigest() for p in passes})
    counts_repeat = all(p.counts == traced[0].counts for p in traced)
    wrong = [w for p in passes for w in p.wrong]
    refused = sum((p.refused for p in passes), collections.Counter())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer(passes, recorder)
    else:
        metrics = end_to_end(passes, setup_samples(args, own_setup))
    record["calibration_factor_median"] = statistics.median(p.factor for p in passes)
    record["raw"] = {k: v[0] for k, v in timings(passes, calibrated=False).items()}

    samples = sum(len(p.latencies_ns) for p in passes if not p.traced)
    print(f"run record: {json.dumps(record)}")
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes x "
          f"{len(workload.ops)} ops in {wall:.1f} s, {attempted} attempted, "
          f"{failed} failed, {samples} untraced latency samples")
    print(f"  {'error_rate':<42} {failed / attempted:.6g} ratio")
    print(f"  calibration factor {record['calibration_factor_median']:.4f} "
          f"(median over passes); raw wall-clock: "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:.6g} {unit}")
    print(f"  result digest sha256 {' '.join(digests)} "
          f"({'identical' if len(digests) == 1 else 'DIFFERS'} across passes)")
    if args.trace:
        print(f"  computed counts {'repeat' if counts_repeat else 'DIFFER'} "
              f"across {len(traced)} traced passes")
    for message in wrong[:20]:
        print(f"wrong: {message}", file=sys.stderr)
    for message, n in refused.items():
        print(f"refused x{n}: {message}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps({
        "record": record, "digests": digests, "refused": dict(refused),
        "wrong": wrong, "metrics": {k: v[0] for k, v in metrics.items()}},
        indent=1) + "\n")
    if recorder is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": recorder.spans}))
    print(json.dumps({
        "correct": not wrong and len(digests) == 1 and counts_repeat,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgi" / "__init__.py").is_file():
        print(f"error: no qgi sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread, pinned before numpy loads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    workdir = OUT / f"work-{os.getpid()}"
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qgi
    import qgi.cli
    if Path(qgi.__file__).resolve().parent != SRC / "qgi":
        print(f"error: imported qgi from {qgi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import workloads
    try:
        workload = workloads.BUILDERS[args.workload](qgi, args.seed, workdir)
        workload.warm_up()
        own_setup = time.perf_counter() - start
        calibrator = calibrate.Calibrator(args.workload)
        own_setup /= calibrator.factor(
            [calibrator.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)])
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        passes, wall, recorder = run_passes(workload, calibrator, args.seconds,
                                            bool(args.trace), qgi)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, workload, passes, wall, recorder, own_setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
