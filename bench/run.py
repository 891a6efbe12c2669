#!/usr/bin/env python3
"""The extendkit benchmark.

    python3 bench/run.py --workload lattice-lp --seed 1 --seconds 28 --trace 0

Builds the workload's inputs from --seed, then drives ``extendkit.cli.main``
in this process, one call at a time, in rounds: a round is the workload's
fixed list of calls, and whole rounds repeat until about --seconds have
passed. The outputs of the first round are checked against facts
the generators fixed (bench/checks.py); every later round must reproduce
them byte for byte. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Each call's latency is its mean over the run's rounds, scaled to a
reference host speed. The 2-CPU host this was built on switches, every
few milliseconds, between a clean state and one about 1.7-1.9x slower,
for every kind of pure-Python code tried, and the slow state's share of
the time drifts over minutes (94% in one 15 s sample). A fixed
pure-Fraction loop, run between the calls for about 5% of their time,
samples that state in proportion to time; every time metric is
multiplied by CAL_REF_S over the loop's mean time in the run (for
setup_s, next to the cold start), so it reads as if the loop took
CAL_REF_S, about its time in the clean state. call_p50_ms and
call_p90_ms are Harrell-Davis quantile estimates, a weighted mean of all
the order statistics, so a seed's draw of the calls next to the 90th
percentile moves them less than it moves a single order statistic.

A traced run alternates untraced rounds and rounds with the tracer
installed, so both meet the same host speed. Per-layer times are means
over the traced rounds, scaled like the end-to-end ones; counts are the
same in every round. trace.overhead_s is the traced round time minus the
untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
MODULES = ("cli", "lp", "subadditive", "xos", "submodular", "convex", "testers", "oracle")
# usage or input error, and resource cap: the call produced no answer
FAILED_CODES = (2, 3)
# the calibration loop's time at the reference speed, about its time in
# the build host's clean state; CAL_SHARE is its share of call time
CAL_REF_S = 0.001
CAL_SHARE = 0.05


def calibration_seconds() -> float:
    """One pass of a fixed pure-Fraction loop, with the collector off so
    that the heap the calls leave behind cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 500):
            total += Fraction(i % 97 + 1, i % 89 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


def cold_setup_seconds() -> float:
    """A fresh interpreter from its start to extendkit.cli imported and
    its parser built, scaled to the reference speed by 100 calibration
    passes just before it and 100 just after."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); "
        "import extendkit.cli as c; c.build_parser()"
    )
    cal = [calibration_seconds() for _ in range(100)]
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    seconds = time.perf_counter() - start
    cal += [calibration_seconds() for _ in range(100)]
    return seconds * CAL_REF_S / statistics.fmean(cal)


def call_cli(cli, argv):
    """(exit code, or None when main raised; stdout; seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed call, not a dead run
            code = None
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    if code is None or code in FAILED_CODES:
        sys.stderr.write(f"call {argv} failed ({code}): {err.getvalue()[-2000:]}\n")
    return code, out.getvalue(), seconds


def run_round(cli, calls, saved: set, cal: list):
    """[(code, stdout, seconds)] for one pass over the calls. After each
    call, calibration passes for CAL_SHARE of its time, at least one, go
    to ``cal``."""
    results = []
    gc.collect()
    for call in calls:
        results.append(call_cli(cli, call.argv))
        if call.save_as and call.save_as not in saved:
            with open(call.save_as, "w", encoding="utf-8") as fh:
                fh.write(results[-1][1])
            saved.add(call.save_as)
        budget = CAL_SHARE * results[-1][2]
        spent = 0.0
        while not spent or spent < budget:
            cal.append(calibration_seconds())
            spent += cal[-1]
    return results


def check_round(calls, results) -> list[str]:
    """Every answered call's output against its generator facts."""
    docs = {}
    for call, (_code, stdout, _s) in zip(calls, results):
        try:
            docs[call.key] = json.loads(stdout) if stdout.strip() else {}
        except json.JSONDecodeError:
            docs[call.key] = {}
    problems = []
    for call, (code, _stdout, _s) in zip(calls, results):
        if code is None or code in FAILED_CODES:
            continue  # counted as failed
        try:
            call.check(docs[call.key], code, docs)
        except (checks.CheckFailed, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"{call.key}: {type(exc).__name__}: {exc}")
    return problems


def measure(cli, calls, seconds: float, saved: set, tracer=None):
    """Whole rounds, at least one, stopping within half a step of
    ``seconds``. With a tracer each step is an untraced round and then a
    traced one, so both meet the same host speed; each traced round also
    yields (per-layer metrics, spans). Returns (plain rounds, traced rounds, layers, calibration seconds)."""
    plain, traced, layers, cal = [], [], [], []
    start = time.perf_counter()
    elapsed = 0.0
    while not plain or elapsed + elapsed / len(plain) / 2 < seconds:
        plain.append(run_round(cli, calls, saved, cal))
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(cli, calls, saved, cal))
            finally:
                tracer.uninstall()
            layers.append((tracer.metrics(), list(tracer.spans)))
        elapsed = time.perf_counter() - start
    return plain, traced, layers, cal


def mean_times(rounds) -> list[float]:
    """Each call's mean time over the rounds."""
    return [statistics.fmean(r[i][2] for r in rounds) for i in range(len(rounds[0]))]


def harrell_davis(xs, p: float, steps: int = 4000) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by Beta((n+1)p, (n+1)(1-p)) mass on ((i-1)/n, i/n]. The Beta
    distribution function is integrated by the trapezoid rule."""
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    h = 1.0 / steps
    cdf = [0.0]
    for k in range(1, steps + 1):
        cdf.append(cdf[-1] + (density((k - 1) * h) + density(k * h)) * h / 2)

    def at(x):
        k = min(int(x * steps), steps - 1)
        return (cdf[k] + (cdf[k + 1] - cdf[k]) * (x * steps - k)) / cdf[-1]

    return sum(x * (at((i + 1) / n) - at(i / n)) for i, x in enumerate(xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "extendkit", "cli.py")):
        print(f"no extendkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ek = {name: importlib.import_module(f"extendkit.{name}") for name in MODULES}
    cli = ek["cli"]
    setup_s = cold_setup_seconds()

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        for path, text in wl.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        calls, saved = wl.calls, set()
        tracer = tracing.Tracer(ek) if args.trace else None
        plain, traced, layers, cal = measure(cli, calls, args.seconds, saved, tracer)
        problems = check_round(calls, plain[0])
        reference = [stdout for _c, stdout, _s in plain[0]]

        def replay_problems(rounds, label):
            try:
                for res in rounds:
                    checks.check_same_stdout(reference, [o for _c, o, _s in res], label)
            except checks.CheckFailed as exc:
                problems.append(str(exc))

        replay_problems(plain[1:], "a repeated round")
        replay_problems(traced, "the traced run")
        done = plain + traced
        scale = CAL_REF_S / statistics.fmean(cal)
        per_call = [s * scale for s in mean_times(plain)]
        if args.trace:
            metrics = {}
            for k, u in tracing.METRICS.items():
                if u == "count":
                    value = layers[0][0][k]
                else:
                    value = statistics.fmean(layer[k] for layer, _spans in layers) * scale
                metrics[k] = {"value": value, "unit": u}
            metrics["trace.overhead_s"] = {
                "value": sum(mean_times(traced)) * scale - sum(per_call),
                "unit": "s",
            }
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": layers[0][1], "metrics": metrics}, fh)
        else:
            ms = [s * 1000 for s in per_call]
            values = {
                "setup_s": setup_s,
                "wall_s": sum(per_call),
                "call_p50_ms": harrell_davis(ms, 0.5),
                "call_p90_ms": harrell_davis(ms, 0.9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for res in done for code, _o, _s in res if code is None or code in FAILED_CODES)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(plain)} rounds of {len(calls)} calls, "
        f"{len(problems)} check failures; calibration loop mean "
        f"{statistics.fmean(cal) * 1000:.3f} ms over {len(cal)} passes",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(res) for res in done),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
