"""Benchmark of pwlstab, driven from outside the package through its CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: certificate_sweep, measure_sweep,
point_analysis (see bench/README.md).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = 9
# The probe loop's length, and its time on the 2-CPU machine the benchmark
# was written on when nothing else slowed it: timings are reported at that
# reference speed.
PROBE_STEPS = 300
PROBE_S = 0.002


def probe() -> float:
    """Seconds of a fixed loop with the program's mix of interpreted
    arithmetic and small numpy calls; it reads the machine's speed now."""
    t0 = time.perf_counter()
    x = np.arange(8.0)
    s = 0.0
    for i in range(PROBE_STEPS):
        s += math.hypot(i * 0.5, 1.0)
        x = np.where(x > 3.0, x * 0.5, x + 1.0)
    return time.perf_counter() - t0


def timed(fn):
    """Run fn between two probes: (result, its seconds at the reference
    speed, i.e. scaled by PROBE_S over the probes' mean)."""
    before = probe()
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return out, dt * PROBE_S / (0.5 * (before + probe()))


def call_cli(main, argv: list[str]):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        return int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Setup:
    """Seconds for a fresh interpreter to import pwlstab and build the
    workload's inputs.  Samples are taken between timed rounds, so their
    median spans the run rather than one moment of it."""

    def __init__(self, workload: str, seed: int, outdir: Path):
        code = (
            "import sys; from pathlib import Path; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            "import pwlstab, workloads; "
            f"workloads.WORKLOADS[{workload!r}]({seed}, Path({str(outdir)!r}))"
        )
        self.argv = [sys.executable, "-c", code]
        self.times: list[float] = []

    def sample(self) -> None:
        if len(self.times) < SETUP_SAMPLES:
            # The interpreter runs on the CPU whose speed the probes read.
            cpu = current_cpu()
            pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
            _, dt = timed(lambda: subprocess.run(self.argv, check=True, cwd=ROOT, preexec_fn=pin))
            self.times.append(dt)

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.times)


def timed_rounds(wl, main, seconds: float, between=lambda: None):
    """Whole rounds until their CLI time reaches ``seconds``.

    Returns (rounds, points per second, first round's outputs, whether every
    later round's outputs were byte-identical).  Each CLI call's time is
    scaled to the reference speed by the probes on either side of it; a
    shared machine runs the same call at speeds that differ by half from
    one second to the next and drift over minutes.  Points per second is a
    round's points over the sum of each call's median scaled time."""
    times: list[list[float]] = []
    spent = 0.0
    first, identical = None, True
    while not times or spent < seconds:
        scaled, results = [], []
        for argv in wl.calls:
            t0 = time.perf_counter()
            result, dt = timed(lambda: call_cli(main, argv))
            spent += time.perf_counter() - t0
            scaled.append(dt)
            results.append(result)
        out = wl.collect(results)
        times.append(scaled)
        if first is None:
            first = out
        elif out != first:
            identical = False
        between()
    per_call = [statistics.median(ts) for ts in zip(*times)]
    return len(times), wl.ops_per_round / sum(per_call), first, identical


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pwlstab" / "__init__.py").is_file():
        print(f"pwlstab source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import pwlstab
    import pwlstab.cli
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    setup = Setup(args.workload, args.seed, outdir)
    setup.sample()
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir)

    def cli_main(cli_argv):  # looked up per call, so a traced main is seen
        return pwlstab.cli.main(cli_argv)

    call_cli(cli_main, wl.calls[0])  # warm-up
    tracer = None
    if args.trace:
        # Untraced and traced rounds share the run; their points_per_s
        # differ by the tracing overhead.
        plain = timed_rounds(wl, cli_main, args.seconds / 2, setup.sample)
        tracer = tracing.Tracer(pwlstab)
        tracer.install()
        try:
            rounds, pps, first, identical = timed_rounds(wl, cli_main, args.seconds / 2)
        finally:
            tracer.uninstall()
        identical = identical and plain[3] and plain[2] == first
        rounds_all = rounds + plain[0]
    else:
        rounds, pps, first, identical = timed_rounds(wl, cli_main, args.seconds, setup.sample)
        rounds_all = rounds
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome = wl.check(first, pwlstab)
    if not identical:
        outcome.problems.append("rounds of one run wrote different outputs")
    failed_per_round = len(outcome.faults)
    for msg in outcome.faults:
        print(f"known fault (rho_closed_form): {msg}")

    if tracer is None:
        metrics = {
            "setup_s": (setup.median(), "s"),
            "points_per_s": (pps, "points/s"),
            "decided_points": (outcome.decided, "count"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        layer = tracer.layer_metrics(rounds)
        outcome.problems += sanity_problems(args.workload, wl, layer)
        spans_path = RUNS / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
        metrics["trace.overhead_ratio"] = (plain[1] / pps - 1.0, "ratio")
        metrics["trace.spans"] = (len(tracer.spans) / rounds, "count")

    for msg in outcome.problems:
        print(f"CHECK FAILED: {msg}")
    shutil.rmtree(outdir, ignore_errors=True)
    result = {
        "correct": not outcome.problems,
        "attempted": rounds_all * wl.ops_per_round,
        "failed": rounds_all * failed_per_round,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".ms_p50", ".ms_p90")):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def sanity_problems(workload: str, wl, m: dict[str, float]) -> list[str]:
    """Per-round call counts the workload fixes in advance."""
    n = wl.ops_per_round
    if workload == "point_analysis":
        in_regime = sum(p[0] < 2.0 * p[1] ** 0.5 for _, p in wl.points)
        want = {
            "cli.main.calls": n,
            "report.analyze.calls": n,
            "sphere.birkhoff_lambda.calls": n,
            "polygons.ga92.calls": in_regime,
            "sphere.rho_sampled.calls": n - m["sphere.rho_closed_form.answered"],
        }
    else:
        mode = "asymptotic" if workload == "certificate_sweep" else "measure"
        want = {
            "cli.main.calls": len(wl.calls),
            f"sweep.sweep_{mode}.calls": len(wl.calls),
            "polygons.ga92.calls": wl.in_regime_cells() if mode == "asymptotic" else 0,
            "sphere.rho_sampled.calls": n if mode == "measure" else 0,
        }
    return [
        f"traced {name} = {m[name]} per round, expected {value}"
        for name, value in want.items()
        if m[name] != value
    ]


if __name__ == "__main__":
    sys.exit(main())
