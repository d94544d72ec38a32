"""inputproc benchmark.

One workload, one seed, in this process:

    python3 perfbench/run.py --workload stories_biglex --seed 7 --seconds 40 --trace 0

prints each metric by name and unit, then one JSON line
`{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, from a run
that calls each operation twice, untraced and then with the package's public
functions wrapped (see tracing.py).

Every workload, each in a fresh process:

    python3 perfbench/run.py --all [--seeds 10] [--seconds 40] [--out FILE]

runs the workloads BENCHMARK.json names, seed by seed across the workloads,
prints the median and quartile spread of every metric over the seeds, and
writes them as JSON to FILE.

The package is imported from the checkout's `src/` and the oracles from
`tests/oracles.py`; without them the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, strftime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LAYER_FUNCTIONS = (
    "lexicon.entries_for",
    "principle1.candidate_meanings",
    "principle1.deterministic_maps",
    "principle1.skippable",
    "principle1.enumerate_p1_models",
    "principle2.voice_of",
    "principle2.surface_dir_rev",
    "principle2.dir_rev_m",
    "principle2.extract_fnp",
    "principle2.interpret_paragraph",
    "world.impossible",
    "world.unlikely",
    "world.hpd",
    "world.apply_effects",
    "pias.check_sentence",
    "pias.check_paragraph",
    "pias.generate_valuable",
    "text.encode_text",
    "cli.main",
)
LOAD_FUNCTIONS = ("lexicon.parse_lexicon", "world.parse_world")
WALL_LIMIT_S = 60      # extra wall time the timed loop may spend on untimed checks


# --- measuring -------------------------------------------------------------------

class Phase:
    """Durations and outcomes of the operations of one timed phase."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.sentences = 0
        self.failed = 0

    @property
    def ops(self) -> int:
        return len(self.durations)


def _timed_op(wl, i: int, phase: Phase) -> float:
    """Run operation i, record it in `phase`, check its result untimed, and
    return its duration."""
    t0 = perf_counter()
    try:
        result = wl.run(i)
        ok = True
    except Exception:
        ok = False
        if phase.failed < 3:
            traceback.print_exc()
    t1 = perf_counter()
    phase.starts.append(t0)
    phase.durations.append(t1 - t0)
    phase.sentences += wl.sentences(i)
    if ok:
        try:
            ok = wl.check(i, result)
        except Exception:
            ok = False
            traceback.print_exc()
    phase.failed += not ok
    return t1 - t0


def measure(wl, seconds: float, trace=None, gauge=None) -> tuple[Phase, Phase]:
    """Run operations until they have taken `seconds` in total; each result is
    checked outside the timed region. Returns (untraced, traced) phases.
    With `gauge`, the host's speed is sampled between operations.

    With `trace`, every operation runs twice: untraced, then with
    `trace(i, True)` in force. Both halves see the same inputs and, within a
    second, the same machine speed, so their difference is the tracer's cost.
    Without `trace` the traced phase stays empty.
    """
    plain, traced = Phase(), Phase()
    modes = [(plain, False)] if trace is None else [(plain, False), (traced, True)]
    busy = 0.0
    wall_end = perf_counter() + seconds + WALL_LIMIT_S
    i = 0
    while busy < seconds and perf_counter() < wall_end:
        for phase, on in modes:
            if gauge is not None:
                gauge.tick()
            if trace is not None:
                trace(i, on)
            busy += _timed_op(wl, i, phase)
        i += 1
    if trace is not None:
        trace(i, False)
    return plain, traced


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(wl, phase: Phase, setups: list[tuple[float, float]], rss_mb: float,
                       gauge) -> dict:
    """Timings at the gauge's reference speed (see gauges.py). An input's
    latency is its fastest call, since other tenants' load only ever adds
    time; the percentiles are taken over the inputs, and sentences_per_s is
    one pass over the inputs at those latencies. `setups` holds (start,
    seconds)."""
    calls: dict[int, list[float]] = {}
    for i, (t, d) in enumerate(zip(phase.starts, phase.durations)):
        calls.setdefault(i % wl.inputs, []).append(gauge.at_ref(t, d))
    latency = {k: min(v) for k, v in calls.items()}
    ms = [s * 1e3 for s in latency.values()]
    return {
        "setup_s": (statistics.median(gauge.at_ref(t, d) for t, d in setups), "s"),
        "sentences_per_s": (sum(wl.sentences(k) for k in latency) / sum(latency.values()), "1/s"),
        "call_ms.p50": (statistics.median(ms), "ms"),
        "call_ms.p90": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer_metrics(spans: dict, counters: dict, ops: int, load_spans: dict, loads: int,
                      import_ms: list[float], overhead_ms: float) -> dict:
    """spans and load_spans map a function to [calls, self ms]."""

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in LAYER_FUNCTIONS:
        calls, self_ms = spans.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / ops, "1/op")
        out[f"{name}.self_ms"] = (self_ms / ops, "ms/op")
    out["lexicon.entries_for.hit_ratio"] = (
        ratio(counters.get("entries_returned", 0), counters.get("entries_scanned", 0)), "ratio")
    out["principle1.candidates"] = (counters.get("candidates", 0) / ops, "1/op")
    out["principle1.models"] = (counters.get("models", 0) / ops, "1/op")
    out["principle1.canonical_ratio"] = (
        ratio(counters.get("models_used", 0), counters.get("models", 0)), "ratio")
    out["pias.valuable_ratio"] = (ratio(counters.get("valuable", 0), counters.get("checked", 0)), "ratio")
    for name in LOAD_FUNCTIONS:
        out[f"{name}.self_ms"] = (ratio(load_spans.get(name, (0, 0.0))[1], loads), "ms/load")
    out["cli.import_ms"] = (statistics.mean(import_ms) if import_ms else 0.0, "ms")
    out["trace.overhead_ms"] = (overhead_ms, "ms/op")
    return out


def _in_ms(aggregate: dict) -> dict:
    return {name: [calls, secs * 1e3] for name, (calls, secs) in aggregate.items()}


def _sum_children(traces: list[dict]) -> tuple[dict, dict]:
    spans: dict = {}
    counters: dict = {}
    for trace in traces:
        for name, (calls, self_ms) in trace["spans"].items():
            row = spans.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_ms
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters


def _mean_ms(phase: Phase) -> float:
    return sum(phase.durations) / phase.ops * 1e3


def run_workload(name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> tuple[dict, Phase, int]:
    sys.path.insert(0, str(ROOT / "src"))
    ip = importlib.import_module("inputproc")
    if Path(ip.__file__).resolve().parent != (ROOT / "src" / "inputproc").resolve():
        raise RuntimeError(f"inputproc imported from {ip.__file__}, not from this checkout")
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    import gauges
    import tracing
    import workloads

    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(ROOT, work, seed, tiny, ip, oracles)
        wl = workloads.WORKLOADS[name](ctx)
        gauge = None
        if not traced:
            gauge = gauges.scan_gauge() if wl.in_process else gauges.start_gauge(ROOT)
            gauge.sample(10)
        harness_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracer = tracing.Tracer() if traced and wl.in_process else None
        if tracer:
            tracer.install(tracing.package_modules())
        setups: list[tuple[float, float]] = []
        for _ in range(wl.setup_reps):
            t0 = perf_counter()
            wl.setup()
            setups.append((t0, perf_counter() - t0))
            if gauge:
                gauge.tick(10)
        if gauge:
            gauge.sample(10)
        if tracer:
            tracer.uninstall()
            load_spans = _in_ms(tracer.aggregate())
        wl.warmup()

        if not traced:
            phase, _ = measure(wl, seconds, gauge=gauge)
            gauge.sample(10)
            rss_kb = resource.getrusage(
                resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN).ru_maxrss
            if wl.in_process:
                print(f"harness_rss_mb = {harness_kb / 1024:.6g} MB (peak before the first set-up:"
                      " interpreter, inputs, oracle answers and the gauge's rows)")
            wall_ms = [d * 1e3 for d in phase.durations]
            ref_ms = [gauge.at_ref(t, d) * 1e3 for t, d in zip(phase.starts, phase.durations)]
            print(f"host_speed = {gauge.speed():.6g} (1 is the reference speed; {len(gauge.secs)} samples)")
            print(f"wall, every call: setup_s = {statistics.median(d for _, d in setups):.6g} s,"
                  f" sentences_per_s = {phase.sentences / sum(phase.durations):.6g} 1/s,"
                  f" call_ms.p50 = {statistics.median(wall_ms):.6g} ms,"
                  f" call_ms.p95 = {percentile(wall_ms, 95):.6g} ms")
            print(f"reference speed, every call: call_ms.p50 = {statistics.median(ref_ms):.6g} ms,"
                  f" call_ms.p95 = {percentile(ref_ms, 95):.6g} ms")
            inputs = min(wl.inputs, phase.ops)
            print(f"inputs = {inputs}, each called {phase.ops // inputs} to {-(-phase.ops // inputs)} times")
            return end_to_end_metrics(wl, phase, setups, rss_kb / 1024, gauge), phase, phase.failed

        if tracer:
            first = tracer.mark()
            tracer.counters.clear()
            modules = tracing.package_modules()

            def trace(i, on):
                tracer.current_op = i
                if on:
                    tracer.install(modules)
                else:
                    tracer.uninstall()

            plain, phase = measure(wl, seconds, trace)
            spans, counters = _in_ms(tracer.aggregate(first)), dict(tracer.counters)
            loads, import_ms = wl.setup_reps, []
        else:
            def trace(i, on):
                wl.traced = on

            plain, phase = measure(wl, seconds, trace)
            spans, counters = _sum_children(wl.child_traces)
            load_spans, loads = spans, len(wl.child_traces)
            import_ms = [t["import_ms"] for t in wl.child_traces]
        failed = plain.failed + phase.failed
        metrics = per_layer_metrics(spans, counters, phase.ops, load_spans, loads, import_ms,
                                    _mean_ms(phase) - _mean_ms(plain))
        both = Phase()
        both.durations = plain.durations + phase.durations
        return metrics, both, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def report(metrics: dict, phase: Phase, failed: int) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"calls = {phase.ops} (timed calls)")
    print(f"failed_frac = {failed / max(phase.ops, 1):.6g} ({failed} of {phase.ops})")
    return {
        "correct": failed == 0,
        "attempted": phase.ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# --- all workloads -----------------------------------------------------------------

def run_one_process(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run_all(seeds: int, seconds: float, out: str | None) -> int:
    """Seed 1 of every workload, then seed 2, and so on, so that a slow phase
    of the machine falls on every workload alike rather than on one; then one
    traced run of each."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    runs: dict[str, list] = {name: [] for name in names}
    for seed in range(1, seeds + 1):
        for workload in names:
            t0 = perf_counter()
            runs[workload].append(run_one_process(workload, seed, seconds, 0))
            print(f"  {workload} seed {seed}: {perf_counter() - t0:.1f} s", flush=True)
    summary = {}
    ok = True
    for workload in names:
        traced = run_one_process(workload, 1, seconds, 1)
        plain = runs[workload]
        rows = {}
        for name, first in plain[0]["metrics"].items():
            rows[name] = dict(summarize([r["metrics"][name]["value"] for r in plain]), unit=first["unit"])
        for name, metric in traced["metrics"].items():
            rows[name] = {"value": metric["value"], "unit": metric["unit"]}
        attempted = sum(r["attempted"] for r in plain + [traced])
        failed = sum(r["failed"] for r in plain + [traced])
        ok &= failed == 0
        summary[workload] = {"runs": seeds, "attempted": attempted, "failed": failed, "metrics": rows}
        print(f"== {workload}: {seeds} seeds x {seconds} s, failed_frac = {failed / attempted:.6g}")
        for name, row in rows.items():
            if "median" in row:
                print(f"  {name:34s} {row['median']:12.6g} {row['unit']:8s} "
                      f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.2%}")
            else:
                print(f"  {name:34s} {row['value']:12.6g} {row['unit']}")
    if out:
        point = {
            "date": strftime("%Y-%m-%d"),
            "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                        "platform": platform.platform()},
            "seconds": seconds,
            "workloads": summary,
        }
        Path(out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--all", action="store_true", help="run every workload in its own process")
    parser.add_argument("--seeds", type=int, default=1, help="with --all: seeds 1..N per workload")
    parser.add_argument("--out", help="with --all: write the summary as JSON here")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/inputproc/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not in an inputproc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seeds, args.seconds, args.out)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    metrics, phase, failed = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(report(metrics, phase, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
