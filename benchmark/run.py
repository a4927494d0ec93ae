"""Run one shorcost benchmark workload and print its metrics.

    python3 benchmark/run.py --workload verify_modexp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; shorcost is imported from ``src/`` next
to this directory, never from an installed copy.  The workload repeats in
a closed loop (one caller, one process, the next repetition starts when
the previous one returns) until its repetitions add up to ``--seconds``.
Each repetition's time is divided by the host's slowdown around it, which
the probes in ``hostspeed.py`` measure, so that every time and rate printed
is in seconds of the reference host.  Every output is checked outside the
timed region.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The exit code is 0 only when every check
passed.

``--trace 1`` is a separate run: half the time untraced, half with a span
around each call into a module, then one repetition under tracemalloc.
The spans go to ``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

DEFAULT_SEED = 1
SETUP_RUNS = 7
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
MIN_REPS = TAIL_BEYOND + 1
MIN_TRACED_REPS = 3
MB = 1 << 20

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "qubits": "count",
    "ac_depth": "count",
    "ntc_depth": "count",
    "ntc_swaps": "count",
    "circuit_bytes": "count",
}

PER_LAYER = {
    "arithmetic.build_s": "s",
    "arithmetic.gates": "count",
    "arithmetic.gates_per_s": "1/s",
    "oracle.check_s": "s",
    "oracle.states": "count",
    "oracle.gate_states_per_s": "1/s",
    "oracle.spec_calls": "count",
    "oracle.spec_s": "s",
    "oracle.self_s": "s",
    "oracle.peak_alloc_mb": "MB",
    "oracle.verdicts_wrong": "count",
    "architecture.decompose_s": "s",
    "architecture.route_s": "s",
    "architecture.route_swaps": "count",
    "architecture.route_useful_ratio": "ratio",
    "architecture.conformance_s": "s",
    "scheduler.ac_s": "s",
    "scheduler.ntc_s": "s",
    "scheduler.gates_per_s": "1/s",
    "circuit.dumps_s": "s",
    "circuit.loads_s": "s",
    "circuit.bytes": "count",
    "circuit.dumps_mb_per_s": "MB/s",
    "circuit.loads_mb_per_s": "MB/s",
    "cli.build_s": "s",
    "cli.verify_s": "s",
    "cli.estimate_ac_s": "s",
    "cli.estimate_ntc_s": "s",
    "cli.curves_s": "s",
    "cli.exit_nonzero": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """Repetitions of one workload over its instance pool, with the
    operation counts and problems their checks found, and the host-speed
    probe samples taken between them."""

    def __init__(self, wl, cases: list) -> None:
        self.wl = wl
        self.cases = cases
        self.records: list[dict | None] = [None] * len(cases)
        self.done = 0
        self.attempted = 0
        self.failed = 0
        self.verdicts_wrong = 0
        self.problems: list[str] = []
        self.samples: list[dict[str, float]] = []

    def probe(self) -> dict[str, float]:
        self.samples.append(hostspeed.sample())
        return self.samples[-1]

    def note(self, problems: list[str], ops: int) -> None:
        self.failed += min(len(problems), ops)
        self.verdicts_wrong += sum(p.startswith("verdict") for p in problems)
        self.problems += problems

    def rep(self, tr, replay: bool = False) -> tuple[float, float | None]:
        """One repetition; returns its time and its work rate."""
        i = self.done % len(self.cases)
        self.done += 1
        tr.rep = self.done
        case = self.cases[i]
        self.attempted += self.wl.ops
        t0 = time.perf_counter()
        try:
            out = self.wl.rep(case, tr)
            elapsed = time.perf_counter() - t0
            first = self.records[i] is None
            record, problems = self.wl.check(case, out, first)
        # A failing call is an answer the benchmark counts; the loop goes on.
        except Exception as exc:
            self.note([f"{type(exc).__name__}: {exc}"], self.wl.ops)
            return time.perf_counter() - t0, None
        if first:
            self.records[i] = record
        else:
            problems += [
                f"{key} changed from {self.records[i][key]} to {value} on instance {i}"
                for key, value in record.items()
                if self.records[i].get(key) != value
            ]
        self.note(problems, self.wl.ops)
        rate = out["work"] / out.get("work_s", elapsed)
        del out
        if replay:
            self.wl.replay(case, tr)
        return elapsed, rate

    def loop(self, tr, seconds: float, min_reps: int, replay: bool = False, between=None):
        """Repeat until the repetitions add up to ``seconds``.  Returns each
        repetition's time and work rate as measured, and the host's
        slowdown around it, from the probe samples just before and just
        after it.  ``between`` is called after each repetition with the
        share of time done, and returns true when it used the host."""
        times, rates, slow = [], [], []
        before = self.probe()
        while sum(times) < seconds or len(times) < min_reps:
            elapsed, rate = self.rep(tr, replay)
            after = self.probe()
            times.append(elapsed)
            rates.append(rate)
            slow.append(hostspeed.slowdown([before, after]))
            before = after
            if between and between(sum(times) / seconds):
                before = self.probe()
        return times, rates, slow

    def finish(self) -> dict[str, int]:
        """Complete each instance's record and sum the count metrics."""
        from workloads import COUNT_KEYS

        totals = dict.fromkeys(COUNT_KEYS, 0)
        for i, case in enumerate(self.cases):
            self.attempted += 1
            try:
                extra, problems = self.wl.finish(case)
            except Exception as exc:
                extra, problems = {}, [f"{type(exc).__name__}: {exc}"]
            record = self.records[i]
            if record is None:
                problems.append(f"instance {i} never ran")
            else:
                record.update(extra)
                for key in COUNT_KEYS:
                    totals[key] += record.get(key, 0)
            self.note(problems, 1)
        return totals

    def compare(self, expected: list[dict]) -> None:
        """Compare inputs and counts with the reviewed record for the seed."""
        self.attempted += 1
        if self.snapshot() != expected:
            self.note([f"records differ from {EXPECTED.name}: {self.snapshot()}"], 1)

    def snapshot(self) -> list[dict]:
        """Inputs and records as they read back from JSON."""
        return json.loads(json.dumps([
            {"case": asdict(case), "record": record}
            for case, record in zip(self.cases, self.records)
        ]))


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile of ``times`` with TAIL_BEYOND samples above it:
    its value, its rank and the samples above it.  Short runs, which only
    the smoke tests make, fall back to the maximum."""
    ordered = sorted(times)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * k / max(1, len(ordered) - 1), len(ordered) - 1 - k


def measure_setup(name: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import shorcost and draw the
    workload's inputs."""
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import workloads; "
        f"workloads.WORKLOADS[{name!r}]().cases({seed}); "
        "print(time.perf_counter() - t0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(run: Run, spans: list[dict], alloc_spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the traced repetitions.  Times and counts are
    per repetition that called the module; rates are totals over totals."""

    def select(module: str, *names: str) -> list[dict]:
        return [
            s for s in spans
            if s["module"] == module and (not names or s["name"].split(".", 1)[1] in names)
        ]

    def reps(module: str) -> int:
        return max(1, len({s["rep"] for s in select(module)}))

    def busy(ss: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in ss)

    def total(ss: list[dict], key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in ss)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    arith = select("arithmetic")
    m["arithmetic.build_s"] = busy(arith) / reps("arithmetic")
    m["arithmetic.gates"] = total(arith, "gates") / reps("arithmetic")
    m["arithmetic.gates_per_s"] = ratio(total(arith, "gates"), busy(arith))

    oracle, r = select("oracle"), reps("oracle")
    m["oracle.check_s"] = busy(oracle) / r
    m["oracle.states"] = total(oracle, "states") / r
    m["oracle.gate_states_per_s"] = ratio(
        sum(s["counts"]["gates"] * s["counts"]["states"] for s in oracle), busy(oracle)
    )
    m["oracle.spec_calls"] = total(oracle, "spec_calls") / r
    m["oracle.spec_s"] = total(oracle, "spec_s") / r
    m["oracle.self_s"] = m["oracle.check_s"] - m["oracle.spec_s"]
    m["oracle.peak_alloc_mb"] = max(
        (s["counts"]["alloc_peak_bytes"] for s in alloc_spans if s["module"] == "oracle"),
        default=0,
    ) / MB
    m["oracle.verdicts_wrong"] = run.verdicts_wrong

    r = reps("architecture")
    route = select("architecture", "route_linear")
    m["architecture.decompose_s"] = busy(select("architecture", "decompose_toffoli")) / r
    m["architecture.route_s"] = busy(route) / r
    m["architecture.route_swaps"] = (total(route, "routed") - total(route, "gates")) / r
    m["architecture.route_useful_ratio"] = ratio(total(route, "gates"), total(route, "routed"))
    m["architecture.conformance_s"] = busy(select("architecture", "check_conformance")) / r

    sched, r = select("scheduler"), reps("scheduler")
    m["scheduler.ac_s"] = busy(select("scheduler", "metrics_ac")) / r
    m["scheduler.ntc_s"] = busy(select("scheduler", "metrics_ntc")) / r
    m["scheduler.gates_per_s"] = ratio(total(sched, "gates"), busy(sched))

    dumps, loads, r = select("circuit", "dumps"), select("circuit", "loads"), reps("circuit")
    m["circuit.dumps_s"] = busy(dumps) / r
    m["circuit.loads_s"] = busy(loads) / r
    m["circuit.bytes"] = total(dumps, "bytes") / r
    m["circuit.dumps_mb_per_s"] = ratio(total(dumps, "bytes") / MB, busy(dumps))
    m["circuit.loads_mb_per_s"] = ratio(total(loads, "bytes") / MB, busy(loads))

    r = reps("cli")
    for label in ("build", "verify", "estimate_ac", "estimate_ntc"):
        m[f"cli.{label}_s"] = busy(select("cli", label)) / r
    m["cli.curves_s"] = busy(select("cli", "scale", "clock-for", "crossover")) / r
    m["cli.exit_nonzero"] = sum(s["counts"].get("exit", 0) != 0 for s in select("cli"))
    return m


def host_scaled(metrics: dict[str, float], units: dict[str, str],
                slowdown: float) -> dict[str, float]:
    """Times divided by the host's slowdown and rates multiplied by it;
    counts, bytes and ratios as measured."""
    scaled = dict(metrics)
    for name in metrics:
        unit = units[name]
        if unit == "s":
            scaled[name] /= slowdown
        elif unit.endswith("/s"):
            scaled[name] *= slowdown
    return scaled


def measure(wl, seed: int, seconds: float, trace: bool, *, setup_runs: int = SETUP_RUNS,
            min_reps: int | None = None, expected: list[dict] | None = None) -> dict:
    """Run one workload and return the result object the command prints,
    plus ``report``, the lines printed above it, and ``snapshot``, the
    inputs and counts to compare with the reviewed record.  ``min_reps``
    overrides the repetition floor, which only the smoke tests lower."""
    from tracing import NullTracer, Tracer, self_times, write_spans

    run = Run(wl, wl.cases(seed))
    null = NullTracer()
    run.rep(null)  # warm-up: first imports, caches and the first reference checks
    report = [f"workload {wl.name}  seed {seed}  closed loop, 1 caller  pool {len(run.cases)}"]
    metrics: dict[str, float] = {}
    if not trace:
        setup: list[float] = []

        def sample_setup(done: float) -> bool:
            # Spread over the run, so that one slow stretch of a shared host
            # does not hold every sample.
            if len(setup) < setup_runs and done * setup_runs >= len(setup):
                before = run.probe()
                raw = measure_setup(wl.name, seed)
                setup.append(raw / hostspeed.slowdown([before, run.probe()]))
                return True
            return False

        times, rates, slow = run.loop(null, seconds, min_reps or MIN_REPS, between=sample_setup)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup) < setup_runs:
            sample_setup(1.0)
        counts = run.finish()
        work = [r * f for r, f in zip(rates, slow) if r is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(t / f for t, f in zip(times, slow)),
            "peak_rss_mb": peak_rss,
            "work_per_s": statistics.median(work) if work else 0.0,
            **counts,
        }
        # On a shared host the times as measured move with the host, so they
        # are reported here and not bounded.
        tail_s, pct, beyond = tail(times)
        report.append(
            f"  {len(times)} repetitions; setup_s is the median of {len(setup)}; "
            f"work_per_s counts {wl.work_unit}"
        )
        report.append(f"  {'wall_fastest_s (as measured)':<32} {min(times):>16.6g} s")
        report.append(f"  {'wall_median_s (as measured)':<32} {statistics.median(times):>16.6g} s")
        report.append(
            f"  {'wall_tail_s (as measured)':<32} {tail_s:>16.6g} s "
            f"(p{pct:.0f}, {beyond} samples above it)"
        )
    else:
        times, _, slow = run.loop(null, seconds / 2, min_reps or MIN_TRACED_REPS)
        tracer = Tracer(wl.name)
        traced, _, traced_slow = run.loop(
            tracer, seconds / 2, min_reps or MIN_TRACED_REPS, replay=True
        )
        alloc = Tracer(wl.name, alloc=True)
        run.rep(alloc, replay=True)
        run.finish()
        metrics = host_scaled(
            layer_metrics(run, tracer.spans, alloc.spans), PER_LAYER,
            statistics.median(traced_slow),
        )
        metrics["trace.wall_s"] = statistics.median(t / f for t, f in zip(traced, traced_slow))
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            t / f for t, f in zip(times, slow)
        )
        own = self_times(tracer.spans)
        spent = sum(own.values())
        report.append(f"  {len(times)} untraced and {len(traced)} traced repetitions")
        report.append("  module self time per traced repetition, as measured:")
        for module, s in sorted(own.items(), key=lambda kv: -kv[1]):
            report.append(f"    {module:<13} {s / len(traced):10.4f} s  {100 * s / spent:5.1f}%")
        report.append(f"  tracing overhead {metrics['trace.overhead_s']:+.4f} s per repetition")
        write_spans(
            OUT / f"trace-{wl.name}-seed{seed}.json",
            tracer.spans,
            {"self_s": own, "reps": len(traced), "metrics": metrics},
        )
    if expected is not None:
        run.compare(expected)
    units = PER_LAYER if trace else END_TO_END
    each = [hostspeed.slowdown([x]) for x in run.samples]
    report.append(
        f"  host slowdown {statistics.median(each):.3f} median, {min(each):.3f} to {max(each):.3f} "
        f"over {len(each)} probe samples; times below are in reference-host seconds"
    )
    for name, unit in units.items():
        report.append(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    share = run.failed / run.attempted
    report.append(f"  {'ops_failed_share':<32} {share:>16.6g} ({run.failed}/{run.attempted})")
    report += [f"  FAILED: {p}" for p in run.problems[:20]]
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "report": report,
        "snapshot": run.snapshot(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help=f"store this run's inputs and counts as the reviewed record "
                             f"for seed {DEFAULT_SEED} in {EXPECTED.name}")
    args = parser.parse_args(argv)

    if not (SRC / "shorcost" / "__init__.py").is_file():
        print(f"benchmark: no shorcost sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, CliRoundtrip

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.write_expected and args.seed != DEFAULT_SEED:
        parser.error(f"--write-expected records seed {DEFAULT_SEED} only")

    records = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = None
    if args.seed == DEFAULT_SEED and not args.write_expected:
        expected = records.get(args.workload)
        if expected is None:
            print(f"benchmark: {EXPECTED.name} has no record for {args.workload}", file=sys.stderr)
            return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = WORKLOADS[args.workload]()
        if isinstance(wl, CliRoundtrip):
            wl.workdir = Path(workdir)
        result = measure(wl, args.seed, args.seconds, bool(args.trace), expected=expected)

    print("\n".join(result.pop("report")))
    snapshot = result.pop("snapshot")
    if args.write_expected and result["correct"]:
        records[args.workload] = snapshot
        EXPECTED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
