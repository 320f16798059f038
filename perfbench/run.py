"""curvgraph benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``
directory. Inputs are generated from the seed before any timing starts.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics, taken from
spans recorded around calls into curvgraph's public functions. The exit code
is 1 when any output fails its check.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("classify_generic", "classify_special", "cli_structure", "cli_cold")
SETUP_REPEATS = 9
PROCESS_REPEATS = 3
TRACE_BLOCK_S = 1.0
PETROV_TYPES = ("I", "II", "D", "III", "N", "O")
# Printed on the summary lines but left out of the JSON result, because they
# do not repeat from run to run on a shared 2-vCPU host. Its speed alternates
# between two levels over seconds to minutes: the median and the mean flip
# between the levels, and p99 (about ten samples beyond it on the CLI
# workloads) follows single stalls. p90 stays on the slower level.
PRINTED_ONLY = ("ops_per_s", "latency_p50_ms", "latency_p99_ms")

# Child interpreters: ``python -c`` bodies whose stdout is the seconds taken.
PROCESS_PROBES = {
    "process.import_numpy":
        "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)",
    "process.import_curvgraph":
        "import time, numpy; t = time.perf_counter(); import curvgraph; "
        "print(time.perf_counter() - t)",
}


def spawn(argv: list[str]) -> subprocess.CompletedProcess:
    """Run one child to completion from the checkout root, with the checkout's
    sources first on its path. Children never overlap."""
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def spawn_ok(argv: list[str]) -> str:
    proc = spawn(argv)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


@dataclass
class Workload:
    items: list
    op: Callable
    check: Callable
    probe: list[str]  # probe.py arguments that replay the first op
    records_per_doc: float


def build(name: str, seed: int, workdir: Path) -> Workload:
    import checks
    import gen
    import ops

    count = gen.POOL[name]
    if name in ("classify_generic", "classify_special"):
        items = (gen.generic_items if name == "classify_generic" else gen.special_items)(seed, count)
        first = workdir / "first.json"
        first.write_text(items[0].text)
        if name == "classify_generic":
            check = lambda it, out: checks.check_generic(it.omega, out)  # noqa: E731
        else:
            check = lambda it, out: checks.check_special(it.expected_type, out)  # noqa: E731
        return Workload(items, lambda it: ops.classify_doc(it.text), check,
                        ["classify", str(first)],
                        statistics.mean(gen.records(it.text) for it in items))
    if name == "cli_structure":
        items = gen.structure_items(seed, count, workdir)
        return Workload(items, lambda it: ops.run_cli(it.argvs), checks.check_structure,
                        ["cli", json.dumps(items[0].argvs)],
                        statistics.mean(gen.records(Path(it.path).read_text()) for it in items))
    items = gen.cold_items(seed, count, workdir, ops.classify_doc)

    def cold(it):
        proc = spawn([sys.executable, "-m", "curvgraph", "classify", "--input", it.path])
        return proc.returncode, proc.stdout

    return Workload(items, cold, lambda it, out: checks.check_cold(it.expected, out),
                    ["cli", json.dumps([["classify", "--input", items[0].path]])],
                    statistics.mean(gen.records(it.text) for it in items))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    classified: int = 0
    inconsistent: int = 0


def run_loop(wl: Workload, seconds: float, op: Callable, start_at: int = 0):
    """Closed loop over the input pool for ``seconds``; outputs are grouped by
    (input, output) so each distinct pair is checked once, afterwards."""
    latencies, outputs = [], {}
    k = start_at
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        idx = k % len(wl.items)
        k += 1
        t0 = time.perf_counter()
        try:
            out = op(wl.items[idx])
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = ("raised", repr(exc))
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        outputs[(idx, out)] = outputs.get((idx, out), 0) + 1
        if t1 >= deadline:
            return latencies, outputs, t1 - start, k


def judge(wl: Workload, outputs: dict, tally: Tally, types: dict, reasons: list) -> None:
    for (idx, out), count in outputs.items():
        tally.attempted += count
        if isinstance(out, tuple) and out and out[0] == "raised":
            tally.failed += count
            reasons.append(f"input {idx}: raised {out[1]}")
            continue
        try:
            verdict = wl.check(wl.items[idx], out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            tally.failed += count
            reasons.append(f"input {idx}: malformed output ({exc!r})")
            continue
        if not verdict.ok:
            tally.failed += count
            reasons.append(f"input {idx}: {verdict.reason}")
        if verdict.consistent is not None:
            tally.classified += count
            tally.inconsistent += 0 if verdict.consistent else count
            types.setdefault(idx, verdict.ptype)


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def process_breakdown() -> dict[str, float]:
    """p50 in us of interpreter start (wall time of ``python -c pass``) and
    of the numpy and curvgraph imports, timed inside fresh children."""
    starts = []
    for _ in range(PROCESS_REPEATS):
        t0 = time.perf_counter()
        spawn_ok([sys.executable, "-c", "pass"])
        starts.append(time.perf_counter() - t0)
    out = {"process.python_start": statistics.median(starts) * 1e6}
    for name, code in PROCESS_PROBES.items():
        out[name] = statistics.median(
            float(spawn_ok([sys.executable, "-c", code])) for _ in range(PROCESS_REPEATS)
        ) * 1e6
    return out


def end_to_end(wl: Workload, name: str, seconds: float, tally, types, reasons):
    """Timed closed loop plus set-up probes.

    ``setup_s`` is the median over fresh interpreters of ``import curvgraph``
    plus the first op. One untimed probe first fills the bytecode cache of a
    new checkout; the timed probes are spread over the run, one before each
    equal segment, so their median samples the machine at several moments."""
    probe = [sys.executable, str(ROOT / "perfbench" / "probe.py"), *wl.probe]
    spawn_ok(probe)
    if name != "cli_cold":
        for item in wl.items:  # warm-up pass: lazy set-up and file cache
            try:
                wl.op(item)
            except Exception:  # counted when the timed loop meets it again
                pass
    setups, latencies, elapsed, k = [], [], 0.0, 0
    for _ in range(SETUP_REPEATS):
        setups.append(float(spawn_ok(probe)))
        lat, outputs, took, k = run_loop(wl, seconds / SETUP_REPEATS, wl.op, k)
        latencies += lat
        elapsed += took
        judge(wl, outputs, tally, types, reasons)
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return {
        "ops_per_s": (len(latencies) / elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "latency_p99_ms": (percentile_ms(latencies, 99), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(wl: Workload, name: str, seconds: float, tally, types, reasons):
    """Alternating untraced and traced blocks; the traced ones give the
    spans, the pair gives the tracing overhead on the median op time."""
    import spans

    tracer = spans.Tracer()
    op_id = tracer.name_id(spans.OP)

    def traced_op(item):
        idx = tracer.begin(op_id)
        try:
            return wl.op(item)
        finally:
            tracer.finish(idx)

    plain, traced, k = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        lat, outputs, _, k = run_loop(wl, TRACE_BLOCK_S / 2, wl.op, k)
        plain += lat
        judge(wl, outputs, tally, types, reasons)
        tracer.install()
        try:
            lat, outputs, _, k = run_loop(wl, TRACE_BLOCK_S / 2, traced_op, k)
        finally:
            tracer.uninstall()
        traced += lat
        judge(wl, outputs, tally, types, reasons)
    tracer.write(ROOT / ".perfbench-out" / f"spans-{name}.npz")

    layers = tracer.summary(len(traced))
    metrics = {}
    for span in spans.span_names() + [spans.OP]:
        incl, own, calls = layers.get(span, (0.0, 0.0, 0.0))
        metrics[f"{span}.p50_us"] = (incl, "us")
        metrics[f"{span}.self_p50_us"] = (own, "us")
        if span != spans.OP:
            metrics[f"{span}.calls_per_op"] = (calls, "calls/op")
    for span, us in process_breakdown().items():
        metrics[f"{span}.p50_us"] = (us, "us")
    for ptype in PETROV_TYPES:
        metrics[f"petrov.type.{ptype}"] = (sum(t == ptype for t in types.values()), "count")
    metrics["input.records_per_doc"] = (wl.records_per_doc, "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not (SRC / "curvgraph" / "__init__.py").is_file():
        print(f"perfbench: no curvgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import curvgraph

    if not Path(curvgraph.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: curvgraph imported from {curvgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tally, types, reasons = Tally(), {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = build(args.workload, args.seed, Path(tmp))
        measure = per_layer if args.trace else end_to_end
        metrics = measure(wl, args.workload, args.seconds, tally, types, reasons)

    inconsistent = tally.inconsistent / tally.classified if tally.classified else 0.0
    if args.trace:
        metrics["inconsistent_share"] = (inconsistent, "share")
    for reason in reasons[:10]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    summary = {k: f"{v:.6g} {unit}" for k, (v, unit) in metrics.items()}
    metrics = {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}
    summary["failed_share"] = f"{tally.failed / max(tally.attempted, 1):.6g} share"
    if not args.trace:
        summary["inconsistent_share"] = f"{inconsistent:.6g} share"
    print(f"# {args.workload} seed={args.seed} trace={args.trace} attempted={tally.attempted}")
    for key, text in summary.items():
        print(f"#   {key} = {text}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }), flush=True)
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
