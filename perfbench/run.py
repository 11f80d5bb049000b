"""germinv benchmark: three seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]   # every workload, both modes

Workloads (the reasons are in BENCHMARK.json): sparse-sweep, dense-sweep,
cli-mix.  Each runs in child processes of its own (worker.py), so every
child imports germinv cold and reports its own peak memory, and each child
runs under a wall-clock timeout: a step budget does not bound wall time.
The benchmark and its children share one CPU (pin_to_one_cpu).

--trace 0 reports the end-to-end metrics, measured untraced, with every
time scaled to a nominal machine speed (speed.py; raw values are printed
beside them):
  setup_s      median over fresh interpreters of importing germinv and
               building the first pass of inputs
  ops_per_s    ops that completed correctly per second of the timed loop
  op_p50_ms    median wall time per op
  op_p90_ms    90th percentile wall time per op
  ok_frac      ops that completed correctly / ops attempted
  peak_rss_mb  peak resident memory of the timed child
  cli_cold_ms  median wall time of a fresh `python -m germinv.cli` call
--trace 1 runs the first pass untraced and traced, twice each, every time
in a fresh child, and reports the per-layer metrics of tracer.py.

Only complete passes are timed, so a run lasts --seconds plus at most one
pass.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric with its unit and sample count, the outcome counts with fail_frac
(budget exhaustions plus errors over ops attempted), the machine and the
git SHA.  "failed" counts only ops that ended in an error their workload
does not expect; a dense-sweep budget exhaustion is a measured outcome
(it lowers ok_frac), not a failed op.  Exit status: 0 on success, 1 when
an output check fails or a child times out, 2 when the checkout holds no
germinv sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from golden import COLD_CALL  # noqa: E402
from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from speed import NOMINAL_REF_MS, NOMINAL_START_MS  # noqa: E402

WORKLOADS = ("sparse-sweep", "dense-sweep", "cli-mix")
SETUP_REPEATS = 7  # fresh interpreters behind setup_s
COLD_REPEATS = 21  # fresh interpreters behind cli_cold_ms and cli.import_ms
LOOP_GRACE_S = 100  # timeout of the timed child beyond --seconds
PASS_TIMEOUT_S = 40  # timeout of each of the four single-pass children of --trace 1
OK, BUDGET, ERROR = "ok", "budget-exceeded", "error"  # as in workloads.py


class RunFailure(Exception):
    """A child timed out, crashed or failed an output check."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(workload: str, seed: int, mode: str, seconds: float, timeout: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailure(f"{workload} {mode} child timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "check_failure" in result:
        raise RunFailure(f"{workload}: output check failed: {result['check_failure']}")
    if proc.returncode != 0 or not lines:
        raise RunFailure(f"{workload} {mode} child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return result


def timed_process(argv: list[str], timeout: float = 60) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailure(f"{argv[1:]} timed out after {timeout:.0f} s") from None
    return (perf_counter() - start) * 1000, proc


def after_bare_start(probe):
    """probe()'s result and the wall ms of a bare interpreter start just before it."""
    start_ms = timed_process([sys.executable, "-c", "pass"])[0]
    return probe(), start_ms


def cli_cold_ms(count: int) -> list[tuple[float, float]]:
    """(wall ms, bare start ms) of fresh `python -m germinv.cli` calls, each
    output checked."""
    argv, expected_code, digest = COLD_CALL
    samples = []
    for _ in range(count):
        (ms, proc), start_ms = after_bare_start(
            lambda: timed_process([sys.executable, "-m", "germinv.cli", *argv]))
        got = hashlib.sha256(proc.stdout.encode()).hexdigest()
        if proc.returncode != expected_code or got != digest:
            raise RunFailure(f"cold call germinv {' '.join(argv)}: exit {proc.returncode}, "
                             f"digest {got}: {proc.stderr.strip()[-500:]}")
        samples.append((ms, start_ms))
    return samples


def cli_import_ms() -> tuple[float, int]:
    """Median fresh-interpreter `import germinv.cli` minus a bare interpreter."""
    bare, loaded = [], []
    for _ in range(COLD_REPEATS):
        bare.append(timed_process([sys.executable, "-c", "pass"])[0])
        ms, proc = timed_process([sys.executable, "-c", "import germinv.cli"])
        if proc.returncode != 0:
            raise RunFailure(f"import germinv.cli failed: {proc.stderr.strip()[-500:]}")
        loaded.append(ms)
    return statistics.median(loaded) - statistics.median(bare), COLD_REPEATS


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def op_durations(child: dict) -> list[float]:
    return [op_ms for op_ms, _, counted in child["ops"] if counted]


def summarise(setups, cold, loop: dict, scaled: bool) -> dict:
    """End-to-end values, times scaled to the nominal machine speed of
    speed.py, or raw."""
    def at(value, ref_ms, nominal=NOMINAL_REF_MS):
        return value * nominal / ref_ms if scaled else value

    durations = [at(op_ms, ref_ms) for op_ms, ref_ms, counted in loop["ops"] if counted]
    busy_s = sum(at(op_ms, ref_ms) for op_ms, ref_ms, _ in loop["ops"]) / 1000
    ok = loop["statuses"].get(OK, 0)
    return {
        "setup_s": statistics.median(at(v, r, NOMINAL_START_MS) for v, r in setups),
        "ops_per_s": ok / busy_s,
        "op_p50_ms": statistics.median(durations),
        "op_p90_ms": percentile(durations, 90),
        "ok_frac": ok / len(durations),
        "peak_rss_mb": loop["peak_rss_mb"],
        "cli_cold_ms": statistics.median(at(v, r, NOMINAL_START_MS) for v, r in cold),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Metric -> (value, sample count, raw value), plus the timed child's result."""
    def setup_s(count):
        probes = [after_bare_start(lambda: run_child(workload, seed, "setup", 0, 60))
                  for _ in range(count)]
        return [(result["setup_s"], start_ms) for result, start_ms in probes]

    # Fresh-interpreter probes are split between before and after the timed
    # loop, so they sample the machine at both ends of the run.
    setups, cold = setup_s(SETUP_REPEATS // 2), cli_cold_ms(COLD_REPEATS // 2)
    loop = run_child(workload, seed, "loop", seconds, seconds + LOOP_GRACE_S)
    setups += setup_s(SETUP_REPEATS - len(setups))
    cold += cli_cold_ms(COLD_REPEATS - len(cold))
    scaled = summarise(setups, cold, loop, True)
    raw = summarise(setups, cold, loop, False)
    ops = len(op_durations(loop))
    counts = {"setup_s": len(setups), "peak_rss_mb": 1, "cli_cold_ms": len(cold)}
    return {name: (scaled[name], counts.get(name, ops), raw[name]) for name in scaled}, loop


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    """Metric -> (value, sample count, raw value), plus the traced child's result."""
    # Untraced and traced children alternate twice; the faster of each pair
    # gives the overhead.
    runs = {"pass": [], "traced": []}
    for _ in range(2):
        for mode, results in runs.items():
            results.append(run_child(workload, seed, mode, 0, PASS_TIMEOUT_S))
    traced = runs["traced"][-1]
    if any(r["digest"] != traced["digest"] for results in runs.values() for r in results):
        raise RunFailure(f"{workload}: traced outputs differ from untraced ones")
    fastest = {
        mode: min(sum(op_ms for op_ms, _, _ in r["ops"]) for r in results)
        for mode, results in runs.items()
    }
    metrics = dict(traced["layers"])
    metrics["cli.import_ms"] = cli_import_ms()
    metrics["trace.overhead_frac"] = (1 - fastest["pass"] / fastest["traced"],
                                      len(op_durations(traced)))
    return {name: (value, count, value) for name, (value, count) in metrics.items()}, traced


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_report(workload: str, seed: int, trace: int, metrics: dict, table, child: dict):
    statuses = child["statuses"]
    durations = op_durations(child)
    attempted = len(durations)
    failed = statuses.get(BUDGET, 0) + statuses.get(ERROR, 0)
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print(f"  machine: nproc {os.cpu_count()}, Python {platform.python_version()} "
          f"({platform.python_implementation()}), {platform.platform()}; git {git_sha()}")
    if trace == 0:
        refs = [ref_ms for _, ref_ms, _ in child["ops"]]
        print(f"  times scaled to a {NOMINAL_REF_MS} ms reference unit and a "
              f"{NOMINAL_START_MS} ms bare start (speed.py); measured reference median "
              f"{statistics.median(refs):.3f} ms")
    print(f"  {'metric':30s} {'value':>14s} {'unit':6s} {'n':>6s} {'raw':>14s}")
    for name, unit in table:
        value, count, raw = metrics[name]
        print(f"  {name:30s} {value:14.4f} {unit:6s} {count:6d} {raw:14.4f}")
    print(f"  outcomes {json.dumps(statuses, sort_keys=True)}; "
          f"fail_frac {failed / attempted:.4f} (n={attempted}); digest {child['digest']}")
    if trace == 0:
        beyond = sum(1 for d in durations if d > metrics["op_p90_ms"][2])
        short = "" if beyond >= 10 else " (fewer than 10: run longer for a sound p90)"
        print(f"  samples beyond op_p90_ms: {beyond}{short}")
    else:
        print(f"  spans written to {child['spans_file']}")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its report, return the result object."""
    if trace:
        metrics, child = per_layer(workload, seed)
        table = LAYER_METRICS
    else:
        metrics, child = end_to_end(workload, seed, seconds)
        table = END_TO_END
    print_report(workload, seed, trace, metrics, table, child)
    return {
        "correct": True,
        "attempted": len(op_durations(child)),
        "failed": child["statuses"].get(ERROR, 0),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in table},
    }


def pin_to_one_cpu():
    """Keep this process and every child on one CPU, so that reference
    timings and timed work run on the same core: cores of a shared machine
    slow down independently of each other."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "germinv" / "__init__.py").is_file():
        print(f"no germinv sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    pin_to_one_cpu()
    runs = ([(args.workload, args.trace)] if args.workload
            else [(w, t) for w in WORKLOADS for t in (0, 1)])
    results = {}
    try:
        for workload, trace in runs:
            results[(workload, trace)] = measure(workload, args.seed, args.seconds, trace)
    except RunFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if args.workload:
        print(json.dumps(results[(args.workload, args.trace)]))
    else:
        print(json.dumps({
            "correct": True,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for (w, _), r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
