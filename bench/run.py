"""Run one ramcalc benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: ramcalc is imported from the
checkout's `src/`, never from an installed copy, and without it the
script exits with code 2.  `RAMCALC_THREADS` is removed from the
environment, so the serial paths ramcalc ships by default are measured,
and the script re-executes itself once under a fixed PYTHONHASHSEED.

The workload's input set is run in passes until the next pass would
overrun `--seconds` (at least one pass).  With `--trace 0` the passes are
untraced and the result carries every end-to-end metric named in
BENCHMARK.json; with `--trace 1` untraced and traced passes alternate
and the result carries every per-layer metric instead.  Every execution
is checked: the first pass against the known answers, every other one
(traced ones included) for identical verdicts, output bytes and exact
counters.

Standard output ends with two JSON lines: a report (environment, the
inputs the seed chose, per-item times and errors, exact counters) and
the result line {"correct", "attempted", "failed", "metrics"}.  A traced
run also writes its spans to .bench_traces/.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"

WORKLOADS = ("verify-artifacts", "contract-ladder", "search-sweep")

# str hashes fix the layout of every dict and set, and with it the speed
# of the rule-graph search: the trace sweep's time differs by up to 1.8x
# between interpreters with random hash seeds
HASH_SEED = "0"

# set-up is what every `ramcalc` invocation pays: a fresh interpreter
# imports the CLI and builds Q(zeta_5), the first call into sympy
SETUP_RUNS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ramcalc.cli; "
    "from ramcalc.exact import NumberField; print(NumberField.cyclotomic_field(5))"
)

# exact counts taken from public return values, in every mode
COUNTERS = (
    "contract.max_coeff_bits",
    "contract.steps",
    "contract.cap_hits",
    "relation.nodes_reached",
    "sunit.smooth_values",
    "belyi.tuples_found",
    "cli.output_bytes",
)


def measure_setup(runs: int) -> list:
    """Wall time of `runs` fresh set-up interpreters, after one untimed
    run that compiles bytecode and warms the file cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    times = []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "Q(zeta_5)":
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-400:]}")
        if i:
            times.append(elapsed)
    return times


class Record:
    """Every execution of a workload's items in one run.

    Results are kept for the first pass only, for the known-answer
    checks; every later execution is reduced at once to its summary,
    which must equal the first pass's, so memory does not grow with the
    number of passes.
    """

    def __init__(self, workload):
        self.workload = workload
        n = len(workload.items)
        self.first: list = []
        self.summaries: list = []
        self.counters: dict = {}
        self.times = [[] for _ in range(n)]  # untraced executions only
        self.walls = {False: [], True: []}
        self.runs = [0] * n
        self.mismatches = [0] * n
        self.notes: list = []

    def run_pass(self, tracer=None):
        items = self.workload.items
        traced = tracer is not None
        state: dict = {}
        results = []
        first_item = len(self.walls[True]) * len(items)  # span item ids stay unique across passes
        gc.collect()
        start = time.perf_counter()
        for i, item in enumerate(items):
            if traced:
                tracer.item = first_item + i
            t0 = time.perf_counter()
            try:
                result = item.run(state)
            except Exception as exc:  # a failing input is counted as an error, the run goes on
                result = exc
            if not traced:
                self.times[i].append(time.perf_counter() - t0)
            results.append(result)
        self.walls[traced].append(time.perf_counter() - start)
        label = f"pass {len(self.walls[False]) + len(self.walls[True]) - 1}" + (" (traced)" if traced else "")
        if not self.first:
            self.first = results
            self.summaries = [item.summary(r) for item, r in zip(items, results)]
            self.counters = self.workload.counters(results)
        elif self.workload.counters(results) != self.counters:
            self.notes.append(f"{label}: counters differ from pass 0")
        for i, (item, result) in enumerate(zip(items, results)):
            self.runs[i] += 1
            if self.runs[i] > 1 and item.summary(result) != self.summaries[i]:
                self.mismatches[i] += 1
                self.notes.append(f"{item.name}: {label} differs from pass 0")

    def evaluate(self) -> dict:
        """Known-answer checks on pass 0; wrong executions and inputs.

        An input is wrong when its pass-0 result fails the check or any
        later execution differs from it.
        """
        wrong = {}
        for item, result in zip(self.workload.items, self.first):
            try:
                msg = item.check(result, self.first)
            except Exception as exc:  # a check that cannot run counts the input as wrong
                msg = f"check raised {type(exc).__name__}: {exc}"
            if msg:
                wrong[item.name] = msg
        items = self.workload.items
        failed = sum(
            runs if item.name in wrong else bad
            for item, runs, bad in zip(items, self.runs, self.mismatches)
        )
        wrong_inputs = sum(item.name in wrong or bad > 0 for item, bad in zip(items, self.mismatches))
        counters = dict.fromkeys(COUNTERS, 0)
        counters.update(self.counters)
        return {
            "attempted": sum(self.runs),
            "failed": failed,
            "decided_share": sum(bool(item.decided(r)) for item, r in zip(items, self.first)) / len(items),
            "correct_share": 1 - wrong_inputs / len(items),
            "wrong": wrong,
            "counters": counters,
        }


def measure(workload, seconds: float, tracer=None) -> Record:
    """Untraced passes, or untraced/traced pairs when a tracer is given,
    until the next round would end after `seconds`."""
    rec = Record(workload)
    start = time.perf_counter()
    while True:
        rec.run_pass()
        if tracer is not None:
            with tracer:
                rec.run_pass(tracer)
        round_s = sum(statistics.median(w) for w in rec.walls.values() if w)
        if time.perf_counter() - start + round_s > seconds:
            return rec


def end_to_end_metrics(rec: Record, verdict: dict, setup_times: list, peak_rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(rec.walls[False]),
        # an input's time to verdict is the median of its timings
        "item_s.max": max(statistics.median(t) for t in rec.times),
        "decided_share": verdict["decided_share"],
        "correct_share": verdict["correct_share"],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(rec: Record, tracer: Tracer, counters: dict) -> dict:
    n = len(rec.walls[True])
    totals = tracer.layer_totals()
    m = {}
    for name in NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls / n
        m[f"{name}.self_s"] = self_s / n
    m.update(counters)
    m["sympy.factor_list.max_input_bits"] = tracer.factor_input_bits
    cofactors = totals.get("contract.build_cofactor", (0, 0.0))[0]
    m["contract.useful_attempt_ratio"] = len(tracer.step_coeff_bits) / cofactors if cofactors else 0.0
    m["contract.coeff_bits.sum"] = sum(tracer.step_coeff_bits) / n
    supports = tracer.calls_under("belyi.vandermonde_exponents", "belyi.search_smooth_tuples") / n
    m["belyi.hit_ratio"] = counters["belyi.tuples_found"] / supports if supports else 0.0
    traced_wall = statistics.median(rec.walls[True])
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - statistics.median(rec.walls[False])
    return m


def environment(seed: int) -> dict:
    import sympy

    import ramcalc
    from ramcalc import exact

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "sympy": sympy.__version__,
        "ramcalc": ramcalc.__version__,
        "rational_backend": f"{exact.RAT.__module__}.{exact.RAT.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def build_workload(name: str, seed: int, tmp_dir: Path):
    import workloads
    from ramcalc import manifest, relation

    expected = workloads.load_expected()
    if name == "verify-artifacts":
        return workloads.verify_artifacts(seed, expected, SRC / "ramcalc" / "data", tmp_dir)
    if name == "contract-ladder":
        return workloads.contract_ladder(seed, expected)
    store = relation.RuleStore.load(manifest.bundled_text("rules.store"))
    return workloads.search_sweep(seed, expected, store)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if not (SRC / "ramcalc" / "__init__.py").is_file():
        print(f"bench: no ramcalc sources at {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("RAMCALC_THREADS", None)

    setup_times = [] if args.trace else measure_setup(SETUP_RUNS)

    sys.path.insert(0, str(SRC))
    import ramcalc.cli
    from ramcalc.exact import NumberField

    if Path(ramcalc.__file__).resolve().parent != (SRC / "ramcalc").resolve():
        print(f"bench: imported ramcalc from {ramcalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    NumberField.cyclotomic_field(5)

    tmp_dir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        workload = build_workload(args.workload, args.seed, tmp_dir)
        tracer = Tracer() if args.trace else None
        rec = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        verdict = rec.evaluate()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(rec, tracer, verdict["counters"])
        section = "per_layer"
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(trace_file, "wt") as f:
            json.dump(tracer.dump(), f, separators=(",", ":"))
    else:
        metrics = end_to_end_metrics(rec, verdict, setup_times, peak_rss_mb)
        section = "end_to_end"
        trace_file = None
    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(metrics) ^ set(units))}")

    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "inputs": workload.inputs,
        "passes": {"untraced": len(rec.walls[False]), "traced": len(rec.walls[True])},
        "setup_runs_s": setup_times,
        "counters": verdict["counters"],
        # the median input's time is reported, not gated: on a shared
        # 2-core machine a ~10 ms input can read up to 1.7x slower in one
        # interpreter than in the next, beyond any bound BENCHMARK.json allows
        "item_s_p50": statistics.median(statistics.median(t) for t in rec.times),
        "items": [
            {
                "name": item.name,
                "runs": len(times),
                "median_s": statistics.median(times),
                "decided": bool(item.decided(result)),
                "error": verdict["wrong"].get(item.name),
            }
            for item, times, result in zip(workload.items, rec.times, rec.first)
        ],
        "notes": rec.notes,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": verdict["failed"] == 0 and not rec.notes,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
