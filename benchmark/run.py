"""signspectra benchmark: classify and CLI throughput on two workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from `src/` next to this
directory and nowhere else.  One process, one caller in a closed loop: the
next input starts when the previous one has returned.  BLAS is pinned to one
thread (SIGNSPECTRA_THREADS=1 and the thread variables it sets) before numpy
loads.  Inputs come from `--seed` (see workloads.py); every output is checked.

With --trace 0 the end-to-end metrics are measured with nothing wrapped.
With --trace 1 every pass runs twice, once plain and once with spans
recorded (the order alternates), which gives the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable report.  Results and spans are also saved under benchmark/out/.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracing import MODULES, SETUP_INPUT, SpanRecorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("odd-cycle-family", "cli-corpus")
THREAD_VARS = ("SIGNSPECTRA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")

# set-up is timed this many times in fresh interpreters, plus once in-process.
SETUP_PROBES = 12
# The tail is the highest of these percentiles with at least MIN_BEYOND
# inputs above it.  Every run times each input of its workload, so the
# choice is fixed: p95, of 576 inputs on odd-cycle-family and of 208 on
# cli-corpus.
PERCENTILES = (50, 75, 90, 95, 99)
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "matrices_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COUNTED = (
    "wsets.enumerate_w_candidates", "wsets.build_w_hat", "wsets.is_transitive",
    "exterior.compound2", "signsym.sign_constraint_graph",
    "digraph.is_irreducible", "digraph.imprimitivity_index", "core.as_matrix",
)
TIMED = (
    "wsets.enumerate_w_candidates", "wsets.build_w_hat", "wsets.is_transitive",
    "exterior.compound2", "signsym.sign_constraint_graph", "signsym.detect",
    "digraph.is_irreducible", "digraph.imprimitivity_index",
    "spectral.eigenvalues", "spectral.classify",
)
# Layers whose functions run in the timed passes of every workload.  `gen`
# runs in set-up (see gen.generate.*) and `cli` only on cli-corpus; the
# report and the result file give the self time of every function reached.
TIMED_LAYERS = ("core", "exterior", "signsym", "digraph", "wsets", "spectral")
COUNTERS = (
    "exterior.compound2.entries_computed", "wsets.jxjt_combinations",
    "wsets.unique_w_sets",
)


def per_layer_units() -> dict:
    """Name and unit of every per-layer metric, in report order."""
    units = {f"{name}.calls": "count" for name in COUNTED}
    units.update({f"{name}.self_ms": "ms" for name in TIMED})
    units.update({f"{layer}.self_ms": "ms" for layer in TIMED_LAYERS})
    units.update({name: "count" for name in COUNTERS})
    units["wsets.unique_ratio"] = "ratio"
    units["gen.generate.self_ms"] = "ms"
    units["gen.generate.total_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


def pin_threads() -> dict:
    """Pin BLAS to one thread; return the thread variables as they were."""
    before = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return before


def setup(workload: str, seed: int, recorder=None):
    """Import the package and generate every input; returns the modules, the
    passes, their matrices and the elapsed seconds."""
    start = perf_counter()
    modules = {name: importlib.import_module(f"signspectra.{name}") for name in MODULES}
    import workloads

    if recorder is not None:
        recorder.install(modules)
    try:
        plan = workloads.passes(workload, seed)
        matrices = [[modules["gen"].generate(case.spec) for case in cases] for cases in plan]
    finally:
        if recorder is not None:
            recorder.restore()
    elapsed = perf_counter() - start
    where = Path(modules["core"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"signspectra was imported from {where}, not from {SRC}")
    return modules, plan, matrices, elapsed


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def classify_input(modules, case, matrix, files):
    """Time `spectral.classify` on one matrix."""
    start = perf_counter()
    c = modules["spectral"].classify(matrix)
    elapsed = perf_counter() - start
    return elapsed, c.theorem, c.verified, c.verdict(), []


def _cli(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def cli_input(modules, case, matrix, files):
    """Time in-process `verify-corpus` on the input's spec, then `analyze`
    on its matrix file."""
    manifest, matrix_path = files
    cli = modules["cli"]
    start = perf_counter()
    code_corpus, corpus_text = _cli(cli.main, ["verify-corpus", manifest])
    code_analyze, analyze_text = _cli(cli.main, ["analyze", matrix_path])
    elapsed = perf_counter() - start
    corpus = json.loads(corpus_text)["results"][0]
    report = json.loads(analyze_text)["classification"]
    problems = []
    if code_corpus != 0 or code_analyze != 0:
        problems.append(f"exit codes {code_corpus} (verify-corpus), {code_analyze} (analyze)")
    if not corpus["ok"] or corpus["theorem"] != report["theorem"]:
        problems.append(f"verify-corpus says {corpus['theorem']} ok={corpus['ok']}")
    verdict = (
        report["theorem"],
        sorted(report["facts"].items()),
        [(p["claim"], p["verified"]) for p in report["predictions"]],
    )
    return elapsed, report["theorem"], report["verified"], verdict, problems


def run_pass(run_input, modules, cases, matrices, files, recorder=None, first_id=0):
    """Run one pass and check every output.  Returns the latency of each
    input that completed, by its position in the pass, and a message per
    failed input."""
    latencies, verdicts, problems = {}, [], {}
    for k, case in enumerate(cases):
        if recorder is not None:
            recorder.input_id = first_id + k
        try:
            elapsed, theorem, verified, verdict, found = run_input(
                modules, case, matrices[k], files[k])
        except Exception as exc:  # an input that raises is a failed input
            verdicts.append(None)
            problems[k] = [f"{type(exc).__name__}: {exc}"]
            continue
        latencies[k] = elapsed
        verdicts.append(verdict)
        if not verified:
            found.append("classification not verified")
        if case.label is not None and theorem != case.label:
            found.append(f"label {theorem}, expected {case.label}")
        if found:
            problems[k] = found
    for k, case in enumerate(cases):
        if verdicts[k] != verdicts[case.twin]:
            problems.setdefault(k, []).append("verdict differs from its scrambled twin's")
    messages = [f"{cases[k].spec.to_json()}: {'; '.join(p)}" for k, p in sorted(problems.items())]
    return latencies, messages


def write_cli_files(plan, matrices, work: Path) -> list:
    """One single-spec manifest and one JSON matrix file per input."""
    files = []
    for p, (cases, mats) in enumerate(zip(plan, matrices)):
        row = []
        for k, (case, m) in enumerate(zip(cases, mats)):
            manifest = work / f"spec_{p}_{k}.json"
            manifest.write_text(json.dumps([case.spec.to_dict()]))
            matrix = work / f"matrix_{p}_{k}.json"
            matrix.write_text(json.dumps({"n": int(m.shape[0]), "rows": m.tolist()}))
            row.append((str(manifest), str(matrix)))
        files.append(row)
    return files


def tail(latencies) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile, by nearest rank,
    that leaves at least MIN_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (100.0, ordered[-1])
    for p in PERCENTILES:
        rank = max(1, math.ceil(round(p * n / 100, 9)))
        if n - rank >= MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def git_commit() -> str:
    """The commit of the checkout, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(threads_before: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_before": threads_before,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def layer_metrics(recorder, inputs: int, setup_inputs: int, traced_s: float,
                  plain_s: float) -> dict:
    selfs = recorder.self_times()
    calls = recorder.call_counts()
    values = {f"{name}.calls": calls[name] / inputs for name in COUNTED}
    values.update({
        f"{name}.self_ms": 1000 * selfs.get((name, False), 0.0) / inputs for name in TIMED
    })
    for layer in TIMED_LAYERS:
        total = sum(v for (name, in_setup), v in selfs.items()
                    if not in_setup and name.split(".")[0] == layer)
        values[f"{layer}.self_ms"] = 1000 * total / inputs
    values.update({name: recorder.counters[name] / inputs for name in COUNTERS})
    combos = recorder.counters["wsets.jxjt_combinations"]
    values["wsets.unique_ratio"] = (
        recorder.counters["wsets.unique_w_sets"] / combos if combos else 0.0
    )
    values["gen.generate.self_ms"] = (
        1000 * selfs.get(("gen.generate", True), 0.0) / setup_inputs
    )
    values["gen.generate.total_ms"] = 1000 * sum(
        end - start for name, start, end, parent, input_id in recorder.spans
        if name == "gen.generate" and parent == -1 and input_id == SETUP_INPUT
    ) / setup_inputs
    values["trace.overhead_ratio"] = traced_s / plain_s
    return values


def self_ms_by_function(recorder, inputs: int) -> dict:
    """Self ms per input of every function reached in the traced passes,
    including those that only some workloads reach."""
    return {name: 1000 * total / inputs
            for (name, in_setup), total in sorted(recorder.self_times().items())
            if not in_setup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print the seconds")
    args = parser.parse_args(argv)

    if not (SRC / "signspectra" / "__init__.py").is_file():
        print(f"error: no signspectra package under {SRC}", file=sys.stderr)
        return 2
    threads_before = pin_threads()
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(setup(args.workload, args.seed)[3])
        return 0

    traced = bool(args.trace)
    recorder = SpanRecorder() if traced else None
    # Half of the fresh-interpreter set-ups run before the timed passes and
    # half after them, so that they see the machine at two moments.
    setup_samples = [] if traced else [probe_setup(args.workload, args.seed)
                                       for _ in range(SETUP_PROBES // 2)]
    modules, plan, matrices, own_setup = setup(args.workload, args.seed, recorder)
    setup_samples.append(own_setup)
    setup_inputs = sum(len(cases) for cases in plan)

    run_input = cli_input if args.workload == "cli-corpus" else classify_input
    OUT.mkdir(exist_ok=True)
    plain, traced_lat, failures = [], [], []
    repeats = defaultdict(list)  # plain latencies of each input, by (pass, position)
    attempted = traced_inputs = 0
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        if args.workload == "cli-corpus":
            files = write_cli_files(plan, matrices, Path(work))
        else:
            files = [[None] * len(cases) for cases in plan]
        try:  # warm-up; should it raise, the same input fails, and counts, below
            run_input(modules, plan[0][0], matrices[0][0], files[0][0])
        except Exception:
            pass

        # Whole rounds only: a round runs every pass of the plan once, so
        # every run has the same mix of inputs.  A round starts only if one
        # more fits in the time left.
        start = perf_counter()
        p = rounds = 0
        while True:
            for v in range(len(plan)):
                sides = [False] if not traced else ([False, True] if p % 2 == 0 else [True, False])
                for with_spans in sides:
                    if with_spans:
                        recorder.install(modules)
                    try:
                        lat, messages = run_pass(
                            run_input, modules, plan[v], matrices[v], files[v],
                            recorder if with_spans else None, traced_inputs)
                    finally:
                        if with_spans:
                            recorder.restore()
                    (traced_lat if with_spans else plain).extend(lat.values())
                    if not with_spans:
                        for k, elapsed in lat.items():
                            repeats[v, k].append(elapsed)
                    failures.extend(messages)
                    attempted += len(plan[v])
                    traced_inputs += len(plan[v]) if with_spans else 0
                p += 1
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break
        if not traced:
            setup_samples.extend(probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES // 2))

    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    if not plain or (traced and not traced_lat):
        print("error: no input completed, so there is nothing to measure", file=sys.stderr)
        return 1
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}:"
             f" {attempted} inputs in {rounds} rounds of {len(plan)} passes"
             f"{', each pass run plain and traced' if traced else ''},"
             f" {len(failures)} failed"
             f" (failed_ratio {len(failures) / attempted})"]
    if traced:
        values = layer_metrics(recorder, traced_inputs, setup_inputs,
                               sum(traced_lat), sum(plain))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        by_function = self_ms_by_function(recorder, traced_inputs)
        lines.append("self ms per input of every function reached in the traced passes:")
        lines.extend(f"  {name:45s} {ms:.6g}" for name, ms in by_function.items())
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"
        recorder.write(spans_path)
        lines.append(f"{len(recorder.spans)} spans written to {spans_path}")
    else:
        # The host's speed switches between fast and slow phases within a
        # run; a percentile of single samples jumps between the phases, while
        # each input's mean over its repeats moves smoothly with their mix.
        input_means = [statistics.fmean(times) for times in repeats.values()]
        pct, tail_s = tail(input_means)
        values = {
            "matrices_per_s": len(plain) / sum(plain),
            "latency_p50_ms": 1000 * statistics.median(input_means),
            "latency_tail_ms": 1000 * tail_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        lines.append(f"latency_p50_ms and latency_tail_ms are p50 and p{pct:g} of"
                     f" {len(input_means)} inputs, each timed as the mean of its repeats"
                     f" ({len(plain)} samples)")
        lines.append(f"setup_s is the median of {len(setup_samples)} set-ups")
    for name, m in metrics.items():
        lines.append(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    env = environment(threads_before)
    result["metrics"] = metrics
    saved = {**result, "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "env": env,
             "failures": failures[:50]}
    if traced:
        saved["self_ms_by_function"] = by_function
    else:
        saved["latency_tail_percentile"] = pct
        saved["latency_inputs"] = len(input_means)
        saved["latency_samples"] = len(plain)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(saved, indent=2) + "\n")

    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
