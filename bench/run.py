#!/usr/bin/env python3
"""rieszlab benchmark: end-to-end times per workload, or per-layer spans.

    python3 bench/run.py --workload chart_riesz --seed 1 --seconds 10 --trace 0

runs whole passes of the workload's operations until `--seconds` have
elapsed (at least one pass), checks every output, and prints as its last
line one JSON object: correct, attempted, failed and metrics. With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` the layer modules are wrapped (see layer_trace.py) and the
metrics are the per-layer ones. `--workload all` runs every workload in
turn, each in its own process, and prints their metrics under the names
given in bench/README.md. Results and spans are written to bench/out/.

The program is imported from the checkout's src/ directory, single
threaded: QuadratureConfig.threads = 1 and one BLAS thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("chart_riesz", "ks_static", "ks_flow", "degeneration")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def _import_program():
    """Import rieszlab from the checkout's src/, or exit if it is absent."""
    if not (SRC / "rieszlab" / "__init__.py").is_file():
        sys.exit(f"bench: no rieszlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rieszlab
    if Path(rieszlab.__file__).resolve().parent != (SRC / "rieszlab").resolve():
        sys.exit(f"bench: imported rieszlab from {rieszlab.__file__}, "
                 f"not from {SRC}")
    return rieszlab


def setup_probe(workload, seed):
    """Seconds from importing rieszlab to the workload's inputs being built."""
    start = time.perf_counter()
    _import_program()
    import workloads
    workloads.WORKLOADS[workload].build(seed)
    return time.perf_counter() - start


def measure_setup(workload, seed):
    """(start, end, seconds) of each setup probe, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"bench: setup probe failed:\n{proc.stderr}")
        samples.append((start, time.perf_counter(),
                        float(proc.stdout.strip().splitlines()[-1])))
    return samples


def _check_pass(ops, results, failures, details):
    for op in ops:
        res = results[op.name]
        if isinstance(res, Exception):
            ok, detail = False, f"raised {type(res).__name__}: {res}"
        else:
            try:
                ok, detail = op.check(res, results)
            except Exception as exc:  # a malformed result fails its check
                ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
        failures[op.name] += 0 if ok else 1
        details.setdefault(op.name, detail)


def run_workload(name, seed, seconds, trace):
    """Whole passes for `seconds`, checked; print the report and the result."""
    import speed
    speed.pin_to_one_cpu()
    with speed.SpeedSampler() as sampler:
        setup = [] if trace else measure_setup(name, seed)
        _import_program()
        import workloads
        wl = workloads.WORKLOADS[name]
        ops = wl.ops(wl.build(seed))
        tracer = None
        if trace:
            import layer_trace
            tracer = layer_trace.Tracer()
            tracer.install()

        spans_by_pass, results_by_pass = [], []
        failures = {op.name: 0 for op in ops}
        details = {}
        start = time.perf_counter()
        while not spans_by_pass or time.perf_counter() - start < seconds:
            spans, results = {}, {}
            for op in ops:
                t0 = time.perf_counter()
                try:
                    results[op.name] = op.fn(results)
                except Exception as exc:  # a raising operation is a failed one
                    results[op.name] = exc
                spans[op.name] = (t0, time.perf_counter())
            if tracer is not None:
                tracer.end_pass(sum(e - s for s, e in spans.values()))
            _check_pass(ops, results, failures, details)
            spans_by_pass.append(spans)
            results_by_pass.append(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op_times(spans, scaled):
        return {k: (e - s) * (sampler.scale(s, e) if scaled else 1.0)
                for k, (s, e) in spans.items()}

    def median_named(scaled):
        per_pass = [wl.named(op_times(spans, scaled), results)
                    for spans, results in zip(spans_by_pass, results_by_pass)]
        return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

    named, raw_named = median_named(True), median_named(False)
    passes = len(spans_by_pass)
    unexpected = [k for k, v in failures.items()
                  if v and k not in workloads.KNOWN_FAULTS]
    if trace:
        metrics = tracer.metrics()
    else:
        setup_s = statistics.median(v * sampler.scale(s, e) for s, e, v in setup)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "primary_s": {"value": named[wl.primary], "unit": "s"},
            "secondary_s": {"value": named[wl.secondary], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "passes": passes,
        "pass_s": statistics.median(sum(op_times(spans, False).values())
                                    for spans in spans_by_pass),
        "scaled_pass_s": statistics.median(sum(op_times(spans, True).values())
                                           for spans in spans_by_pass),
        "named_metrics": {k: {"value": v, "unit": "s"} for k, v in named.items()},
        "raw_named_metrics": {k: {"value": v, "unit": "s"}
                              for k, v in raw_named.items()},
        "operations": [{"name": op.name, "attempted": passes,
                        "failed": failures[op.name],
                        "known_fault": op.name in workloads.KNOWN_FAULTS,
                        "detail": details[op.name]} for op in ops],
    }
    if trace:
        report["layer_shares"] = tracer.shares()
        report["unwrapped"] = tracer.missing
    result = {"correct": not unexpected, "attempted": passes * len(ops),
              "failed": sum(failures.values()), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    tag = f"{name}_seed{seed}_trace{int(trace)}"
    (OUT / f"result_{tag}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    if trace:
        (OUT / f"trace_{tag}.json").write_text(json.dumps(tracer.span_records()))
    print(json.dumps(report))
    for op in report["operations"]:
        if op["failed"]:
            kind = "known fault" if op["known_fault"] else "UNEXPECTED"
            print(f"failed ({kind}): {op['name']}: {op['detail']}")
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Every workload in its own process; a summary under the named metrics."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} failed:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[0]), json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        print(f"{name}: {result['attempted']} attempted, {result['failed']} "
              f"failed, correct {result['correct']}, {report['passes']} passes")
        metrics = dict(result["metrics"]) if trace else {
            "setup_s": result["metrics"]["setup_s"],
            "peak_rss_mb": result["metrics"]["peak_rss_mb"],
            **report["named_metrics"]}
        for key, m in metrics.items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
            summary["metrics"][f"{name}.{key}"] = m
        for line in lines[1:-1]:
            print(f"  {line}")
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
    elif args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
