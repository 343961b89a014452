"""EmoLeak repository benchmark: one command, four workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload collect --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness --workload all --repeats 10

A run sets up its workload, measures it for ``--seconds`` and prints a
readable table followed, as the last line, by one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics from a traced run and writes the spans to
``perfbench/_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before anything imports numpy: threaded
# OpenBLAS makes identical fits differ by >10 % on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("collect", "train", "serve-features", "serve-windows")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(args):
    from harness import pin_cpus

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program to measure: {os.path.relpath(SRC, ROOT)}/repro is missing")
    gen_cpu = pin_cpus()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import repro.attack.engine  # noqa: F401
    import repro.eval.experiment  # noqa: F401
    import repro.serve  # noqa: F401

    import_s = time.perf_counter() - t0
    spec = load_spec()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "collect":
            import collect

            outcome = collect.run(args.seed, args.seconds, args.trace, workdir, args.inject_fault)
        elif args.workload == "train":
            import train

            outcome = train.run(args.seed, args.seconds, args.trace, workdir, args.inject_fault)
        else:
            import serve

            outcome = serve.run(
                args.seed, args.seconds, args.trace, workdir, args.workload,
                args.inject_fault, gen_cpu,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        outcome.layers["import_s"] = import_s
        declared = spec["per_layer"]
        values = outcome.layers
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.jsonl")
        outcome.recorder.dump(trace_path)
    else:
        declared = spec["end_to_end"]
        values = outcome.metrics
    # Per-layer metrics of layers this workload does not run read 0.
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in values.items():
        print(f"#   {name:<48} {value:>14.6g} {units.get(name, '(undeclared)')}")
    for name, values in outcome.samples.items():
        print(f"#   samples {name}: {values}")
    if args.trace:
        print(f"#   spans written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))


def steadiness(args):
    """Repeat each workload on one commit and print spread against its bound."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else args.workload.split(",")
    seconds = args.seconds or spec["run_seconds"]
    worst = {}
    for workload in workloads:
        runs = []
        for k in range(args.repeats):
            seed = args.seed + k
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%} "
                  f"{bound:>6.0%}{flag}")
            if name != "setup_s":
                worst[f"{workload}/{name}"] = spread / bound
        print(flush=True)
    name, ratio = max(worst.items(), key=lambda item: item[1])
    print(f"largest spread against its bound: {name} at {ratio:.2f} of the bound")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)} (steadiness: a list or 'all')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one expected output, to show the checks catch it")
    parser.add_argument("--steadiness", action="store_true",
                        help="repeat each workload --repeats times and print the spreads")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--write-digests", action="store_true",
                        help="recompute the committed collect digests")
    args = parser.parse_args(argv)
    if args.steadiness:
        steadiness(args)
    elif args.write_digests:
        sys.path.insert(0, SRC)
        import collect

        print(collect.write_digests())
    else:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        run_workload(args)


if __name__ == "__main__":
    main()
