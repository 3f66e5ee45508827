"""Benchmark of the ctxda pipeline: synth -> train NC -> train WC -> eval -> analyze.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Untraced runs report
the end-to-end metrics, traced runs (``--trace 1``) the per-layer ones.

An untraced run times set-up (process start, ``import ctxda``,
``ctxda synth``) over SETUP_PROBES fresh processes. The pipeline then runs
in one more process, in whole rounds (``synth``, then ``train``, ``eval``
and ``analyze``) until ``--seconds`` is spent; each timing is the median
over rounds. A traced run splits its time over four processes, untraced and
traced in turn; the difference of their median ``pipeline_s`` is
``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402  (stdlib only; numpy stays out of this process)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0  # every process this run starts must have ended by then
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "train_s": "s", "eval_s": "s", "pipeline_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def spawn(worker_args: list[str], result: Path, started: float) -> dict:
    """Run one worker process to its end and return its result; a setup-only
    worker's ``ready`` is the end of its `synth`."""
    env = {**os.environ, "PYTHONHASHSEED": "0", **{k: "1" for k in BLAS_THREADS}}
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args, "--result", str(result)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, DEADLINE_S - (spawned - started)))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker did not finish in time: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    res = json.loads(result.read_text())
    if "ready" in res:
        res["setup_s"] = res["ready"] - spawned
    return res


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def layer_report(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    rounds = [r["layers"] for res in traced for r in res["rounds"]]
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_s":
            out[name] = (median_of([r for res in traced for r in res["rounds"]], "pipeline_s")
                         - median_of([r for res in untraced for r in res["rounds"]], "pipeline_s"))
        elif name == "cli.eval_rss_growth_mb":  # only a fresh heap shows it
            out[name] = statistics.median(res["rounds"][0]["layers"][name] for res in traced)
        else:
            out[name] = statistics.median(r[name] for r in rounds)
    return out


def bench(args, work: Path) -> dict:
    started = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    setup = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            res = spawn(common + ["--seconds", "0", "--setup-only"],
                        work / f"setup{k}.json", started)
            setup.append(res["setup_s"])

    # traced and untraced processes alternate, so drift of the host's speed
    # and the cost of a fresh heap fall on both sides alike
    plans = [0, 1] * 2 if args.trace else [0]
    results: dict[int, list[dict]] = {0: [], 1: []}
    for k, trace in enumerate(plans):
        res = spawn(common + ["--seconds", str(args.seconds / len(plans)),
                              "--trace", str(trace)],
                    work / f"pipeline{k}.json", started)
        results[trace].append(res)

    everything = results[0] + results[1]
    attempted = sum(res["attempted"] for res in everything)
    failed = sum(res["failed"] for res in everything)
    rounds = [r for res in everything for r in res["rounds"]]
    errors = [e for res in everything for e in res["errors"]]
    faults = sorted({f for res in everything for f in res["faults"]})
    digests = {r.get("digest") for r in rounds}
    if len(digests) != 1 or None in digests:
        errors.append(f"deterministic outputs differ between rounds: {sorted(map(str, digests))}")
    if args.trace:
        metrics = {name: (value, LAYER_METRICS[name])
                   for name, value in layer_report(results[1], results[0]).items()}
    else:
        untraced = results[0][0]
        values = {"setup_s": statistics.median(setup),
                  "train_s": median_of(untraced["rounds"], "train_s"),
                  "eval_s": median_of(untraced["rounds"], "eval_s"),
                  "pipeline_s": median_of(untraced["rounds"], "pipeline_s"),
                  "peak_rss_mb": untraced["peak_rss_mb"]}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    facts = rounds[0] if rounds else {}
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} CLI calls, {failed} failed")
    if "digest" in facts:
        print(f"accuracy NC {facts['nc_accuracy']:.2f}% WC {facts['wc_accuracy']:.2f}% "
              f"(bayes no-context bound {100 * facts['bayes_bound']:.2f}%)")
        print(f"digest {facts['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for f in faults:
        print(f"operation failed in every round: {f}", file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the ctxda pipeline.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="time to spend in whole rounds (default 35, as in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ctxda" / "__init__.py").is_file():
        print(f"error: no ctxda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "_runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
