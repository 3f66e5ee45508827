"""One benchmark process: import ctxda from the checkout, then run whole
rounds of the workload's CLI calls (`synth`, then the pipeline) until the
time budget is spent.

The CLI runs in this process through ``ctxda.cli.main``; its standard output
is dropped, and the result goes to the JSON file named by ``--result``.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR \
        --seconds S --trace 0|1 --result FILE [--setup-only]

With ``--setup-only`` it runs `synth` once and exits, non-zero if `synth`
did; the parent times this as set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cli():
    """``ctxda.cli`` from the checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import ctxda.cli

    if Path(ctxda.__file__).resolve().parent != (SRC / "ctxda").resolve():
        raise SystemExit(f"ctxda imported from {ctxda.__file__}, not from {SRC}")
    return ctxda.cli


def run_cli(cli, argv: list[str]) -> tuple[int, float, float]:
    """(exit code, start, end) of one CLI call; its standard output is dropped."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, reported with its traceback
        traceback.print_exc()
        code = -1
    return code, start, time.perf_counter()


def run_round(cli, workload, seed: int, config_path: Path, out_dir: Path) -> dict:
    """One round: `synth`, untimed, then the timed pipeline."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    # The program's graphs are reference cycles, so the previous round's
    # predictions wait for the cyclic collector. A CLI user's process exits
    # instead; collect them here, untimed, so that every round starts clean.
    gc.collect()
    train_s = eval_s = 0.0
    first = last = None
    failed = 0
    commands = [("synth", ["--config", str(config_path), "synth"])]
    commands += workload.commands(seed, config_path, out_dir)
    for stage, argv in commands:
        code, start, end = run_cli(cli, argv)
        if code != 0:
            print(f"ctxda {' '.join(argv)} exited {code}", file=sys.stderr)
            failed += 1
        if stage == "synth":
            continue
        if stage == "train":
            train_s += end - start
        elif stage == "eval":
            eval_s += end - start
        first = start if first is None else first
        last = end
    return {"train_s": train_s, "eval_s": eval_s, "pipeline_s": last - first,
            "attempted": len(commands), "failed": failed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    corpus_dir, out_dir = args.work / "corpus", args.work / "round"
    config_path = args.work / "config.json"
    config_path.write_text(json.dumps(workload.config(args.seed, corpus_dir, out_dir), indent=1))
    if args.setup_only:
        code, *_ = run_cli(cli, ["--config", str(config_path), "synth"])
        # CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time
        args.result.write_text(json.dumps({"ready": time.monotonic()}))
        return int(code != 0)

    tracer = tracing.install() if args.trace else None
    result = {"attempted": 0, "failed": 0, "rounds": [], "errors": [], "faults": []}
    budget_start = time.perf_counter()
    walls = []
    while True:
        round_start = time.perf_counter()
        first_span = len(tracer.spans) if tracer else 0
        r = run_round(cli, workload, args.seed, config_path, out_dir)
        if not result["rounds"]:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            r["layers"] = tracing.layer_metrics(tracer.spans, first_span, len(tracer.spans))
        if r["failed"] == 0:
            # a wrong figure in the synth summary fails that operation, not the round
            fault = checks.check_synth(workload, corpus_dir)
            if fault:
                r["failed"] += 1
                if fault not in result["faults"]:
                    result["faults"].append(fault)
            errors, facts = checks.check_round(workload, corpus_dir, out_dir)
            result["errors"] += errors
            r.update(facts)
        result["attempted"] += r.pop("attempted")
        result["failed"] += r.pop("failed")
        result["rounds"].append(r)
        walls.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - budget_start
        if elapsed + statistics.median(walls) > args.seconds:
            break

    if tracer:
        tracer.uninstall()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
