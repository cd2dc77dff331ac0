"""Repository benchmark: one entry point, two workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine-knn --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes a traced run and prints every per-layer metric.  The
last line of standard output is the result object; the line before it is
the full report (provenance, sample counts, set-up timings, gates).  A
failed correctness gate prints the result with ``"correct": false`` and
exits 1; a checkout without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
#: Scratch space (indexes, durable homes) and span dumps, inside the checkout.
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "engine-knn": "engine_knn",
    "ingest-mixed": "ingest_mixed",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no program sources under {SRC} (or no {SPEC.name}); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())

    import importlib

    from common import Context, cpu_jiffies, reap_children, stop_resource_tracker
    from tracing import Tracer

    work = OUT / f"{args.workload}-{args.seed}-{'t' if args.trace else 'u'}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tracer = Tracer()
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  tracer=tracer, work=work)
    module = importlib.import_module(WORKLOADS[args.workload])
    steal0, total0 = cpu_jiffies()
    try:
        outcome = module.run(ctx)
    finally:
        tracer.uninstall()
        # Every process the run started has ended before anything prints.
        stop_resource_tracker()
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
    steal1, total1 = cpu_jiffies()
    # Time the hypervisor gave other guests: a noisy host shows here.
    outcome.report["host_steal_frac"] = (
        (steal1 - steal0) / max(total1 - total0, 1))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = outcome.layer if args.trace else outcome.metrics
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        raise SystemExit(
            f"metric set differs from {SPEC.name}: "
            f"missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    bad = [n for n in names if not math.isfinite(values[n])]
    if bad:
        raise SystemExit(f"non-finite metric values: {bad}")
    if args.trace:
        nesting_ok = tracer.nesting_ok()
        outcome.correct = outcome.correct and nesting_ok
        outcome.report["trace"] = {
            "nesting_ok": nesting_ok,
            "spans": len(tracer.spans),
            "self_times_phase_B": tracer.summary("B"),
            "self_times_phase_write": tracer.summary("write"),
        }
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        outcome.report["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
        for phase in ("B", "write"):
            for name, row in tracer.summary(phase).items():
                print(f"{phase:5s} {name:28s} calls={row['calls']:7d} "
                      f"total_ms={row['total_ms']:10.2f} "
                      f"self_ms={row['self_ms']:10.2f} "
                      f"per_call_ms={row['total_ms'] / row['calls']:8.4f}")
    print(json.dumps({"report": outcome.report}, default=float))
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    sys.stdout.flush()
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
