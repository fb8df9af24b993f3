"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload crowd-bp-eai --seed 1 --seconds 20 --trace 0

Run from the repository root.  After set-up, the workload repeats passes of
its fixed job until ``--seconds`` have passed (at least two passes, so that
repeated passes can be compared), then checks the outputs.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is a report with
the machine facts and further detail.  A traced run also writes its spans to
``.bench_build/perfbench/``.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from importlib.metadata import version
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2


def end_to_end(wl) -> dict[str, float]:
    return {
        "setup_s": wl.setup_s,
        "step_p50_s": wl.step_p50_s(),
        "loop_s": median(wl.passes),
        "accuracy": wl.accuracy,
        "ok_frac": (wl.attempted - wl.failed) / wl.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from layers import per_layer
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer(f"{args.workload}-s{args.seed}") if args.trace else None
    try:
        wl.setup()
        if tracer is not None:
            wl.instrument(tracer)
        try:
            start = time.perf_counter()
            while len(wl.passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                if wl.attempted and wl.failed == wl.attempted:
                    break  # nothing succeeds; stop rather than spin
                gc.collect()
                wl.run_pass()
            measured_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        wl.finish()
    finally:
        wl.close()
    if not wl.steps:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    e2e = end_to_end(wl)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(wl.passes),
        "steps": len(wl.steps),
        "step_s": [round(e - s, 4) for s, e in wl.steps],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "pandas", "pyspark")},
        **wl.context,
        **wl.report,
    }
    if tracer is None:
        metrics, section = e2e, "end_to_end"
    else:
        metrics, section = per_layer(tracer, wl, measured_s), "per_layer"
        report["traced_end_to_end"] = e2e
        out = ROOT / ".bench_build" / "perfbench" / f"trace-{tracer.run_id}.json"
        tracer.write(out)
        report["trace_file"] = str(out.relative_to(ROOT))
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if units.keys() != metrics.keys():
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json {section}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
