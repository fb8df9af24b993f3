"""Reproduce Table 4 (accuracy after crowdsourcing rounds, all combos).

Usage: python jobs/table4.py [--sf 1.0] [--rounds 50] [--procs 14] [--csv out.csv]
Combinations are independent and fan out across processes.
"""
from __future__ import annotations

import argparse
import time

import _common  # noqa: F401  (puts src/ on sys.path)
from repro.tables.table4 import table4


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--procs", type=int, default=14)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()
    t0 = time.time()
    df = table4(sf=args.sf, rounds=args.rounds, seed=args.seed, max_workers=args.procs)
    for dataset in ("bp", "her"):
        sub = df[df["dataset"] == dataset]
        piv = sub.pivot_table(
            index="inference", columns="assignment", values="accuracy"
        ).round(4)
        print(f"== {dataset} (accuracy after round {args.rounds}) ==")
        print(piv.to_string())
    print(df.round(4).to_string(index=False))
    print(f"[table4] done in {time.time() - t0:.0f}s")
    if args.csv:
        df.to_csv(args.csv, index=False)


if __name__ == "__main__":
    main()
