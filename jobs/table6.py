"""Reproduce Table 6 (numeric stock data, MAE and R/E).

Usage: python jobs/table6.py [--sf 1.0] [--csv out.csv]
"""
from __future__ import annotations

import argparse
import time

import _common  # noqa: F401  (puts src/ on sys.path)
from repro.tables.table6 import table6


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()
    t0 = time.time()
    df = table6(sf=args.sf, seed=args.seed)
    print(df.round(4).to_string(index=False))
    print(f"[table6] done in {time.time() - t0:.0f}s")
    if args.csv:
        df.to_csv(args.csv, index=False)


if __name__ == "__main__":
    main()
