#!/usr/bin/env python3
"""Scaling experiment: joint moments against T (log T)^(k^2 + 2h).

Runs a grid of (k, h) pairs over several heights and writes one CSV with
the per-height ratios and the fitted log-log slope per pair.  Convergence
toward slope = k^2 + 2h is slow; the table is descriptive.
"""

import argparse

from zetalab import critline
from zetalab.csvio import write_csv
from zetalab.moments import scaling_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--heights", default="1e3,3e3,1e4,3e4", help="comma list of T")
    ap.add_argument("--ks", default="1,1.5,2")
    ap.add_argument("--hs", default="0,0.5,1")
    ap.add_argument("--target", default="zeta", choices=critline.TARGETS)
    ap.add_argument("--out", default="moment_scaling.csv")
    args = ap.parse_args()

    heights = [float(x) for x in args.heights.split(",")]
    rows = []
    for k in (float(x) for x in args.ks.split(",")):
        for h in (float(x) for x in args.hs.split(",")):
            if h > k + 0.5:
                continue
            rep = scaling_report(heights, k, h, args.target)
            print(
                f"k={k:4.2f} h={h:4.2f}: slope={rep.slope:7.3f} "
                f"(predicted {rep.predicted_exponent:4.2f}) ratios="
                + ", ".join(f"{r:.4f}" for r in rep.ratios)
            )
            for T, value, ratio in zip(rep.Ts, rep.values, rep.ratios):
                rows.append([T, k, h, args.target, value, ratio, rep.slope,
                             rep.predicted_exponent])
    write_csv(args.out, ["T", "k", "h", "target", "value", "ratio", "slope",
                         "predicted_exponent"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
