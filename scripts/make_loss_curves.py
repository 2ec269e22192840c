#!/usr/bin/env python3
"""Emit the damped-loss curve tables for a grid of focusing exponents.

Writes one wide TSV (p_t, plain CE, one column per (gamma, q)) that
plots directly with any spreadsheet or gnuplot. The q=0 column equals
the CE column by construction.

    python3 scripts/make_loss_curves.py --gammas 0,1,2,3,4 --out losscurve.tsv
"""

import argparse

from cmpad.cli import _comma_list
from cmpad.harness import emit_loss_curves


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    float_list = _comma_list(float, minimum=0.0)
    parser.add_argument("--gammas", type=float_list, default="3", help="comma-separated exponents")
    parser.add_argument(
        "--q-values", type=float_list, default="0,0.1,0.3,0.5,0.7,0.9,1",
        help="comma-separated other-branch confidences",
    )
    parser.add_argument("--out", default="losscurve.tsv")
    args = parser.parse_args()

    result = emit_loss_curves(gammas=args.gammas, q_values=args.q_values, out_path=args.out)
    print(f"wrote {args.out}: {len(result['p'])} rows, {len(result['curves'])} curves")


if __name__ == "__main__":
    main()
