#!/usr/bin/env python3
"""Sweep coarsening vectors for one problem file and tabulate what each buys.

For every primitive positive vector in the box, print the constants, the
regularity number, the resolution lower bound, and the size of the level-i
degree-bound sets; finish with the minimal subfamily that already cuts out
the full intersection.

    python scripts/coarsening_sweep.py problems/four-cycle.json --box 4 --imax 2
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from mreg import (
    betti_table,
    cached_minimal_resolution,
    coarsen_resolution,
    coarsening_constants,
    degree_bound_sets,
    load_problem,
    minimal_coarsening_set,
    positive_coarsening_candidates,
    regnum_lower_bound,
    regnum_module,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file")
    ap.add_argument("--box", type=int, default=4)
    ap.add_argument("--imax", type=int, default=2)
    args = ap.parse_args()

    prob = load_problem(args.file)
    P = prob.presentation()
    ring = prob.ring
    candidates = positive_coarsening_candidates(ring.degrees, args.box)
    i_range = list(range(args.imax + 1))
    F = cached_minimal_resolution(P)

    header = ["v", "c", "s", "sigma", "regnum", "lower"] + [f"|D_{i}|" for i in i_range]
    rows = []
    for v in candidates:
        cst = coarsening_constants(ring, v)
        r = regnum_module(P, v)
        low = regnum_lower_bound(betti_table(coarsen_resolution(F, v)), cst.c_v, cst.s_v)
        sizes = [len(s.degrees) for s in degree_bound_sets(P, v, i_range)]
        rows.append([str(v), cst.c_v, cst.s_v, cst.sigma, r, low] + sizes)

    widths = [max(len(str(x)) for x in [h] + [row[k] for row in rows]) for k, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))

    kept = minimal_coarsening_set(P, candidates=candidates, i_range=i_range)
    print("\nminimal family (relative to these candidates):", kept)


if __name__ == "__main__":
    main()
