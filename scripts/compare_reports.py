"""Compare two skybps output directories number by number.

    python3 scripts/compare_reports.py DIR_A DIR_B [--rel 1e-12] [--abs 0]

Each directory holds the ``report.json`` and ``results.csv`` that
``skybps verify`` or ``skybps sweep`` wrote. Every float is compared at its
own scale: it is within the bound when |a - b| <= rel |a| + abs, with a taken
from DIR_A, so ``--abs`` is the floor below which a difference of quantities
at or near 0 (residuals at rounding) is accepted. Printed are the largest
relative difference |a - b| / |a| and the largest share of its bound that a
difference uses, |a - b| / (rel |a| + abs), each with where it occurs.
Everything else must be equal: keys, list lengths, strings, integers,
booleans, nulls, the CSV header and every CSV cell that is not a float. NaN
equals NaN.

Exit status: 0 when every float is within its bound and nothing else
differs, 1 otherwise, 2 when a directory lacks one of the two files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

FILES = ("report.json", "results.csv")


class Comparison:
    """Largest relative float difference, largest share of the bound, and
    the list of other differences."""

    def __init__(self, rel: float, abs_: float):
        self.rel, self.abs = rel, abs_
        self.max_rel = self.max_share = 0.0
        self.where = self.share_where = None
        self.mismatches: list[str] = []

    def floats(self, a: float, b: float, where: str):
        if math.isnan(a) and math.isnan(b) or a == b:
            return
        diff = abs(a - b)
        rel = diff / abs(a) if a else math.inf
        bound = self.rel * abs(a) + self.abs
        share = diff / bound if bound else math.inf
        if math.isnan(rel) or math.isnan(share):  # a NaN or an infinity against a number
            rel = share = math.inf
        if rel > self.max_rel:
            self.max_rel, self.where = rel, where
        if share > self.max_share:
            self.max_share, self.share_where = share, where

    def values(self, a, b, where: str):
        if isinstance(a, float) and isinstance(b, float):
            self.floats(a, b, where)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.mismatches.append(
                    f"{where}: keys differ ({sorted(a.keys() ^ b.keys())})")
            for k in sorted(a.keys() & b.keys()):
                sep = "" if where.endswith(":") else "."
                self.values(a[k], b[k], f"{where}{sep}{k}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.mismatches.append(f"{where}: lengths {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.values(x, y, f"{where}[{i}]")
        elif type(a) is not type(b) or a != b:
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    def csv_cells(self, a: str, b: str, where: str):
        fa, fb = _as_float(a), _as_float(b)
        if fa is not None and fb is not None:
            self.floats(fa, fb, where)
        elif a != b:
            self.mismatches.append(f"{where}: {a!r} != {b!r}")


def _as_float(cell: str) -> float | None:
    """The cell's value if it is a float literal; integers and text give None."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def compare(dir_a: Path, dir_b: Path, rel: float, abs_: float) -> Comparison:
    cmp = Comparison(rel, abs_)
    cmp.values(json.loads((dir_a / "report.json").read_text()),
               json.loads((dir_b / "report.json").read_text()), "report.json:")
    rows_a = list(csv.reader((dir_a / "results.csv").read_text().splitlines()))
    rows_b = list(csv.reader((dir_b / "results.csv").read_text().splitlines()))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        cmp.mismatches.append(
            f"results.csv header: {rows_a[:1]} != {rows_b[:1]}")
        return cmp
    header = rows_a[0]
    if len(rows_a) != len(rows_b):
        cmp.mismatches.append(f"results.csv: {len(rows_a) - 1} != {len(rows_b) - 1} rows")
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:])):
        if len(ra) != len(rb):
            cmp.mismatches.append(f"results.csv row {i}: {len(ra)} != {len(rb)} cells")
        for name, a, b in zip(header, ra, rb):
            cmp.csv_cells(a, b, f"results.csv:row {i}.{name}")
    return cmp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="reference output directory")
    ap.add_argument("b", type=Path, help="output directory compared against it")
    ap.add_argument("--rel", type=float, default=1e-12,
                    help="relative part of the bound rel |a| + abs (default 1e-12)")
    ap.add_argument("--abs", type=float, default=0.0,
                    help="absolute part of the bound rel |a| + abs (default 0)")
    args = ap.parse_args(argv)
    for d in (args.a, args.b):
        missing = [f for f in FILES if not (d / f).is_file()]
        if missing:
            print(f"{d}: missing {', '.join(missing)}", file=sys.stderr)
            return 2
    cmp = compare(args.a, args.b, args.rel, args.abs)
    for m in cmp.mismatches:
        print(f"non-float difference: {m}")
    where = f" at {cmp.where}" if cmp.where else ""
    print(f"largest relative difference: {cmp.max_rel:.3e}{where}")
    where = f" at {cmp.share_where}" if cmp.share_where else ""
    print(f"largest share of the bound {args.rel:.1e} |a| + {args.abs:.1e}: "
          f"{cmp.max_share:.3g}{where}")
    ok = not cmp.mismatches and cmp.max_share <= 1.0
    print("equal within bound" if ok else "DIFFERENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
