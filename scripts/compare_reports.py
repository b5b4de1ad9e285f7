"""Compare two skybps output directories number by number.

    python3 scripts/compare_reports.py DIR_A DIR_B [--rel 1e-12] [--abs 0]

Each directory holds the ``report.json`` that ``skybps verify``, ``sweep``
or ``obstruction`` wrote, and the ``results.csv`` and ``results.dat`` tables
that verify and sweep write (the second with ``--emit-gnuplot``); a table is
compared when either directory has it. Every float is compared at its scale
s: it is within the bound when |a - b| <= rel s + abs, with a taken from
DIR_A, so ``--abs`` is the floor below which a difference of quantities at
or near 0 (residuals at rounding) is accepted. A float's scale is its own,
|a|, except for the three that cancel: a row's gap E - 6 Vol(N)|deg| is
compared at the scale of that row's E (the ``energy`` key, or the ``E``
column of a table), a ``gap_rel[...]`` check, the gap over E, at scale 1,
and the ``degree_integer`` check, |deg - round(deg)|, at the scale
max(1, |deg|) of the ``degree_extrapolated`` of its report (or sweep point).
Printed are the largest relative difference |a - b| / s and the largest
share of its bound that a difference uses, |a - b| / (rel s + abs), each
with where it occurs. Everything else must be equal: keys, list lengths,
strings, integers, booleans, nulls, table headers and every table cell that
is not a float. NaN equals NaN.

Exit status: 0 when every float is within its bound and nothing else
differs, 1 otherwise, 2 when a directory lacks ``report.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

TABLES = {"results.csv": ",", "results.dat": " "}  # each table and its cell separator


class Comparison:
    """Largest relative float difference, largest share of the bound, and
    the list of other differences."""

    def __init__(self, rel: float, abs_: float):
        self.rel, self.abs = rel, abs_
        self.max_rel = self.max_share = 0.0
        self.where = self.share_where = None
        self.mismatches: list[str] = []

    def floats(self, a: float, b: float, where: str, scale: float | None = None):
        if math.isnan(a) and math.isnan(b) or a == b:
            return
        diff = abs(a - b)
        scale = abs(a) if scale is None else scale
        rel = diff / scale if scale else math.inf
        bound = self.rel * scale + self.abs
        share = diff / bound if bound else math.inf
        if math.isnan(rel) or math.isnan(share):  # a NaN or an infinity against a number
            rel = share = math.inf
        if rel > self.max_rel:
            self.max_rel, self.where = rel, where
        if share > self.max_share:
            self.max_share, self.share_where = share, where

    def values(self, a, b, where: str, scale: float | None = None,
               degree: float | None = None):
        """Compare a and b; ``degree`` is the extrapolated degree of the
        report that holds them, the scale of its ``degree_integer`` check."""
        if isinstance(a, float) and isinstance(b, float):
            self.floats(a, b, where, scale)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.mismatches.append(
                    f"{where}: keys differ ({sorted(a.keys() ^ b.keys())})")
            if isinstance(a.get("degree_extrapolated"), float):
                degree = a["degree_extrapolated"]
            scales = _scales(a, "energy")
            name = str(a.get("name", ""))
            if name.startswith("gap_rel["):
                scales["value"] = 1.0
            elif name == "degree_integer" and degree is not None:
                scales["value"] = max(1.0, abs(degree))
            for k in sorted(a.keys() & b.keys()):
                sep = "" if where.endswith(":") else "."
                self.values(a[k], b[k], f"{where}{sep}{k}", scales.get(k), degree)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.mismatches.append(f"{where}: lengths {len(a)} != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.values(x, y, f"{where}[{i}]", degree=degree)
        elif type(a) is not type(b) or a != b:
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    def cells(self, a: str, b: str, where: str, scale: float | None = None):
        fa, fb = _as_float(a), _as_float(b)
        if fa is not None and fb is not None:
            self.floats(fa, fb, where, scale)
        elif a != b:
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    def table(self, a: list[list[str]], b: list[list[str]], where: str):
        """Two tables of a header row and data rows, cell by cell."""
        if not a or not b or a[0] != b[0]:
            self.mismatches.append(f"{where} header: {a[:1]} != {b[:1]}")
            return
        header = a[0]
        if len(a) != len(b):
            self.mismatches.append(f"{where}: {len(a) - 1} != {len(b) - 1} rows")
        for i, (ra, rb) in enumerate(zip(a[1:], b[1:])):
            if len(ra) != len(rb):
                self.mismatches.append(f"{where} row {i}: {len(ra)} != {len(rb)} cells")
            scales = _scales(dict(zip(header, map(_as_float, ra))), "E")
            for name, x, y in zip(header, ra, rb):
                self.cells(x, y, f"{where}:row {i}.{name}", scales.get(name))


def _scales(row: dict, energy: str) -> dict:
    """The scale of a row's gap, |E|, where the row has both as floats."""
    e = row.get(energy)
    return {"gap": abs(e)} if isinstance(e, float) and isinstance(row.get("gap"), float) else {}


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


def _read_table(path: Path, sep: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if sep == ",":
        return list(csv.reader(lines))
    return [line.removeprefix("# ").split(sep) for line in lines]  # results.dat's "# " header


def compare(dir_a: Path, dir_b: Path, rel: float, abs_: float) -> Comparison:
    cmp = Comparison(rel, abs_)
    cmp.values(json.loads((dir_a / "report.json").read_text()),
               json.loads((dir_b / "report.json").read_text()), "report.json:")
    for name, sep in TABLES.items():
        a, b = dir_a / name, dir_b / name
        if a.is_file() and b.is_file():
            cmp.table(_read_table(a, sep), _read_table(b, sep), name)
        elif a.is_file() or b.is_file():
            cmp.mismatches.append(f"{name}: only in {a.parent if a.is_file() else b.parent}")
    return cmp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="reference output directory")
    ap.add_argument("b", type=Path, help="output directory compared against it")
    ap.add_argument("--rel", type=float, default=1e-12,
                    help="relative part of the bound rel s + abs (default 1e-12)")
    ap.add_argument("--abs", type=float, default=0.0,
                    help="absolute part of the bound rel s + abs (default 0)")
    args = ap.parse_args(argv)
    for d in (args.a, args.b):
        if not (d / "report.json").is_file():
            print(f"{d}: missing report.json", file=sys.stderr)
            return 2
    cmp = compare(args.a, args.b, args.rel, args.abs)
    for m in cmp.mismatches:
        print(f"non-float difference: {m}")
    where = f" at {cmp.where}" if cmp.where else ""
    print(f"largest relative difference: {cmp.max_rel:.3e}{where}")
    where = f" at {cmp.share_where}" if cmp.share_where else ""
    print(f"largest share of the bound {args.rel:.1e} s + {args.abs:.1e}: "
          f"{cmp.max_share:.3g}{where}")
    ok = not cmp.mismatches and cmp.max_share <= 1.0
    print("equal within bound" if ok else "DIFFERENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
