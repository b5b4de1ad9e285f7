"""Alternating parent/change pairs of the benchmark, and whether a gain holds.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seed S --pairs N --seconds T [--json RUNS.json]

Each directory is a checkout of the repository. A pair runs each checkout's
own ``benchmarks/run.py --workload W --seed S --seconds T --trace 0`` once,
as a subprocess in that checkout, one after the other; even pairs start with
the parent, odd pairs with the change. Run records go to a temporary
directory (``--out``), so nothing under either ``benchmarks/`` changes.

For each end-to-end metric of the parent's ``BENCHMARK.json`` it prints each
side's median and quartiles, the pairs each side won (ties count for
neither), whether the gain rule holds (the change wins at least nine
tenths of the pairs, and its median is better than the parent's by more
than the distance between the parent's quartiles) and whether the change's
median is worse than the parent's by more than the metric's ``bound``. It
also prints each side's failed operations. ``--json`` writes every run and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pair statistics of one metric; ``parent[i]`` and ``change[i]`` are pair i.

    ``bound`` is the relative amount by which the change's median may be
    worse than the parent's before it counts as a regression.
    """
    sign = 1.0 if better == "lower" else -1.0
    # positive when the change is better
    deltas = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    p_q = quartiles(parent)
    c_q = quartiles(change)
    wins = sum(d > 0 for d in deltas)
    losses = sum(d < 0 for d in deltas)
    gap = sign * (p_q[1] - c_q[1])
    spread = p_q[2] - p_q[0]
    worse = -gap / abs(p_q[1]) if p_q[1] else (0.0 if gap >= 0 else float("inf"))
    return {
        "parent": p_q, "change": c_q, "pairs": len(deltas), "change_wins": wins,
        "parent_wins": losses, "ties": len(deltas) - wins - losses, "gap": gap,
        "parent_spread": spread, "holds": 10 * wins >= 9 * len(deltas) and gap > spread,
        "worse_rel": worse, "within_bound": worse <= bound,
    }


def run_once(checkout: Path, args, out: Path) -> dict:
    """One ``benchmarks/run.py`` in ``checkout``; its last output line, parsed."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def format_summary(name: str, unit: str, better: str, s: dict) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    verdict = "gain holds" if s["holds"] else "gain does not hold"
    bound = "within" if s["within_bound"] else "BEYOND"
    return (f"{name} ({unit}, {better} is better): parent {side(s['parent'])}, "
            f"change {side(s['change'])}; change wins {s['change_wins']}/{s['pairs']}, "
            f"parent wins {s['parent_wins']}, ties {s['ties']}; median gap "
            f"{s['gap']:+.4g} against the parent's quartile spread "
            f"{s['parent_spread']:.4g}: {verdict}; median worse by "
            f"{s['worse_rel']:+.1%}, {bound} the bound")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--json", type=Path, help="write every run and the summary here")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                run = {"pair": i, "side": name,
                       **run_once(sides[name], args, Path(tmp) / name)}
                runs.append(run)
                print(f"pair {i} {name}: " + " ".join(
                    f"{k} {v:.4g}" for k, v in run["metrics"].items())
                    + f" failed {run['failed']}/{run['attempted']}", flush=True)

    summary = {}
    for m in metrics:
        by_side = {name: [r["metrics"][m["name"]] for r in runs if r["side"] == name]
                   for name in sides}
        # pair i's two runs, in pair order
        summary[m["name"]] = compare(by_side["parent"], by_side["change"], m["better"],
                                     m["bound"])
        print(format_summary(m["name"], m["unit"], m["better"], summary[m["name"]]))
    for name in sides:
        failed = sum(r["failed"] for r in runs if r["side"] == name)
        attempted = sum(r["attempted"] for r in runs if r["side"] == name)
        print(f"{name} failed operations: {failed}/{attempted}")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
            "seconds": args.seconds, "runs": runs, "summary": summary,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
