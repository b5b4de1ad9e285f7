"""Benchmark of the skybps command line: wall time, set-up time, peak RSS.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-spherical-n48 --seed 1 \\
        --seconds 30 --trace 0

One operation is one ``skybps.cli.main([...])`` call in a fresh child process
(``child.py``), so its peak RSS belongs to it. A single driver process runs
one child at a time (a closed loop with one client) until ``--seconds`` are
used, and always at least two operations, which repeat the same generated
configuration so that their report digests can be compared. Before the loop
it starts set-up probes: children that stop once ``skybps.cli`` is imported
and the configuration validated.

The seed draws the family parameters; the program sees only the generated
configuration, which is written to the run directory for replay.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1``
traced and untraced operations alternate; the metrics are the per-layer
metrics, taken from the spans that ``tracer.py`` records around the calls
into each module, and ``trace.overhead_s`` is the traced minus the untraced
median wall time.

Every operation's outputs are checked. It fails if it raises, exits with 2
or more, reports a sweep point that raised, writes a non-finite E, deg,
bound, gap, r1 or r2, writes another ``results.csv`` header, or produces a
report digest unlike the other repetitions. The two sweep workloads draw the
same configuration for a seed, and the digests of ``SKYRME_THREADS=1`` and
``=2`` are compared whenever both have run for that seed in this checkout;
a mismatch fails every operation of the run.

``--smoke`` shrinks the workloads (n = 16, two sweep points) so the
benchmark's own tests run in seconds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

CSV_HEADER = ["family", "params", "n", "margin", "E", "deg", "bound", "gap", "r1", "r2", "exit"]
ROW_KEYS = ("energy", "degree", "bound", "gap", "r1", "r2")

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "verify-spherical-n48": {"command": "verify", "threads": 1},
    "sweep-u1-n24-t2": {"command": "sweep", "threads": 2},
    "sweep-u1-n24-t1": {"command": "sweep", "threads": 1},
}
THREAD_TWINS = {"sweep-u1-n24-t2": "sweep-u1-n24-t1", "sweep-u1-n24-t1": "sweep-u1-n24-t2"}
SETUP_PROBES = 5
MIN_OPS = 2
RUN_LIMIT_S = 150.0  # the whole run must end within 180 s

# per-layer metrics reported by a traced run: span name -> statistics
LAYER_SPANS = {
    "grid.partial_derivative": ("calls", "self_s"),
    "exterior.mat_inv": ("calls", "self_s", "bytes", "distinct_ratio"),
    "exterior.mat_det": ("calls", "self_s", "bytes"),
    "exterior.StarMap.on_1": ("calls", "self_s"),
    "exterior.StarMap.on_2": ("calls", "self_s"),
    "exterior.hodge_star": ("calls", "self_s"),
    "lie_target.TargetGeometry.volume": ("calls", "self_s", "distinct_ratio"),
    "lie_target.verify_moment_conditions": ("self_s",),
    "lie_target.target_partials": ("self_s",),
    "gaugefield.equivariant_pullback": ("calls", "self_s"),
    "gaugefield.cofactor": ("calls", "self_s", "bytes"),
    "gaugefield.pullback_naturality_residual": ("self_s",),
    "gaugefield.Configuration.bianchi_residual": ("self_s",),
    "energy_degree.energy": ("self_s",),
    "energy_degree.bound_gap": ("self_s",),
    "energy_degree.bps_residuals": ("self_s",),
    "energy_degree.degree": ("self_s",),
    "energy_degree.charge_density_cross_residual": ("self_s",),
    "solutions.build": ("self_s",),
    "cli.run_verify": ("self_s",),
    "cli.write_outputs": ("self_s",),
}
# the issue-level name of a distinct-input ratio, where it differs
RATIO_NAMES = {"lie_target.TargetGeometry.volume": "lie_target.volume.distinct_ratio"}
UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes_computed", "distinct_ratio": "count/count"}


class BenchError(Exception):
    """The benchmark cannot run here (for example, the program is missing)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_config(workload: str, seed: int, smoke: bool) -> dict:
    """The configuration the program sees; drawn from the seed alone."""
    rng = random.Random(seed)
    if WORKLOADS[workload]["command"] == "verify":
        c1 = 0.5 + 1.5 * rng.random()  # [0.5, 2]
        return {
            "family": "spherical",
            "n": 16 if smoke else 48,
            "margins": [0.12, 0.06, 0.03],
            "family_params": {"c1": round(c1, 6), "c2": -1.0, "alpha": 1.0, "beta": 2.0},
        }
    values = []
    for _ in range(2 if smoke else 6):
        # (0, 0.09]: the conformal factor stays positive below about 0.107
        a = max(0.09 * (1.0 - rng.random()), 1e-6)
        p = 2.0 * math.pi * rng.random()
        values.append(f"{a:.6f}*sin(theta + {p:.6f})")
    return {
        "family": "identity-u1",
        "n": 16 if smoke else 24,
        "margins": [0.36, 0.24, 0.16],
        "sweep": {"param": "family_params.ax", "values": values},
    }


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------


def run_child(run_dir: Path, tag: str, workload: str, cfg_path: Path, *,
              setup_only: bool = False, traced: bool = False, timeout: float) -> dict:
    """Start one child, wait for it, and return its timings and probe."""
    op_dir = run_dir / tag
    op_dir.mkdir()
    spec = WORKLOADS[workload]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", SKYRME_THREADS=str(spec["threads"]))
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(ROOT / "src"),
           "--probe", str(op_dir / "probe.json")]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--spans", str(op_dir / "spans.json")]
    cli_args = [spec["command"], "--config", str(cfg_path), "--output-dir", str(op_dir)]
    with open(op_dir / "stdout.txt", "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0), "--"] + cli_args,
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=op_dir)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t0
    try:
        probe = json.loads((op_dir / "probe.json").read_text())
    except (OSError, json.JSONDecodeError):
        probe = {}
    out = {"tag": tag, "traced": traced, "rc": rc, "run_s": wall, "dir": op_dir,
           "setup_s": (probe["t_setup"] - t0) if probe.get("t_setup") else None,
           "peak_rss_mb": probe["maxrss_kb"] / 1024.0 if probe.get("maxrss_kb") else None,
           "probe": probe, "problems": []}
    if rc is None:
        out["problems"].append(f"killed after {timeout:.0f} s")
    elif probe.get("error"):
        out["problems"].append("raised: " + probe["error"].strip().splitlines()[-1])
    elif rc not in (0, 1):
        out["problems"].append(f"exit code {rc}")
    if probe.get("t_setup") is None:
        out["problems"].append("never reached the set-up point")
    return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_outputs(op: dict, command: str):
    """Parse report.json and results.csv; record the digest and the verdicts."""
    try:
        _check_outputs(op, command)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        op["problems"].append(f"malformed outputs: {type(exc).__name__}: {exc}")


def _check_outputs(op: dict, command: str):
    problems = op["problems"]
    try:
        report = json.loads((op["dir"] / "report.json").read_text())
        with open(op["dir"] / "results.csv", newline="") as f:
            table = list(csv.reader(f))
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"unreadable outputs: {exc}")
        return
    if not table or table[0] != CSV_HEADER:
        problems.append(f"results.csv header {table[:1]} != {CSV_HEADER}")
    for row in table[1:]:
        if not all(_finite(float(v)) for v in row[4:10]):
            problems.append(f"non-finite value in results.csv row {row}")
    if command == "verify":
        units = [{"value": None, "exit": report["exit"], "rows": report["rows"],
                  "degree_extrapolated": report["degree_extrapolated"],
                  "checks": [[c["name"], c["pass"]] for c in report["checks"]]}]
        op["checks_failed"] = sum(not c["pass"] for c in report["checks"])
        op["checks_passed"] = sum(bool(c["pass"]) for c in report["checks"])
    else:
        units = report["points"]
        for pt in units:
            if "error" in pt:
                problems.append(f"sweep point {pt['value']!r} raised: {pt['error']}")
        # a sweep report keeps one verdict per point
        op["checks_failed"] = sum(pt["exit"] != 0 for pt in units)
        op["checks_passed"] = sum(pt["exit"] == 0 for pt in units)
    numbers = []
    for u in units:
        rows = u.get("rows", [])
        for r in rows:
            if not all(_finite(r[k]) for k in ROW_KEYS):
                problems.append(f"non-finite value in report row at margin {r['margin']}")
        numbers.append({
            "value": u.get("value"),
            "exit": u["exit"],
            "rows": [[float(r[k]).hex() for k in ROW_KEYS] for r in rows],
            "degree_extrapolated": (float(u["degree_extrapolated"]).hex()
                                    if u.get("degree_extrapolated") is not None else None),
            "checks": u.get("checks"),
        })
    op["numbers"] = numbers
    op["digest"] = hashlib.sha256(json.dumps(numbers, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """Digest of the program's source, which identifies it outside git."""
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "skybps").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return src.hexdigest()


def provenance(workload: str, seed: int, probe: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "blas": probe.get("blas"),
        "OPENBLAS_NUM_THREADS": "1",
        "SKYRME_THREADS": WORKLOADS[workload]["threads"],
        "l2_bytes_per_core": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def timing_line(name: str, values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    n = len(values)
    line = f"{name}: median {_median(values):.3f} s over {n} operations"
    if n < 11:
        return line + "; no higher percentile has 10 samples above it"
    k = n - 11
    return line + f", p{100 * (k + 1) / n:.0f} {sorted(values)[k]:.3f} s"


def layer_metrics(ops: list[dict]) -> tuple[dict, list[str], dict]:
    """Per-layer metrics, report lines and self-time shares of a traced run.

    Counts and shares come from the first traced operation; self times are
    medians over the traced operations.
    """
    traced = [op for op in ops if op["traced"] and op.get("summary")]
    plain = [op for op in ops if not op["traced"]]
    lines = []
    metrics = {}
    if not traced:
        return metrics, ["no traced operation finished"], {}
    first = traced[0]["summary"]["names"]
    for op in traced[1:]:
        for name, st in op["summary"]["names"].items():
            if first.get(name, {}).get("calls") != st["calls"]:
                lines.append(f"WARNING: {name} calls differ between traced repetitions")
    for name, stats in LAYER_SPANS.items():
        st = first.get(name, {"calls": 0, "bytes": 0, "distinct": 0})
        for stat in stats:
            if stat == "self_s":
                value = _median([op["summary"]["names"].get(name, {}).get("self_s", 0.0)
                                 for op in traced])
            elif stat == "distinct_ratio":
                value = st["distinct"] / st["calls"] if st["calls"] else 0.0
            else:
                value = st[stat]
            key = RATIO_NAMES.get(name, f"{name}.distinct_ratio") \
                if stat == "distinct_ratio" else f"{name}.{stat}"
            metrics[key] = {"value": value, "unit": UNITS[stat]}
    for stat, unit in (("concurrency", "ratio"), ("queue_wait_s", "s")):
        metrics[f"cli.sweep.{stat}"] = {
            "value": _median([op["summary"]["sweep"][stat] for op in traced]), "unit": unit}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = {"value": _median([
            sum(st["self_s"] for n, st in op["summary"]["names"].items()
                if n.split(".")[0] == layer) for op in traced]), "unit": "s"}
    run_traced = _median([op["run_s"] for op in traced])
    run_plain = _median([op["run_s"] for op in plain])
    top = _median([op["summary"]["top_level_s"] for op in traced])
    metrics["trace.overhead_s"] = {"value": run_traced - run_plain, "unit": "s"}
    metrics["trace.top_level_share"] = {"value": top / run_traced, "unit": "fraction"}
    metrics["trace.uncovered_s"] = {"value": run_traced - top, "unit": "s"}

    total_self = sum(st["self_s"] for st in first.values())
    shares = {name: st["self_s"] / total_self for name, st in
              sorted(first.items(), key=lambda kv: -kv[1]["self_s"])}
    lines.append(f"traced run_s {run_traced:.3f} s (untraced {run_plain:.3f} s, "
                 f"overhead {run_traced - run_plain:+.3f} s); top-level spans cover "
                 f"{top:.3f} s, uncovered remainder {run_traced - top:.3f} s "
                 "(interpreter start-up, imports, argument parsing, printing)")
    lines.append(f"{'span':48s} {'calls':>6s} {'self_s':>9s} {'share':>6s}")
    for name, share in shares.items():
        lines.append(f"{name:48s} {first[name]['calls']:6d} {first[name]['self_s']:9.4f} "
                     f"{share:6.1%}")
    return metrics, lines, shares


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def thread_twin_check(out_root: Path, workload: str, cfg: dict, digest: str | None) -> str:
    """Compare this sweep's digest with the other thread count's, if it ran."""
    twin = THREAD_TWINS.get(workload)
    if twin is None or digest is None:
        return "n/a"
    store = out_root / "digests"
    store.mkdir(parents=True, exist_ok=True)
    key = f"{config_hash(cfg)}-{source_digest()[:16]}"
    (store / f"{key}.{workload}").write_text(digest)
    other = store / f"{key}.{twin}"
    if not other.exists():
        return f"{twin} has not run on this configuration yet"
    theirs = other.read_text()
    if theirs != digest:
        return f"MISMATCH with {twin}: {theirs[:16]} != {digest[:16]}"
    return f"match with {twin}"


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        out_root: Path) -> dict:
    if not (ROOT / "src" / "skybps" / "cli.py").is_file():
        raise BenchError(f"the program is missing: no src/skybps/cli.py under {ROOT}")
    started = time.monotonic()
    spec = WORKLOADS[workload]
    run_dir = out_root / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = make_config(workload, seed, smoke)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - started)

    # the first start compiles bytecode and warms the file cache; not counted
    warm = run_child(run_dir, "warmup", workload, cfg_path, setup_only=True, timeout=remaining())
    if warm["problems"]:
        raise BenchError(f"set-up failed: {warm['problems']}\n{warm['probe'].get('error', '')}")
    probes = [run_child(run_dir, f"setup{i}", workload, cfg_path, setup_only=True,
                        timeout=remaining()) for i in range(SETUP_PROBES)]

    ops: list[dict] = []
    loop_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - loop_start
        if len(ops) >= MIN_OPS:
            typical = _median([op["run_s"] for op in ops])
            if elapsed + typical > seconds or remaining() < typical:
                break
        traced = trace and len(ops) % 2 == 0
        op = run_child(run_dir, f"op{len(ops)}", workload, cfg_path, traced=traced,
                       timeout=remaining())
        if not op["problems"]:
            check_outputs(op, spec["command"])
        if traced and (op["dir"] / "spans.json").exists():
            spans = json.loads((op["dir"] / "spans.json").read_text())["spans"]
            op["summary"] = tracer.summarize([tuple(s) for s in spans])
        ops.append(op)

    # determinism: every repetition of the seed must give the first digest
    digests = [op.get("digest") for op in ops if op.get("digest")]
    reference = digests[0] if digests else None
    for op in ops:
        if op.get("digest") and op["digest"] != reference:
            op["problems"].append(f"digest {op['digest'][:16]} differs from {reference[:16]}")
    twin = thread_twin_check(out_root, workload, cfg, reference)
    if twin.startswith("MISMATCH"):
        for op in ops:
            op["problems"].append(twin)

    failed = sum(bool(op["problems"]) for op in ops)
    good = [op for op in ops if not op["problems"]] or ops
    lines = [f"workload {workload} seed {seed}: config {json.dumps(cfg, sort_keys=True)}"]
    for op in ops:
        lines.append(
            f"  {op['tag']}{' (traced)' if op['traced'] else ''}: run_s {op['run_s']:.3f} "
            f"setup_s {op['setup_s'] or float('nan'):.3f} "
            f"peak_rss_mb {op['peak_rss_mb'] or float('nan'):.1f} rc {op['rc']} "
            f"checks_failed {op.get('checks_failed')} digest {(op.get('digest') or '-')[:16]}"
            + (f" FAILED: {'; '.join(op['problems'])}" if op["problems"] else ""))
    plain = [op for op in good if not op["traced"]]
    run_s = _median([op["run_s"] for op in plain])
    setup_samples = [p["setup_s"] for p in probes] + [op["setup_s"] for op in ops]
    metrics = {
        "run_s": {"value": run_s, "unit": "s"},
        "setup_s": {"value": _median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": _median([op["peak_rss_mb"] for op in plain]), "unit": "MB"},
        "checks_passed": {"value": good[0].get("checks_passed", 0), "unit": "count"},
    }
    lines.append(timing_line("run_s", [op["run_s"] for op in plain]))
    lines.append(f"setup_s: median {metrics['setup_s']['value']:.4f} s over "
                 f"{len([s for s in setup_samples if s is not None])} starts")
    lines.append(f"peak_rss_mb: median {metrics['peak_rss_mb']['value']:.1f} MB")
    lines.append(f"checks_failed: {good[0].get('checks_failed')} "
                 f"(checks_passed {metrics['checks_passed']['value']})")
    lines.append(f"error_rate: {failed}/{len(ops)} = {failed / len(ops):.3f}")
    lines.append(f"digest: {reference} "
                 f"({len(set(digests))} distinct over {len(digests)} repetitions)")
    lines.append(f"threads: {twin}")

    result_metrics = metrics
    layer, shares = {}, {}
    if trace:
        layer, layer_lines, shares = layer_metrics(ops)
        lines += layer_lines
        result_metrics = layer
    for name, m in result_metrics.items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            raise BenchError(f"no operation produced {name}; see {run_dir}")
    summary = {
        "provenance": provenance(workload, seed, warm["probe"]),
        "config": cfg,
        "seconds": seconds,
        "smoke": smoke,
        "operations": [{k: v for k, v in op.items() if k not in ("dir", "probe", "summary")}
                       | {"error": op["probe"].get("error")} for op in ops],
        "setup_probes_s": [p["setup_s"] for p in probes],
        "end_to_end": metrics,
        "per_layer": layer,
        "self_time_shares": {name: round(v, 4) for name, v in shares.items()},
        "digest": reference,
        "threads_check": twin,
        "error_rate": failed / len(ops),
    }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")
    # keep the outputs of failed operations for diagnosis
    for op in ops + probes + [warm]:
        if not op["problems"]:
            shutil.rmtree(op["dir"], ignore_errors=True)
    return {"lines": lines, "result": {"correct": failed == 0, "attempted": len(ops),
                                       "failed": failed, "metrics": result_metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="n = 16 and two sweep points")
    ap.add_argument("--out", default=str(HERE / "out"), help="directory for run records")
    args = ap.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                  Path(args.out).resolve())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in res["lines"]:
        print(line)
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
