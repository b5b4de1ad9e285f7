"""Traced memory of each stage of one in-process verify.

    PYTHONPATH=src python3 scripts/stage_peaks.py CONFIG

Runs ``skybps.cli.run_verify`` on the JSON configuration file CONFIG under
``tracemalloc``. A stage is a package function wrapped from outside, in the
module that calls it; the package itself is not edited. A stage called
inside another is named by its path, for example ``bound_gap/pass``, the one
pass that serves every margin, or ``bound_gap/pass/naturality``, the
naturality check, which runs in that pass.

For each stage it prints the number of calls, ``entry_mb``, the largest
traced size at the stage's entry, and ``peak_mb``, the largest traced peak
inside it (MB = 2^20 bytes). The last line is a JSON object with the same
figures and the overall peak. A stage the checked-out package lacks is
skipped, so the script also runs on older versions.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import tracemalloc

# (stage, module, attribute): the binding that the verify pipeline calls
STAGES = (
    ("build", "skybps.cli", "build_family"),
    ("volume", "skybps.lie_target", "TargetGeometry.volume"),
    ("moment", "skybps.cli", "verify_moment_conditions"),
    ("bianchi", "skybps.gaugefield", "Configuration.bianchi_residual"),
    ("naturality", "skybps.cli", "pullback_naturality_residual"),
    ("bound_gap", "skybps.cli", "bound_gap"),
    ("pass", "skybps.energy_degree", "_margin_pass"),
)

MB = float(2**20)


class _Recorder:
    """Entry size and peak of every stage call, with nested peaks folded outward."""

    def __init__(self):
        self.open: list[list] = []  # [stage, running peak] of the open stages
        self.stats: dict[str, dict] = {}
        self.top = 0  # running peak outside the open stages

    def _fold(self, peak: int):
        """Add a peak to the innermost open stage, or to the top level."""
        if self.open:
            self.open[-1][1] = max(self.open[-1][1], peak)
        else:
            self.top = max(self.top, peak)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def staged(*args, **kwargs):
            cur, peak = tracemalloc.get_traced_memory()
            self._fold(peak)
            tracemalloc.reset_peak()
            path = "/".join([f[0] for f in self.open] + [name])
            self.open.append([name, cur])
            st = self.stats.setdefault(path, {"calls": 0, "entry_mb": 0.0, "peak_mb": 0.0})
            st["calls"] += 1
            st["entry_mb"] = max(st["entry_mb"], cur / MB)
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                mine = max(self.open.pop()[1], peak)
                self._fold(mine)
                st["peak_mb"] = max(st["peak_mb"], mine / MB)

        return staged


def stage_peaks(cfg: dict) -> dict:
    """Per-stage calls, entry_mb and peak_mb of one ``run_verify(cfg)``."""
    from skybps.cli import run_verify

    rec = _Recorder()
    patched = []  # (owner, attribute, original)
    for stage, module, attr in STAGES:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name, None)
        if original is None:
            continue
        patched.append((owner, name, original))
        setattr(owner, name, rec.wrap(original, stage))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = run_verify(cfg)
        rec._fold(tracemalloc.get_traced_memory()[1])
        overall = rec.top / MB
    finally:
        if started:
            tracemalloc.stop()
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
    stages = {k: {"calls": v["calls"], "entry_mb": round(v["entry_mb"], 1),
                  "peak_mb": round(v["peak_mb"], 1)} for k, v in rec.stats.items()}
    return {"stages": stages, "overall_peak_mb": round(overall, 1), "exit": report["exit"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="JSON configuration file of a verify run")
    args = ap.parse_args(argv)
    with open(args.config) as f:
        cfg = json.load(f)
    out = stage_peaks(cfg)
    print(f"{'stage':<36} {'calls':>5} {'entry_mb':>9} {'peak_mb':>8}")
    for name, st in out["stages"].items():
        print(f"{name:<36} {st['calls']:>5} {st['entry_mb']:>9.1f} {st['peak_mb']:>8.1f}")
    print(f"{'overall':<36} {'':>5} {'':>9} {out['overall_peak_mb']:>8.1f}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
