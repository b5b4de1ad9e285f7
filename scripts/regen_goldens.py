"""Rewrite the golden reports that ``tests/test_goldens.py`` compares against.

    PYTHONPATH=src python3 scripts/regen_goldens.py

Each golden is one command of ``skybps``, run in-process into
``tests/golden/<name>/``: ``verify -n 16`` of each of the six families, a
two-point identity-u1 sweep over ``ax``, and ``obstruction --K 1``.  The
verifies and the sweep write ``report.json``, ``results.csv`` and
``results.dat``; the obstruction writes ``report.json``.  A change that moves
reported numbers on purpose reruns this and states the old and new values in
``CHANGES.md``; one that should not move them leaves the goldens as they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from skybps import cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"

# name -> (command line without --output-dir, configuration file or None)
GOLDENS = {
    **{f"verify-{family}": (["verify", "--emit-gnuplot"], {"family": family, "n": 16})
       for family in cli.FAMILIES},
    "sweep-identity-u1-ax": (["sweep", "--emit-gnuplot"], {
        "family": "identity-u1", "n": 16,
        "sweep": {"param": "family_params.ax", "values": ["0", "0.1*sin(theta)"]}}),
    "obstruction": (["obstruction", "--K", "1"], None),
}


def run(name: str, out_dir: Path) -> int:
    """Run the golden ``name`` into ``out_dir``; returns its exit code."""
    argv, cfg = GOLDENS[name]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*argv, "--output-dir", str(out_dir)]
        if cfg is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            argv += ["--config", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)


def main() -> int:
    for name in GOLDENS:
        out = GOLDEN / name
        shutil.rmtree(out, ignore_errors=True)
        code = run(name, out)
        print(f"{name}: exit {code}, {', '.join(sorted(p.name for p in out.iterdir()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
