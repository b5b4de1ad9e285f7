"""Smoke test of ``scripts/stage_peaks.py`` on a small spherical verify."""

import importlib.util
import json
from pathlib import Path

from skybps import cli, energy_degree

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stage_peaks.py"


def _script():
    spec = importlib.util.spec_from_file_location("stage_peaks", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_stage_peaks_smoke(tmp_path, capsys):
    mod = _script()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "spherical", "n": 16}))
    bound_gap = cli.bound_gap
    assert mod.main([str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    stages = out["stages"]
    # one build and one pass serve the three margins, on one line
    assert stages["build"]["calls"] == stages["bound_gap"]["calls"] == 1
    assert stages["bound_gap/pass"]["calls"] == 1
    assert not any("[" in name for name in stages)
    # the stencil checks run in the pass, once per slab (one slab at n = 16)
    # and naturality once per form
    assert stages["bound_gap/pass/bianchi"]["calls"] == 1
    assert stages["bound_gap/pass/naturality"]["calls"] == 2
    nested = [name for name in stages if name.count("/") == 2]
    assert sorted(nested) == ["bound_gap/pass/bianchi", "bound_gap/pass/naturality"]
    assert "bianchi" not in stages and "naturality" not in stages
    for st in stages.values():
        assert 0.0 <= st["entry_mb"] <= st["peak_mb"] <= out["overall_peak_mb"]
    # the overall peak belongs to a named stage
    assert out["overall_peak_mb"] == max(st["peak_mb"] for st in stages.values())
    # the wrappers are removed again
    assert cli.bound_gap is bound_gap is energy_degree.bound_gap
