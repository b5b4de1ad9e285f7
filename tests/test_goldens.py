"""Every golden command writes the reports checked in under ``tests/golden``.

Each command of ``scripts/regen_goldens.py`` is rerun into a fresh directory
and compared with its golden copy by ``scripts/compare_reports.py``'s rule at
``--rel 1e-12 --abs 0``: non-floats exactly, each float at its own scale
(a row's gap at the scale of its E).  A change that moves reported numbers
on purpose regenerates the goldens with that script.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen_goldens = _script("regen_goldens")
compare_reports = _script("compare_reports")


@pytest.mark.parametrize("name", list(regen_goldens.GOLDENS))
def test_report_matches_its_golden(name, tmp_path):
    regen_goldens.run(name, tmp_path)
    golden = regen_goldens.GOLDEN / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in golden.iterdir())
    cmp = compare_reports.compare(golden, tmp_path, rel=1e-12, abs_=0.0)
    assert not cmp.mismatches
    assert cmp.max_share <= 1.0, f"{cmp.max_rel:.3e} (relative) at {cmp.share_where}"
