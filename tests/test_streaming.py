"""A verify streams d^A phi, F and the stencil checks through halo slabs.

The slab size changes only how much is held at once: every report value is
the same for one slab as for many, and the grid-size arrays a verify holds
are the configuration and the pass's scalar densities.
"""

import tracemalloc

import numpy as np
import pytest

from skybps import grid
from skybps.cli import _validate_config, build_family, run_verify


@pytest.mark.parametrize("family", ["spherical", "identity-u1", "spinorial"])
def test_verify_reports_equal_for_one_slab_and_many(family, monkeypatch):
    cfg = {"family": family, "n": 20}
    one = run_verify(cfg)  # 20^3 points: one slab, no halo read
    reports = []
    for rows in (3, 1):  # slabs of 3 rows and a short last one; slabs of one row
        monkeypatch.setattr(grid, "_SLAB_POINTS", rows * 20 * 20)
        reports.append(run_verify(cfg))
    assert [r["exit"] for r in reports] == [one["exit"]] * 2
    assert reports[0] == one
    assert reports[1] == one


def test_verify_holds_only_the_configuration_and_scalar_densities(monkeypatch):
    cfg = {"family": "spherical", "n": 32}
    # Vol(N) and the moment check belong to the shared target and have a
    # fixed size whatever n is (a 96^3 and a 32^3 chart grid); a first run
    # computes them, so the traced run below holds only what grows with n
    run_verify(cfg)
    # one-row slabs, as every grid from n = 84 up has, keep the slabs' own
    # working set small against the grid-size arrays
    monkeypatch.setattr(grid, "_SLAB_POINTS", 32 * 32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = run_verify(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    c = build_family(_validate_config(cfg), report["config"]["margins"][0])[0].config
    configuration = c.phi.nbytes + c.A.nbytes + c.gM.g.nbytes + c.gM.det().nbytes
    scalar = np.zeros(c.grid.shape).nbytes
    assert peak <= 1.3 * (configuration + 9 * scalar)
