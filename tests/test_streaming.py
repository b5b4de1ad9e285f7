"""A verify streams d^A phi, F and the stencil checks through halo slabs.

The slab size changes only how much is held at once: every report value is
the same for one slab as for many, and a margin's pass holds slab fields
only, on top of the configuration.
"""

import tracemalloc

import pytest

from skybps import cli, grid
from skybps.cli import run_verify


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


def test_bound_gap_working_set_grows_as_a_row(monkeypatch):
    # with one-row slabs a margin's pass allocates slab fields only: its
    # traced peak above its entry grows as a row (n^2, a ratio of 4 from
    # n = 16 to 32; measured 3.5 to 3.7), not as the grid (n^3, a ratio of 8).
    # A pass that held its nine densities on the grid measured 5.1 to 5.9.
    real = cli.bound_gap

    def extra_bytes(n):
        monkeypatch.setattr(grid, "_SLAB_POINTS", n * n)
        extra = []

        def traced(*args):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real(*args)
            extra.append(tracemalloc.get_traced_memory()[1] - entry)
            return out

        monkeypatch.setattr(cli, "bound_gap", traced)
        tracemalloc.start()
        try:
            run_verify({"family": "spherical", "n": n})
        finally:
            tracemalloc.stop()
        return extra

    small, large = extra_bytes(16), extra_bytes(32)
    assert len(small) == len(large) == 3  # the first margin runs the stencil checks
    assert all(b <= 4.5 * a for a, b in zip(small, large)), (small, large)
