import numpy as np
import pytest

from skybps.exterior import Metric3
from skybps.grid import build_patch
from oracles import from_arrays, round_s3_family
from skybps.lie_target import make_adjoint_interval_target, u1_s3_adjoint_target


@pytest.fixture(scope="session")
def u1_target():
    return u1_s3_adjoint_target()


@pytest.fixture(scope="session")
def adjoint_round_target():
    return make_adjoint_interval_target(round_s3_family())


def random_spd_metric(rng, shape=(4, 4, 4), scale=1.0):
    a = rng.normal(size=(3, 3) + shape)
    g = np.einsum("ab...,cb...->ac...", a, a) + 0.5 * np.eye(3)[:, :, None, None, None]
    return Metric3(scale * g)


def smooth_u1_configuration(target, n=32, margin=0.2, amp=0.1, seed=3):
    """A random smooth non-solution (phi, A) on the u1-fibered S^3 chart."""
    rng = np.random.default_rng(seed)
    grid = build_patch(target.lo, target.hi, (n, n, n), target.periodic, margin)
    th, x, y = grid.meshes()
    lx = grid.hi_eff[1] - grid.lo_eff[1]
    sx = np.sin(np.pi * (x - grid.lo_eff[1]) / lx)
    c = rng.uniform(0.5, 1.0, size=8)
    phi = np.stack([
        th + amp * c[0] * np.sin(th) * np.cos(y / 2) * sx,
        x + amp * c[1] * sx * np.cos(y / 2),
        y + amp * c[2] * np.sin(y / 2) * np.cos(th),
    ])
    A = np.zeros((1, 3) + grid.shape)
    A[0, 0] = amp * c[3] * np.cos(th) * sx
    A[0, 1] = amp * c[4] * np.sin(th) + amp * c[5] * np.cos(y / 2)
    A[0, 2] = amp * c[6] * np.cos(th) * np.sin(y / 2)
    g = np.zeros((3, 3) + grid.shape)
    g[0, 0] = g[1, 1] = g[2, 2] = 1.0
    g[0, 1] = g[1, 0] = 0.1 * np.sin(th)
    return from_arrays(grid, target, phi, A, g, phi_winding=np.eye(3))


def smooth_adjoint_configuration(target, n=32, seed=5, amp=0.25, box=(0.0, 1.0)):
    """A random smooth adjoint-target configuration on a non-periodic unit box."""
    rng = np.random.default_rng(seed)
    grid = build_patch((box[0],) * 3, (box[1],) * 3, (n, n, n), (False,) * 3, 0.0)
    X, Y, Z = grid.meshes()
    k = rng.uniform(0.6, 2.2, size=(4, 3))
    ph = rng.uniform(0, 2 * np.pi, size=4)
    xi = 1.4 + amp * np.sin(k[0, 0] * X + ph[0]) * np.cos(k[0, 1] * Y) * np.cos(k[0, 2] * Z)
    u = 1.5 + amp * np.cos(k[1, 0] * X) * np.sin(k[1, 1] * Y + ph[1]) * np.cos(k[1, 2] * Z)
    v = 2.5 + amp * np.sin(k[2, 0] * X + ph[2]) * np.cos(k[2, 1] * Z)
    phi = np.stack([xi, u, v])
    A = np.zeros((3, 3) + grid.shape)
    for a in range(3):
        for l in range(3):
            A[a, l] = 0.6 * amp * np.sin(k[3, l] * X + 0.3 * a) * np.cos(
                k[3, (l + 1) % 3] * Y + 0.2 * l) * np.cos(0.8 * Z + ph[3])
    g = np.zeros((3, 3) + grid.shape)
    g[0, 0] = g[1, 1] = g[2, 2] = 1.0
    g[0, 1] = g[1, 0] = 0.1 * np.sin(X + Y)
    return from_arrays(grid, target, phi, A, g)
