"""The regularized problem against a closed-form solution: the Born ion.

A charge q at the centre c of a sphere of radius a, eps_m inside, eps_s
outside, no screening.  The potential is q/(eps_m r) + k/a inside and
q/(eps_s r) outside, k = q (1/eps_s - 1/eps_m); less the Coulomb part
G = q/(eps_m r), the regularized unknown is u = k/a inside and k/r outside.
That u is also the Dirichlet data on the cube.

No mesh family fits a sphere, so cell faces cut the interface: the gates
bound the error of an unfitted interface, not the paper's optimal rates.
"""

import numpy as np

import vempb as vp
from vempb.solver import Workspace

CENTRE = np.array([0.5, 0.5, 0.5])
RADIUS = 0.25
Q, EPS_M, EPS_S = 1.0, 2.0, 4.0
K = Q * (1.0 / EPS_S - 1.0 / EPS_M)


def _sphere(points):
    return np.linalg.norm(np.atleast_2d(points) - CENTRE, axis=1) - RADIUS


def _born_u(points):
    r = np.linalg.norm(np.atleast_2d(points) - CENTRE, axis=1)
    return K / np.maximum(r, RADIUS)


def _born_grad(points):
    rel = np.atleast_2d(points) - CENTRE
    r = np.linalg.norm(rel, axis=1)
    return np.where((r > RADIUS)[:, None], -K * rel / np.maximum(r, RADIUS)[:, None] ** 3, 0.0)


class _BornLoad(vp.LoadSpec):
    """The regularized load with the Born ion's u as Dirichlet data."""

    def __init__(self):
        super().__init__(mode="regularized")

    def boundary_values(self, points):
        return _born_u(points)


def test_born_ion_errors_decrease_at_the_unfitted_rates():
    physics = vp.PhysicsConfig(eps_m=EPS_M, eps_s=EPS_S, kappa=0.0,
                               charges=[(Q, tuple(CENTRE))], levelset=_sphere)
    sizes, e_l2, e_h1 = [], [], []
    for n in (8, 16, 32):
        mesh = vp.generate_cube_mesh(n)
        ws = Workspace(mesh)
        u, report = vp.newton_solve(mesh, physics, _BornLoad(), workspace=ws)
        assert report.converged
        l2, h1 = ws.error_norms(u, _born_u, _born_grad)
        sizes.append(vp.mesh.mesh_size(mesh))
        e_l2.append(l2)
        e_h1.append(h1)
    assert all(b < a for a, b in zip(e_l2, e_l2[1:])), e_l2
    assert all(b < a for a, b in zip(e_h1, e_h1[1:])), e_h1
    assert vp.fitted_order(sizes, e_l2) >= 0.8, e_l2
    assert vp.fitted_order(sizes, e_h1) >= 0.4, e_h1
