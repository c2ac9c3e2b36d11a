"""Physics coefficients, Coulomb fields and right-hand-side selection.

The dielectric and screening coefficients switch on the sign of the level
set at each quadrature node (points on the surface count as molecular); no
sub-cell interface reconstruction is attempted.  The element forms built on
them (the stabilized stiffness, the screened sinh term and the loads) are
assembled batched over all cells by :class:`vempb.solver.Workspace`.

The singular Coulomb part of the potential enters the nonlinear term and
the load; it is evaluated only where the screening coefficient is nonzero,
which keeps quadrature nodes away from the charge locations (charges sit in
the unscreened molecular region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mesh import box_levelset

SINH_ARG_LIMIT = 700.0
CHARGE_SINGULARITY_TOL = 1e-14


class SingularityError(ValueError):
    """Field evaluation requested at (or too close to) a point charge."""


class NonlinearOverflow(ArithmeticError):
    """sinh/cosh argument exceeded the overflow guard; caller should damp."""


@dataclass
class PhysicsConfig:
    """Dielectric constants, screening parameter, point charges, level set.

    ``kappa`` is the Debye-Hueckel parameter; the effective screening
    coefficient is eps_s * kappa^2 in the solvent region and zero in the
    molecular region.  The level set is any callable mapping points (n, 3)
    to values (n,), negative inside the molecular region.  Charge locations
    must lie in the closed molecular region.
    """

    eps_m: float = 2.0
    eps_s: float = 80.0
    kappa: float = 1.0 / (20.0 * np.sqrt(2.0))
    charges: list[tuple[float, tuple[float, float, float]]] = field(
        default_factory=lambda: [(1.0, (0.0, 0.0, 0.0))]
    )
    levelset: Callable[[np.ndarray], np.ndarray] = field(default_factory=box_levelset)

    def __post_init__(self):
        # written so that NaN fails every test
        if not (0 < self.eps_m < np.inf and 0 < self.eps_s < np.inf):
            raise ValueError("permittivities must be positive and finite")
        if not 0 <= self.kappa < np.inf:
            raise ValueError("kappa must be non-negative and finite")
        self.charge_arrays()

    def charge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Charges q (n,) and locations x (n, 3), read from ``charges`` as it is now.

        Raises ValueError if a value is not finite or a location lies
        outside the closed molecular region of the current level set.
        """
        q = np.array([q for q, _ in self.charges], dtype=float)
        x = np.array([x for _, x in self.charges], dtype=float).reshape(-1, 3)
        if not (np.isfinite(q).all() and np.isfinite(x).all()):
            raise ValueError(f"charges must be finite, got {self.charges}")
        outside = np.nonzero(self.levelset(x) > 0)[0] if len(x) else []
        if len(outside):
            raise ValueError(
                f"charge at {self.charges[outside[0]][1]} lies outside the molecular region"
            )
        return q, x

    @property
    def kappa_bar_sq_solvent(self) -> float:
        return self.eps_s * self.kappa**2

    def solvent_mask(self, points: np.ndarray) -> np.ndarray:
        return self.levelset(np.atleast_2d(points)) > 0

    # besides tests, only perfbench/ reads this; it goes with ROADMAP item 1
    def epsilon(self, points: np.ndarray) -> np.ndarray:
        return np.where(self.solvent_mask(points), self.eps_s, self.eps_m)

    # besides tests, only perfbench/ reads this; it goes with ROADMAP item 1
    def kappa_bar_sq(self, points: np.ndarray) -> np.ndarray:
        return np.where(self.solvent_mask(points), self.kappa_bar_sq_solvent, 0.0)

    def coulomb_potential(self, points: np.ndarray) -> np.ndarray:
        """Sum of (q_i/eps_m)/|x - x_i| over the point charges."""
        pts = np.atleast_2d(points)
        out = np.zeros(len(pts))
        for q, x in zip(*self.charge_arrays()):
            _, r = _charge_offsets(pts, x)
            out += (q / self.eps_m) / r
        return out

    def coulomb_gradient(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        out = np.zeros((3, len(pts)))
        for q, x in zip(*self.charge_arrays()):
            rel, r = _charge_offsets(pts, x)
            r3 = r**3
            for j in range(3):
                out[j] -= (q / self.eps_m) * rel[j] / r3
        return out.T


def _charge_offsets(pts: np.ndarray, x: np.ndarray):
    """Coordinate columns of pts - x and the distances |pts - x|, summed column by column."""
    rel = [pts[:, j] - x[j] for j in range(3)]
    r = np.sqrt(rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2])
    if r.min() < CHARGE_SINGULARITY_TOL:
        raise SingularityError(f"evaluation at charge location {x}")
    return rel, r


@dataclass
class LoadSpec:
    """Right-hand-side selection: regularized charge splitting or manufactured.

    In regularized mode the load is the weak form of the dielectric-jump
    source: -((eps - eps_m) grad G, projected grad v).  In manufactured mode
    the load makes ``u_exact`` the exact weak solution: (eps grad u_ex,
    projected grad v) + (screened sinh(u_ex + G), projected v).

    ``u_exact`` and ``grad_u_exact`` may be called from several threads at
    once, one node block per call: each field sweep of
    :class:`vempb.solver.Workspace` that calls them starts and joins its own
    threads.  PhysicsConfig methods run only on the calling thread.
    """

    mode: str
    u_exact: Callable[[np.ndarray], np.ndarray] | None = None
    grad_u_exact: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.mode not in ("regularized", "manufactured"):
            raise ValueError(f"unknown load mode {self.mode!r}")
        if self.mode == "manufactured" and (self.u_exact is None or self.grad_u_exact is None):
            raise ValueError("manufactured mode needs u_exact and grad_u_exact")

    def boundary_values(self, points: np.ndarray) -> np.ndarray:
        if self.mode == "manufactured":
            return np.asarray(self.u_exact(np.atleast_2d(points)), dtype=float)
        return np.zeros(len(np.atleast_2d(points)))


def regularized_load() -> LoadSpec:
    return LoadSpec(mode="regularized")


def manufactured_sine() -> LoadSpec:
    """u = sin(pi x) sin(pi y) sin(pi z); vanishes on the unit-cube boundary."""

    def u(p):
        p = np.atleast_2d(p)
        return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) * np.sin(np.pi * p[:, 2])

    def grad(p):
        p = np.atleast_2d(p)
        s = np.sin(np.pi * p)
        c = np.cos(np.pi * p)
        return np.pi * np.column_stack(
            [c[:, 0] * s[:, 1] * s[:, 2], s[:, 0] * c[:, 1] * s[:, 2], s[:, 0] * s[:, 1] * c[:, 2]]
        )

    return LoadSpec(mode="manufactured", u_exact=u, grad_u_exact=grad)
