"""Polar partition of the motion disk and per-region vertex controllers.

Each follower's motion is abstracted over a disk of radius ``r_max``
partitioned by ``n_r`` radial and ``n_theta`` angular grid lines into
(n_r-1)(n_theta-1) annular sectors.  A region controller is specified by a
velocity vector at each of the region's four vertices; the field anywhere
inside is the bilinear interpolation of the vertex values in (r, theta)
coordinates, which makes facet-crossing behavior decidable from vertex
signs alone:

* invariant mode pushes strictly inward across every facet, so trajectories
  never leave;
* an exit mode pushes outward across the designated facet at every vertex
  and never outward across the others, so trajectories leave through the
  designated facet only.

Vertex order: v0 = (r_lo, th_lo), v1 = (r_hi, th_lo), v2 = (r_hi, th_hi),
v3 = (r_lo, th_hi).  The innermost ring has no inner facet (the disk
center); inward exits from it are rejected.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import NamedTuple

from . import kernels
from .kernels import TWO_PI
from .errors import IndexOutOfRange, Infeasible, OutOfHorizon, OutsideRegion

__all__ = [
    "PolarPartition",
    "RegionIndex",
    "Mode",
    "VertexControls",
    "ValidationResult",
    "region_bounds",
    "locate",
    "design_controller",
    "eval_control",
    "validate_controller",
]

DEFAULT_KAPPA = 0.5

# how far outside its region, as a fraction of r_max, eval_control
# accepts a point
_POINT_TOL = 1e-6


class _PartitionFields(NamedTuple):
    r_max: float
    n_r: int
    n_theta: int


class PolarPartition(_PartitionFields):
    """Disk radius plus the counts of radial and angular grid lines,
    validated on construction."""

    __slots__ = ()

    def __new__(cls, r_max: float, n_r: int, n_theta: int):
        self = tuple.__new__(cls, (r_max, n_r, n_theta))
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError("r_max must be positive and finite")
        if self.n_r < 2 or self.n_theta < 2:
            raise ValueError("need at least two grid lines in each direction")
        if not (self.delta_r > 0 and self.r_eps > 0):
            raise ValueError(
                f"r_max {self.r_max!r} is too small: its radial step or radius "
                "floor underflows to zero"
            )
        return self

    @classmethod
    def _make(cls, fields):
        # ``_replace`` builds through here, so it validates too
        return cls(*fields)

    @property
    def delta_r(self) -> float:
        return self.r_max / (self.n_r - 1)

    @property
    def delta_theta(self) -> float:
        return TWO_PI / (self.n_theta - 1)

    @property
    def r_eps(self) -> float:
        """Radius floor for the angular rate near the disk center."""
        return self.r_max * 1e-3

    def radius(self, i: int) -> float:
        return self.r_max * (i - 1) / (self.n_r - 1)

    def angle(self, j: int) -> float:
        return TWO_PI * (j - 1) / (self.n_theta - 1)

    def regions(self):
        for i in range(1, self.n_r):
            for j in range(1, self.n_theta):
                yield RegionIndex(i, j)


class RegionIndex(NamedTuple):
    """Address (i, j) of the region between grid radii i, i+1 and grid
    angles j, j+1 (both 1-based)."""

    i: int
    j: int


def _check_index(p: PolarPartition, idx: RegionIndex) -> None:
    if not (1 <= idx.i <= p.n_r - 1 and 1 <= idx.j <= p.n_theta - 1):
        raise IndexOutOfRange(f"region {idx} outside {p.n_r - 1}x{p.n_theta - 1} grid")


def region_bounds(p: PolarPartition, idx: RegionIndex):
    """Bounds (r_lo, r_hi, th_lo, th_hi) of the region.

    th_lo lies in [0, 2*pi); th_hi equals th_lo plus the sector span and is
    2*pi for the last sector of a full circle.
    """
    _check_index(p, idx)
    return (p.radius(idx.i), p.radius(idx.i + 1), p.angle(idx.j), p.angle(idx.j + 1))


def locate(p: PolarPartition, x: float, y: float) -> RegionIndex:
    """Region containing the point, ties broken toward the lower index.

    The indices are the ceilings of the radius and the angle in [0, 2*pi)
    over the grid steps, clamped to the grid.  A point beyond the horizon,
    or with a NaN coordinate, raises :class:`OutOfHorizon`.
    """
    r = math.hypot(x, y)
    if not r <= p.r_max:  # beyond the horizon, or NaN
        raise OutOfHorizon(f"point at radius {r:.6g} beyond horizon {p.r_max:.6g}")
    th = math.atan2(y, x)
    if th < 0.0:
        th += TWO_PI
    i = min(max(math.ceil(r / p.delta_r), 1), p.n_r - 1)
    j = min(max(math.ceil(th / p.delta_theta), 1), p.n_theta - 1)
    return RegionIndex(i, j)


class Mode(enum.Enum):
    """Control objective for one region."""

    INVARIANT = "invariant"
    EXIT_R_PLUS = "exit_r+"
    EXIT_R_MINUS = "exit_r-"
    EXIT_TH_PLUS = "exit_th+"
    EXIT_TH_MINUS = "exit_th-"


class _Facet(NamedTuple):
    """One facet of a region: the two vertices on it (order per the
    module docstring), its outward normal in polar components, the exit
    mode that leaves through it and ``integrate_cell``'s code for a
    crossing."""

    verts: tuple
    normal: tuple
    mode: Mode
    code: int


_FACETS = {
    "r+": _Facet((1, 2), (1.0, 0.0), Mode.EXIT_R_PLUS, kernels.EXIT_R_PLUS),
    "r-": _Facet((0, 3), (-1.0, 0.0), Mode.EXIT_R_MINUS, kernels.EXIT_R_MINUS),
    "th+": _Facet((2, 3), (0.0, 1.0), Mode.EXIT_TH_PLUS, kernels.EXIT_TH_PLUS),
    "th-": _Facet((0, 1), (0.0, -1.0), Mode.EXIT_TH_MINUS, kernels.EXIT_TH_MINUS),
}

# exit mode -> name of the facet it leaves through
_EXIT_FACET = {f.mode: name for (name, f) in _FACETS.items()}


class VertexControls(NamedTuple):
    """Mode plus the four polar vertex vectors (u_r, u_theta) in m/s."""

    mode: Mode
    u: tuple

    def flat(self) -> tuple:
        (u0, u1, u2, u3) = self.u
        return (u0[0], u0[1], u1[0], u1[1], u2[0], u2[1], u3[0], u3[1])

    @property
    def exit_code(self) -> int:
        exit_facet = _EXIT_FACET.get(self.mode)
        return kernels.INSIDE if exit_facet is None else _FACETS[exit_facet].code


def _facets_of(p: PolarPartition, idx: RegionIndex):
    """Facet names that exist for this region (no inner facet at i = 1)."""
    names = ["r+", "th+", "th-"] if idx.i == 1 else ["r+", "r-", "th+", "th-"]
    if p.n_theta == 2:
        # a single full-circle sector has no angular facets
        names = [f for f in names if not f.startswith("th")]
    return names


def design_controller(
    p: PolarPartition,
    idx: RegionIndex,
    mode: Mode,
    speed: float,
    kappa: float = DEFAULT_KAPPA,
) -> VertexControls:
    """Pick vertex vectors realizing the requested mode at the given speed.

    Exit modes push at full speed along the exit facet's outward normal at
    every vertex, so the orthogonal component is zero and no other facet
    is ever crossed; a mode whose exit facet the region lacks (see
    :func:`_facets_of`) raises :class:`Infeasible`.  Invariant mode points
    each vertex vector inward across both incident facets with margin
    kappa*speed per component; at the innermost ring the radial component
    on the center vertices is dropped (no inner facet), so trajectories
    sink toward the desired position and stall there.
    """
    _check_index(p, idx)
    if not (math.isfinite(speed) and speed > 0.0):
        raise ValueError("speed must be positive and finite")
    if not 0.0 < kappa <= 1.0:
        raise ValueError("kappa must be in (0, 1]")
    if mode is Mode.INVARIANT:
        m = kappa * speed
        inner_r = 0.0 if idx.i == 1 else m
        mt = 0.0 if p.n_theta == 2 else m
        return VertexControls(mode, ((inner_r, mt), (-m, mt), (-m, -mt), (inner_r, -mt)))
    exit_facet = _EXIT_FACET[mode]
    if exit_facet not in _facets_of(p, idx):
        raise Infeasible(f"region ({idx.i},{idx.j}) has no {exit_facet} facet to exit through")
    (nr, nt) = _FACETS[exit_facet].normal
    vec = (speed * nr, speed * nt)
    return VertexControls(mode, (vec, vec, vec, vec))


@lru_cache(maxsize=4096)
def cached_controller(
    p: PolarPartition, idx: RegionIndex, mode: Mode, speed: float, kappa: float
) -> VertexControls:
    return design_controller(p, idx, mode, speed, kappa)


def eval_control(
    p: PolarPartition,
    idx: RegionIndex,
    vc: VertexControls,
    x: float,
    y: float,
):
    """Cartesian velocity of the interpolated field at a point of the region.

    The point must lie in the region within ``_POINT_TOL * r_max``, and a
    point just outside gets the value on its nearest facet (the clamped
    field of ``kernels.eval_cell``); the angular rate uses the radius
    clamped below at the partition's r_eps, tapering the tangential term
    near the center.
    """
    tol = _POINT_TOL * p.r_max
    (r_lo, r_hi, th_lo, th_hi) = region_bounds(p, idx)
    span = th_hi - th_lo
    r = math.hypot(x, y)
    if not (r_lo - tol <= r <= r_hi + tol):
        raise OutsideRegion(f"radius {r:.9g} outside [{r_lo:.9g}, {r_hi:.9g}]")
    if span < TWO_PI - 1e-12:
        th = math.atan2(y, x)
        rel = math.fmod(th - th_lo, TWO_PI)
        if rel < 0.0:
            rel += TWO_PI
        if rel > span:
            # distance past the nearer angular facet, as arc length
            excess = min(rel - span, TWO_PI - rel)
            if excess * max(r, p.r_eps) > tol:
                raise OutsideRegion(
                    f"angle {rel + th_lo:.9g} outside sector [{th_lo:.9g}, {th_hi:.9g}]"
                )
    return kernels.eval_cell(r_lo, r_hi, th_lo, span, vc.flat(), x, y, p.r_eps)


class ValidationResult(NamedTuple):
    violations: tuple

    def __bool__(self):
        return not self.violations


def validate_controller(
    p: PolarPartition, idx: RegionIndex, vc: VertexControls
) -> ValidationResult:
    """Certify the controller's postconditions from its vertex values.

    The field is bilinear in the cell coordinates, and each facet normal
    is a polar unit axis, so on a facet the normal component is a convex
    combination of the values at that facet's two vertices (the vertex
    result for multi-affine fields on rectangles: C. Belta and L. Habets,
    IEEE TAC 51(11), 2006).  The vertex signs therefore decide the whole
    facet: an exit controller must point strictly outward across its exit
    facet at every vertex and never outward across another facet at that
    facet's vertices; an invariant controller must point strictly inward
    at every facet vertex.  The sign tests are scale-invariant and a NaN
    fails them.  A non-finite component fails the check at any vertex,
    including the centre vertices of a full-circle innermost cell, which
    lie on no facet.  Returns the violations found.
    """
    _check_index(p, idx)
    violations = []
    facets = _facets_of(p, idx)
    exit_facet = _EXIT_FACET.get(vc.mode)

    if exit_facet is not None and exit_facet not in facets:
        return ValidationResult((f"{exit_facet} (absent)",))
    if not all(map(math.isfinite, vc.flat())):
        violations.append("non-finite vertex value")

    for name in facets:
        (verts, normal, _, _) = _FACETS[name]
        if name == exit_facet:
            for v in range(4):
                dot = vc.u[v][0] * normal[0] + vc.u[v][1] * normal[1]
                if not dot > 0.0:
                    violations.append(f"{name} (exit, vertex v{v})")
        else:
            strict = vc.mode is Mode.INVARIANT
            for v in verts:
                dot = vc.u[v][0] * normal[0] + vc.u[v][1] * normal[1]
                if not ((dot < 0.0) if strict else (dot <= 0.0)):
                    violations.append(f"{name} (vertex v{v})")

    return ValidationResult(tuple(violations))
