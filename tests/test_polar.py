import math
import random

import pytest

from conftest import interpolate_polar, locate_by_formula, scaled_controls, validate_by_grid

from polaris import kernels
from polaris.errors import IndexOutOfRange, Infeasible, OutOfHorizon, OutsideRegion
from polaris.polar import (
    Mode,
    PolarPartition,
    RegionIndex,
    VertexControls,
    _EXIT_FACET,
    design_controller,
    eval_control,
    locate,
    region_bounds,
    validate_controller,
)

P = PolarPartition(40.0, 5, 9)


def all_modes(p, idx):
    modes = [Mode.INVARIANT, Mode.EXIT_R_PLUS, Mode.EXIT_TH_PLUS, Mode.EXIT_TH_MINUS]
    if idx.i > 1:
        modes.append(Mode.EXIT_R_MINUS)
    return modes


def interior_starts(p, idx, count, rng):
    (r_lo, r_hi, th_lo, th_hi) = region_bounds(p, idx)
    starts = []
    for _ in range(count):
        r = r_lo + (0.05 + 0.9 * rng.random()) * (r_hi - r_lo)
        th = th_lo + (0.05 + 0.9 * rng.random()) * (th_hi - th_lo)
        starts.append((r * math.cos(th), r * math.sin(th)))
    return starts


def from_flat(mode, comps):
    """VertexControls from the flat (u0r, u0t, ..., u3r, u3t) components."""
    return VertexControls(mode, tuple(zip(comps[::2], comps[1::2])))


# -- partition geometry -------------------------------------------------------


def test_grid_radii_and_angles():
    assert [P.radius(i) for i in range(1, 6)] == [0.0, 10.0, 20.0, 30.0, 40.0]
    assert P.angle(1) == 0.0
    assert P.angle(9) == pytest.approx(2 * math.pi)
    assert len(list(P.regions())) == (P.n_r - 1) * (P.n_theta - 1) == 32


def test_region_bounds_first_cell():
    (r_lo, r_hi, th_lo, th_hi) = region_bounds(P, RegionIndex(1, 1))
    assert (r_lo, r_hi) == (0.0, 10.0)
    assert th_lo == 0.0
    assert th_hi == pytest.approx(math.pi / 4)


def test_region_bounds_outer_cell_hits_r_max_exactly():
    (_, r_hi, _, th_hi) = region_bounds(P, RegionIndex(4, 8))
    assert r_hi == 40.0
    assert th_hi == pytest.approx(2 * math.pi)


def test_region_bounds_index_errors():
    for bad in [RegionIndex(0, 1), RegionIndex(5, 1), RegionIndex(1, 0), RegionIndex(1, 9)]:
        with pytest.raises(IndexOutOfRange):
            region_bounds(P, bad)


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        PolarPartition(0.0, 5, 9)
    with pytest.raises(ValueError):
        PolarPartition(10.0, 1, 9)


@pytest.mark.parametrize("r_max", [5e-324, 1e-321])
def test_partitions_whose_steps_underflow_rejected(r_max):
    # 5e-324 / 4 rounds to a zero radial step; 1e-321 * 1e-3 to a zero floor
    with pytest.raises(ValueError, match="too small"):
        PolarPartition(r_max, 5, 9)


def test_locate_origin_ties_to_first_region():
    assert locate(P, 0.0, 0.0) == RegionIndex(1, 1)


def test_locate_formula_point():
    th = 3 * math.pi / 8
    x, y = 15 * math.cos(th), 15 * math.sin(th)
    assert locate(P, x, y) == RegionIndex(2, 2)


def test_locate_boundary_ties_toward_lower_index():
    assert locate(P, 10.0, 0.0) == RegionIndex(1, 1)
    x, y = 15 * math.cos(math.pi / 4), 15 * math.sin(math.pi / 4)
    assert locate(P, x, y) == RegionIndex(2, 1)


def test_locate_beyond_horizon():
    with pytest.raises(OutOfHorizon):
        locate(P, 40.0 + 1e-9, 0.0)
    assert locate(P, 40.0, 0.0) == RegionIndex(4, 1)


@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_locate_rejects_nan_as_beyond_the_horizon(point):
    with pytest.raises(OutOfHorizon):
        locate(P, *point)


def test_locate_region_midpoints_round_trip():
    for idx in P.regions():
        (r_lo, r_hi, th_lo, th_hi) = region_bounds(P, idx)
        r, th = (r_lo + r_hi) / 2, (th_lo + th_hi) / 2
        assert locate(P, r * math.cos(th), r * math.sin(th)) == idx


ORACLE_PARTITIONS = [
    PolarPartition(50.0, 21, 9),
    PolarPartition(50.0, 24, 36),
    PolarPartition(40.0, 4, 2),
    PolarPartition(40.0, 5, 9),
    PolarPartition(1.0, 7, 5),
    # r_max / delta_r and 2*pi / delta_theta round above n_r - 1 and
    # n_theta - 1, so the horizon and the angle 2*pi need the upper clamps
    PolarPartition(50.0, 30, 62),
]


def located(f, p, x, y):
    try:
        return f(p, x, y)
    except OutOfHorizon:
        return "beyond"


def boundary_points(p):
    """The origin, every grid radius and grid angle, angles just below
    2*pi and the horizon itself."""
    below_two_pi = math.nextafter(2.0 * math.pi, 0.0)
    points = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    radii = [k * p.delta_r for k in range(p.n_r)] + [p.radius(i) for i in range(1, p.n_r + 1)]
    angles = [j * p.delta_theta for j in range(p.n_theta)]
    angles += [p.angle(j) for j in range(1, p.n_theta + 1)] + [math.pi, below_two_pi]
    for r in radii + [p.r_max, math.nextafter(p.r_max, 0.0)]:
        points += [(r, 0.0), (r, -0.0), (r, -1e-12), (r, -5e-324), (-r, -0.0)]
        points += [(r * math.cos(th), r * math.sin(th)) for th in angles]
    points += [(0.0, p.r_max), (-p.r_max, 0.0), (0.0, -p.r_max)]
    return points


@pytest.mark.parametrize("p", ORACLE_PARTITIONS, ids=lambda p: f"{p.r_max:g},{p.n_r},{p.n_theta}")
def test_locate_matches_the_clamped_formula(p):
    rng = random.Random(13)
    span = 1.1 * p.r_max
    points = boundary_points(p)
    points += [(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(3000)]
    for (x, y) in points:
        assert located(locate, p, x, y) == located(locate_by_formula, p, x, y), (x, y)
    assert located(locate, p, p.r_max, 0.0) == RegionIndex(p.n_r - 1, 1)
    assert located(locate, p, math.nextafter(p.r_max, math.inf), 0.0) == "beyond"


# -- controller design and evaluation -----------------------------------------


def test_bilinear_weights_example():
    vc = design_controller(P, RegionIndex(2, 2), Mode.INVARIANT, 2.0)
    alpha, beta = 0.25, 0.5
    w = (
        (1 - alpha) * (1 - beta),
        alpha * (1 - beta),
        alpha * beta,
        (1 - alpha) * beta,
    )
    assert w == (0.375, 0.125, 0.125, 0.375)
    (ur, ut) = interpolate_polar(vc, alpha, beta)
    want_ur = sum(wi * ui[0] for wi, ui in zip(w, vc.u))
    assert ur == pytest.approx(want_ur)


def test_weights_sum_to_one_and_stay_in_unit_interval():
    rng = random.Random(7)
    vc = design_controller(P, RegionIndex(3, 4), Mode.INVARIANT, 2.0)
    for _ in range(200):
        alpha, beta = rng.random(), rng.random()
        w = (
            (1 - alpha) * (1 - beta),
            alpha * (1 - beta),
            alpha * beta,
            (1 - alpha) * beta,
        )
        assert sum(w) == pytest.approx(1.0, abs=1e-9)
        assert all(-1e-9 <= wi <= 1 + 1e-9 for wi in w)


def test_eval_at_vertex_returns_vertex_vector():
    idx = RegionIndex(2, 1)
    vc = design_controller(P, idx, Mode.EXIT_R_MINUS, 2.0)
    (r_lo, _, th_lo, _) = region_bounds(P, idx)
    x, y = r_lo * math.cos(th_lo), r_lo * math.sin(th_lo)
    (vx, vy) = eval_control(P, idx, vc, x, y)
    # vertex v0 carries (-2, 0) in polar components; at th_lo = 0 that is
    # straight inward along -x
    assert vx == pytest.approx(-2.0)
    assert vy == pytest.approx(0.0, abs=1e-12)


def test_eval_at_center_is_vertex_mean():
    idx = RegionIndex(2, 3)
    vc = design_controller(P, idx, Mode.INVARIANT, 2.0)
    (r_lo, r_hi, th_lo, th_hi) = region_bounds(P, idx)
    r, th = (r_lo + r_hi) / 2, (th_lo + th_hi) / 2
    (ur, ut) = interpolate_polar(vc, 0.5, 0.5)
    mean_r = sum(u[0] for u in vc.u) / 4
    mean_t = sum(u[1] for u in vc.u) / 4
    assert (ur, ut) == (pytest.approx(mean_r), pytest.approx(mean_t))
    (vx, vy) = eval_control(P, idx, vc, r * math.cos(th), r * math.sin(th))
    want_vx = mean_r * math.cos(th) - mean_t * math.sin(th)
    want_vy = mean_r * math.sin(th) + mean_t * math.cos(th)
    assert (vx, vy) == (pytest.approx(want_vx), pytest.approx(want_vy))
    # away from the r_eps clamp, the field that eval_control returns (and
    # simulate integrates) is the interpolation of the vertex values whose
    # signs validate_controller checks, rotated into Cartesian components
    rng = random.Random(19)
    for idx in (RegionIndex(1, 5), RegionIndex(2, 3), RegionIndex(4, 8)):
        (r_lo, r_hi, th_lo, th_hi) = region_bounds(P, idx)
        for _ in range(200):
            vc = from_flat(Mode.INVARIANT, [rng.uniform(-2.0, 2.0) for _ in range(8)])
            (alpha, beta) = (0.01 + 0.99 * rng.random(), rng.random())
            r = r_lo + alpha * (r_hi - r_lo)
            th = th_lo + beta * (th_hi - th_lo)
            (vx, vy) = eval_control(P, idx, vc, r * math.cos(th), r * math.sin(th))
            ur = vx * math.cos(th) + vy * math.sin(th)
            ut = vy * math.cos(th) - vx * math.sin(th)
            (want_ur, want_ut) = interpolate_polar(vc, alpha, beta)
            assert ur == pytest.approx(want_ur, abs=1e-12), (idx, vc, alpha, beta)
            assert ut == pytest.approx(want_ut, abs=1e-12), (idx, vc, alpha, beta)


def test_eval_outside_region_raises():
    idx = RegionIndex(2, 1)
    vc = design_controller(P, idx, Mode.INVARIANT, 2.0)
    with pytest.raises(OutsideRegion):
        eval_control(P, idx, vc, 35.0, 0.0)
    th_bad = math.pi  # far outside sector 1
    with pytest.raises(OutsideRegion):
        eval_control(P, idx, vc, 15 * math.cos(th_bad), 15 * math.sin(th_bad))


@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
def test_eval_control_rejects_nan_point(point):
    p = PolarPartition(50.0, 6, 9)
    idx = RegionIndex(3, 2)
    vc = design_controller(p, idx, Mode.INVARIANT, 2.0)
    with pytest.raises(OutsideRegion):
        eval_control(p, idx, vc, *point)


@pytest.mark.parametrize("j", [1, 4, 8])
def test_eval_control_is_continuous_across_the_angular_facets(j):
    # a point a hair past th_lo gets the th_lo facet's value and one past
    # th_hi the th_hi facet's value, even where the angular offset wraps
    # to nearly 2*pi (at j = 1, an angle of -1e-12 once read 15 m/s from
    # vertex vectors of norm sqrt(2))
    p = PolarPartition(50.0, 6, 9)
    idx = RegionIndex(3, j)
    (r_lo, r_hi, th_lo, th_hi) = region_bounds(p, idx)
    r = (r_lo + r_hi) / 2
    vc = design_controller(p, idx, Mode.INVARIANT, 2.0)
    norm = max(math.hypot(ur, ut) for (ur, ut) in vc.u)
    for facet in (th_lo, th_hi):
        on = eval_control(p, idx, vc, r * math.cos(facet), r * math.sin(facet))
        for d in (-1e-12, 1e-12):
            th = facet + d
            past = eval_control(p, idx, vc, r * math.cos(th), r * math.sin(th))
            assert math.hypot(*past) <= norm
            assert past == (pytest.approx(on[0], abs=1e-9), pytest.approx(on[1], abs=1e-9))


def test_design_rejects_inward_exit_from_first_ring():
    with pytest.raises(Infeasible):
        design_controller(P, RegionIndex(1, 1), Mode.EXIT_R_MINUS, 2.0)


def design_by_chain(p, idx, mode, speed, kappa):
    """The hand-written mode chain that ``design_controller`` replaced with
    its facet table, kept as the oracle for the table."""
    if mode is Mode.EXIT_R_MINUS and idx.i == 1:
        raise Infeasible("the innermost ring has no inward exit facet")
    if mode in (Mode.EXIT_TH_PLUS, Mode.EXIT_TH_MINUS) and p.n_theta == 2:
        raise Infeasible("a full-circle sector has no angular exit facet")
    if mode is Mode.EXIT_R_PLUS:
        vec = (speed, 0.0)
    elif mode is Mode.EXIT_R_MINUS:
        vec = (-speed, 0.0)
    elif mode is Mode.EXIT_TH_PLUS:
        vec = (0.0, speed)
    elif mode is Mode.EXIT_TH_MINUS:
        vec = (0.0, -speed)
    else:
        m = kappa * speed
        inner_r = 0.0 if idx.i == 1 else m
        mt = 0.0 if p.n_theta == 2 else m
        return VertexControls(mode, ((inner_r, mt), (-m, mt), (-m, -mt), (inner_r, -mt)))
    return VertexControls(mode, (vec, vec, vec, vec))


CHAIN_EXIT_CODES = {
    Mode.INVARIANT: kernels.INSIDE,
    Mode.EXIT_R_PLUS: kernels.EXIT_R_PLUS,
    Mode.EXIT_R_MINUS: kernels.EXIT_R_MINUS,
    Mode.EXIT_TH_PLUS: kernels.EXIT_TH_PLUS,
    Mode.EXIT_TH_MINUS: kernels.EXIT_TH_MINUS,
}


@pytest.mark.parametrize(
    "p",
    [PolarPartition(50.0, 6, 9), PolarPartition(50.0, 21, 9), PolarPartition(40.0, 4, 2)],
    ids=lambda p: f"{p.n_r - 1}x{p.n_theta - 1}",
)
def test_design_from_the_facet_table_matches_the_mode_chain(p):
    infeasible = set()
    for idx in p.regions():
        for mode in Mode:
            for (speed, kappa) in ((2.0, 0.5), (0.7, 1.0), (3.25, 0.3)):
                try:
                    want = design_by_chain(p, idx, mode, speed, kappa)
                except Infeasible:
                    with pytest.raises(Infeasible):
                        design_controller(p, idx, mode, speed, kappa)
                    infeasible.add((idx.i == 1, mode))
                    continue
                got = design_controller(p, idx, mode, speed, kappa)
                # repr tells a signed zero from 0.0, which == does not
                assert repr(got) == repr(want), (idx, mode, speed, kappa)
                assert got.exit_code == CHAIN_EXIT_CODES[mode]
    if p.n_theta == 2:
        assert infeasible == {
            (inner, mode) for inner in (True, False)
            for mode in (Mode.EXIT_TH_PLUS, Mode.EXIT_TH_MINUS)
        } | {(True, Mode.EXIT_R_MINUS)}
    else:
        assert infeasible == {(True, Mode.EXIT_R_MINUS)}


def test_design_rejects_bad_speed():
    for speed in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            design_controller(P, RegionIndex(2, 1), Mode.INVARIANT, speed)
    for kappa in (0.0, 1.5):
        with pytest.raises(ValueError, match="kappa"):
            design_controller(P, RegionIndex(2, 1), Mode.INVARIANT, 2.0, kappa)


def test_exit_r_minus_has_inward_radial_at_all_vertices():
    vc = design_controller(P, RegionIndex(3, 2), Mode.EXIT_R_MINUS, 2.0)
    assert all(ur < 0 for (ur, _) in vc.u)


def test_exit_th_plus_signs():
    vc = design_controller(P, RegionIndex(2, 3), Mode.EXIT_TH_PLUS, 2.0)
    assert all(ut > 0 for (_, ut) in vc.u)
    # outer-edge vertices v1, v2 must not push outward; inner v0, v3 not inward
    assert vc.u[1][0] <= 0 and vc.u[2][0] <= 0
    assert vc.u[0][0] >= 0 and vc.u[3][0] >= 0


def test_validate_all_modes_all_regions():
    for idx in P.regions():
        for mode in all_modes(P, idx):
            vc = design_controller(P, idx, mode, 2.0)
            result = validate_controller(P, idx, vc)
            assert result, (idx, mode, result.violations)


def test_validate_catches_flipped_exit_vertex():
    idx = RegionIndex(3, 2)
    vc = design_controller(P, idx, Mode.EXIT_R_MINUS, 2.0)
    broken = vc.__class__(vc.mode, ((2.0, 0.0),) + vc.u[1:])
    result = validate_controller(P, idx, broken)
    assert not result
    assert any(v.startswith("r-") for v in result.violations)


def test_validate_is_scale_invariant_for_invariant_mode():
    idx = RegionIndex(2, 5)
    vc = design_controller(P, idx, Mode.INVARIANT, 2.0)
    assert validate_controller(P, idx, scaled_controls(vc, 0.1))


def test_validate_flags_illegal_inward_exit():
    vc = design_controller(P, RegionIndex(2, 1), Mode.EXIT_R_MINUS, 2.0)
    result = validate_controller(P, RegionIndex(1, 1), vc)
    assert not result


def test_validate_rejects_nan_vertex_component():
    # the second cell is a full disk: its centre vertices v0, v3 lie on no
    # facet
    for (p, idx) in (
        (PolarPartition(50.0, 6, 9), RegionIndex(2, 2)),
        (PolarPartition(40.0, 4, 2), RegionIndex(1, 1)),
    ):
        for mode in (Mode.INVARIANT, Mode.EXIT_R_PLUS):
            flat = design_controller(p, idx, mode, 2.0).flat()
            for k in range(8):
                broken = from_flat(mode, flat[:k] + (math.nan,) + flat[k + 1:])
                assert not validate_controller(p, idx, broken), (p, idx, mode, k)


# vertex values on and next to the sign boundary: signed zeros, values
# inside the grid oracle's 1e-12 tolerance and the smallest subnormals
EDGE_VALUES = (0.0, -0.0, 1e-13, -1e-13, 5e-324, -5e-324)


def perturbed_controls(rng, p, idx, mode):
    """The designed controller (all zeros where the mode is infeasible)
    with about one vertex component in five replaced by an edge value or a
    draw from [-2, 2]."""
    try:
        flat = design_controller(p, idx, mode, rng.uniform(0.5, 3.0)).flat()
    except Infeasible:
        flat = (0.0,) * 8
    comps = [
        c if rng.random() >= 0.2
        else rng.choice(EDGE_VALUES) if rng.random() < 0.5
        else rng.uniform(-2.0, 2.0)
        for c in flat
    ]
    return from_flat(mode, comps)


def test_grid_oracle_never_fails_where_vertex_checks_pass():
    rng = random.Random(17)
    partitions = (P, PolarPartition(40.0, 3, 3), PolarPartition(40.0, 4, 2))
    modes = list(Mode)
    passed = set()
    caught = set()
    for n in range(3000):
        p = partitions[n % 3]
        mode = modes[n // 3 % len(modes)]
        i = 1 if rng.random() < 0.3 else rng.randint(2, p.n_r - 1)
        idx = RegionIndex(i, rng.randint(1, p.n_theta - 1))
        vc = perturbed_controls(rng, p, idx, mode)
        grid = validate_by_grid(p, idx, vc)
        if validate_controller(p, idx, vc):
            assert grid == [], (p, idx, vc, grid)
            passed.add((mode, i == 1, p.n_theta == 2))
        caught.update((mode, name) for (name, _, _) in grid)
    # certified cases in every mode, in and outside the innermost ring,
    # with and without angular facets (no angular exit without them)
    assert passed == {
        (mode, inner, full_circle)
        for mode in modes
        for inner in (True, False)
        for full_circle in (True, False)
        if not (inner and mode is Mode.EXIT_R_MINUS)
        and not (full_circle and mode in (Mode.EXIT_TH_PLUS, Mode.EXIT_TH_MINUS))
    }
    # and the oracle sees an outward sample on every non-exit facet
    assert caught == {
        (mode, name)
        for mode in modes
        for name in ("r+", "r-", "th+", "th-")
        if name != _EXIT_FACET.get(mode)
    }


# -- trajectory-level properties ----------------------------------------------


def test_exit_controllers_leave_through_designated_edge_only():
    rng = random.Random(11)
    for idx in [RegionIndex(1, 1), RegionIndex(2, 3), RegionIndex(4, 8)]:
        (r_lo, r_hi, th_lo, th_hi) = region_bounds(P, idx)
        span = th_hi - th_lo
        for mode in all_modes(P, idx):
            if mode is Mode.INVARIANT:
                continue
            vc = design_controller(P, idx, mode, 2.0)
            for (x0, y0) in interior_starts(P, idx, 10, rng):
                (code, steps, _, _) = kernels.integrate_cell(
                    r_lo, r_hi, th_lo, span, vc.flat(), x0, y0, 0.02, 100000, P.r_eps
                )
                assert code == vc.exit_code, (idx, mode, (x0, y0))
                assert steps < 100000


def test_invariant_controller_keeps_trajectories_inside():
    rng = random.Random(13)
    for idx in [RegionIndex(1, 2), RegionIndex(3, 5)]:
        (r_lo, r_hi, th_lo, th_hi) = region_bounds(P, idx)
        span = th_hi - th_lo
        vc = design_controller(P, idx, Mode.INVARIANT, 2.0)
        for (x0, y0) in interior_starts(P, idx, 5, rng):
            (code, steps, x, y) = kernels.integrate_cell(
                r_lo, r_hi, th_lo, span, vc.flat(), x0, y0, 0.02, 10000, P.r_eps
            )
            assert code == kernels.INSIDE
            assert steps == 10000
            assert locate(P, x, y) == idx
