import math
import random

import pytest

from polaris import kernels
from polaris.errors import Infeasible
from polaris.polar import TWO_PI, Mode, PolarPartition, design_controller, region_bounds

from conftest import classify, integrate_by_steps


def random_cell(rng):
    r_lo = rng.uniform(0.0, 40.0)
    r_hi = r_lo + rng.uniform(0.5, 10.0)
    th_lo = rng.uniform(0.0, 2 * math.pi)
    span = rng.uniform(0.3, 2.0)
    u = tuple(rng.uniform(-2.0, 2.0) for _ in range(8))
    return (r_lo, r_hi, th_lo, span, u)


def test_integrate_many_matches_scalar_loop():
    rng = random.Random(9)
    (r_lo, r_hi, th_lo, span, u) = random_cell(rng)
    starts = []
    for _ in range(20):
        r = rng.uniform(r_lo + 0.1, r_hi - 0.1)
        th = th_lo + rng.uniform(0.1, span - 0.1)
        starts.append((r * math.cos(th), r * math.sin(th)))
    many = kernels.integrate_many(r_lo, r_hi, th_lo, span, u, starts, 0.02, 2000, 0.05)
    single = [
        kernels.integrate_cell(r_lo, r_hi, th_lo, span, u, x, y, 0.02, 2000, 0.05)
        for (x, y) in starts
    ]
    assert many == single


# (r_lo, r_hi, th_lo, span, x, y, r_eps) on which the field divides by zero
ZERO_DIVISORS = (
    (5.0, 5.0, 0.0, 1.0, 4.0, 1.0, 0.05),  # r_hi == r_lo
    (1.0, 5.0, 0.0, 0.0, 4.0, 1.0, 0.05),  # zero span
    (0.0, 5.0, 0.0, 1.0, 0.0, 0.0, 0.0),  # r == r_eps == 0
)


def test_eval_cell_raises_on_zero_divisors():
    u = (1.0,) * 8
    for (r_lo, r_hi, th_lo, span, x, y, r_eps) in ZERO_DIVISORS:
        with pytest.raises(ZeroDivisionError):
            kernels.eval_cell(r_lo, r_hi, th_lo, span, u, x, y, r_eps)


def test_integrate_cell_raises_on_the_same_zero_divisors():
    u = (1.0,) * 8
    for (r_lo, r_hi, th_lo, span, x, y, r_eps) in ZERO_DIVISORS:
        for max_steps in (1, 2, 500):
            with pytest.raises(ZeroDivisionError):
                kernels.integrate_cell(r_lo, r_hi, th_lo, span, u, x, y, 0.1, max_steps, r_eps)
        # no step, no field evaluation: the start comes back untouched
        result = kernels.integrate_cell(r_lo, r_hi, th_lo, span, u, x, y, 0.1, 0, r_eps)
        assert result == (kernels.INSIDE, 0, x, y)


def test_an_inside_run_ending_on_the_origin_raises_when_r_eps_is_zero():
    # integrate_cell computes the field of an INSIDE run's last point and
    # drops it, so with r_eps == 0, which no partition has, a last step
    # onto the origin divides by zero where the stepwise oracle returns
    u = (-1.0, 0.0) * 4
    args = (0.0, 5.0, 0.0, 1.0, u, 0.5, 0.0, 0.5, 1)
    assert integrate_by_steps(*args, 0.0) == (kernels.INSIDE, 1, 0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        kernels.integrate_cell(*args, 0.0)
    assert kernels.integrate_cell(*args, 0.05) == (kernels.INSIDE, 1, 0.0, 0.0)


# a full circle, and a span just inside the full-circle cutoff 2*pi - 1e-12
FULL_SPANS = (TWO_PI, TWO_PI - 1e-13)


def outcome(fn, *args):
    """repr of fn(*args), or of the exception it raises: repr tells signed
    zeros and NaNs apart, which == would not."""
    try:
        return repr(fn(*args))
    except (ZeroDivisionError, ValueError) as exc:
        return repr(exc)


def seeded_kernel_case(rng):
    """integrate_cell arguments drawn across the kernel's edge cases:
    full-circle spans, r_lo = 0 with starts at or near the origin, starts
    outside the cell, non-positive step budgets, zero divisors and NaNs."""
    r_lo = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 40.0)
    r_hi = r_lo + rng.uniform(0.5, 10.0)
    th_lo = rng.uniform(-TWO_PI, TWO_PI)
    span = rng.choice(FULL_SPANS) if rng.random() < 0.25 else rng.uniform(0.2, 6.0)
    u = tuple(rng.uniform(-3.0, 3.0) for _ in range(8))
    r_eps = rng.choice((1e-3, 0.05, 0.5))
    dt = rng.choice((0.01, 0.1, 1.0))
    max_steps = rng.choice((-1, 0, 1, 2, 7, 500))

    where = rng.randrange(8)
    if where == 0:  # outside the annulus
        r = rng.choice((rng.uniform(r_hi, r_hi + 5.0), rng.uniform(0.0, r_lo)))
        th = th_lo + rng.uniform(0.0, span)
    elif where == 1:  # outside the angular span
        r = rng.uniform(r_lo, r_hi)
        th = th_lo + span + rng.uniform(0.0, TWO_PI - span)
    elif where == 2:  # at the origin
        r = th = 0.0
    elif where == 3:  # inside the tangential floor r_eps
        r = rng.uniform(0.0, r_eps)
        th = rng.uniform(-math.pi, math.pi)
    else:
        r = rng.uniform(r_lo, r_hi)
        th = th_lo + rng.uniform(0.0, span)
    (x0, y0) = (r * math.cos(th), r * math.sin(th))

    odd = rng.randrange(40)
    if odd == 0:
        r_hi = r_lo
    elif odd == 1:
        span = 0.0
    elif odd == 2:
        r_eps = 0.0
    elif odd == 3:
        x0 = math.nan
    elif odd == 4:
        u = (math.nan,) + u[1:]
    elif odd == 5:
        y0 = -0.0
    return (r_lo, r_hi, th_lo, span, u, x0, y0, dt, max_steps, r_eps)


def angular_edge_cases(rng):
    """Still starts (zero field) at the angular edges: inside the 1e-13 gap
    that a span just short of 2*pi leaves, and on either side of the
    complement-arc midpoint that splits th+ exits from th- exits."""
    still = (0.0,) * 8
    for _ in range(100):
        r = rng.uniform(1.0, 20.0)
        th_lo = rng.uniform(-math.pi, math.pi)
        th = th_lo - rng.uniform(1e-14, 9e-14)
        yield (0.0, 30.0, th_lo, FULL_SPANS[1], still,
               r * math.cos(th), r * math.sin(th), 0.1, rng.choice((1, 5)), 0.05)
        span = rng.uniform(0.2, 6.0)
        th = th_lo + span + rng.uniform(0.0, TWO_PI - span)
        yield (0.0, 30.0, th_lo, span, still,
               r * math.cos(th), r * math.sin(th), 0.1, 1, 0.05)


def test_integrate_cell_matches_the_stepwise_oracle():
    rng = random.Random(15)
    cases = [seeded_kernel_case(rng) for _ in range(3200)]
    cases += angular_edge_cases(rng)
    outcomes = []
    for args in cases:
        expected = outcome(integrate_by_steps, *args)
        assert outcome(kernels.integrate_cell, *args) == expected, args
        outcomes.append(expected)
    # the cases reach every exit code, a zero divisor and NaN propagation
    assert {int(o[1]) for o in outcomes if o.startswith("(")} == {
        kernels.INSIDE, kernels.EXIT_R_PLUS, kernels.EXIT_R_MINUS,
        kernels.EXIT_TH_PLUS, kernels.EXIT_TH_MINUS,
    }
    assert any("ZeroDivisionError" in o for o in outcomes)
    assert any("nan" in o for o in outcomes)


def test_integrate_cell_matches_the_oracle_on_designed_controllers():
    # the controllers the program designs, not random gains: every region
    # and feasible mode of 6x9 and 21x9 at speed 2, from two seeded starts;
    # invariant runs stop after 200 steps, exit runs go until they leave
    rng = random.Random(34)
    codes = set()
    for p in (PolarPartition(50.0, 6, 9), PolarPartition(50.0, 21, 9)):
        for idx in p.regions():
            (r_lo, r_hi, th_lo, th_hi) = region_bounds(p, idx)
            span = th_hi - th_lo
            for mode in Mode:
                try:
                    vc = design_controller(p, idx, mode, 2.0)
                except Infeasible:
                    continue
                cap = 200 if mode is Mode.INVARIANT else 100_000
                for _ in range(2):
                    r = r_lo + (0.05 + 0.9 * rng.random()) * (r_hi - r_lo)
                    th = th_lo + (0.05 + 0.9 * rng.random()) * span
                    args = (r_lo, r_hi, th_lo, span, vc.flat(),
                            r * math.cos(th), r * math.sin(th), 0.02, cap, p.r_eps)
                    expected = outcome(integrate_by_steps, *args)
                    assert outcome(kernels.integrate_cell, *args) == expected, (p, idx, mode)
                    assert int(expected[1]) == vc.exit_code, (p, idx, mode)
                    codes.add(vc.exit_code)
    assert len(codes) == 5


def test_a_start_on_the_upper_angular_facet_stays_inside():
    # a still start whose angle offset equals the span exactly lies on the
    # th+ facet, which belongs to the cell: only a larger offset exits
    rng = random.Random(35)
    still = (0.0,) * 8
    for _ in range(50):
        r = rng.uniform(1.0, 20.0)
        th = rng.uniform(-math.pi, math.pi)
        (x0, y0) = (r * math.cos(th), r * math.sin(th))
        th_lo = rng.uniform(-math.pi, math.pi)
        span = math.atan2(y0, x0) - th_lo
        if span <= 0.0:
            span += TWO_PI
        args = (0.0, 30.0, th_lo, span, still, x0, y0, 0.1, 3, 0.05)
        expected = repr((kernels.INSIDE, 3, x0, y0))
        assert outcome(integrate_by_steps, *args) == expected, args
        assert outcome(kernels.integrate_cell, *args) == expected, args


def test_a_full_circle_clamps_every_offset_in_its_gap():
    # starts in the 1e-13 gap that a span just short of 2*pi leaves, with
    # no field on the th_lo side of the gap (the v0-v1 facet) and a small
    # radial one on the th_hi side: a point the clamp sends to th_lo must
    # stay put on every step, not only the first
    rng = random.Random(36)
    u = (0.0, 0.0, 0.0, 0.0, 1e-3, 0.0, 1e-3, 0.0)
    still = 0
    for _ in range(200):
        r = rng.uniform(1.0, 20.0)
        th_lo = rng.uniform(-math.pi, math.pi)
        th = th_lo - rng.uniform(1e-14, 9e-14)
        (x0, y0) = (r * math.cos(th), r * math.sin(th))
        args = (0.0, 30.0, th_lo, FULL_SPANS[1], u, x0, y0, 0.1, 3, 0.05)
        expected = outcome(integrate_by_steps, *args)
        assert outcome(kernels.integrate_cell, *args) == expected, args
        still += expected == repr((kernels.INSIDE, 3, x0, y0))
    assert 50 < still < 150


def test_classify_precedence_and_wrap():
    # radial exits win over angular ones
    assert classify(10.0, 20.0, 0.0, 1.0, 25.0, 0.0) == kernels.EXIT_R_PLUS
    assert classify(10.0, 20.0, 0.0, 1.0, 5.0, 0.0) == kernels.EXIT_R_MINUS
    # just past the upper angular facet
    x = 15 * math.cos(1.05)
    y = 15 * math.sin(1.05)
    assert classify(10.0, 20.0, 0.0, 1.0, x, y) == kernels.EXIT_TH_PLUS
    # just below the lower facet, approached through the wrap
    x = 15 * math.cos(-0.05)
    y = 15 * math.sin(-0.05)
    assert classify(10.0, 20.0, 0.0, 1.0, x, y) == kernels.EXIT_TH_MINUS
    # a full-circle sector has no angular facets
    assert classify(10.0, 20.0, 0.0, 2 * math.pi, x, y) == kernels.INSIDE


def test_tangential_rate_tapers_at_center():
    u = (0.0, 2.0) * 4
    (vx1, vy1) = kernels.eval_cell(0.0, 10.0, 0.0, 1.0, u, 0.001, 0.0, 0.05)
    (vx2, vy2) = kernels.eval_cell(0.0, 10.0, 0.0, 1.0, u, 1.0, 0.0, 0.05)
    assert math.hypot(vx1, vy1) < math.hypot(vx2, vy2)
    assert math.hypot(vx2, vy2) == pytest.approx(2.0)


def test_active_backend_is_exposed():
    assert kernels.BACKEND == "pure"


def fmod_edge_cases(rng):
    """integrate_cell arguments whose first angle offset ``th - th_lo`` is
    exactly ±2π, one ulp inside ±2π or a signed zero: the edges of the
    range where the kernel skips ``fmod``.  Half the cases have no field,
    so every step's offset is the first one."""
    targets = (TWO_PI, -TWO_PI, math.nextafter(TWO_PI, 0.0), math.nextafter(-TWO_PI, 0.0))
    for _ in range(40):
        r = rng.uniform(1.0, 20.0)
        th = rng.uniform(-math.pi, math.pi)
        (x0, y0) = (r * math.cos(th), r * math.sin(th))
        th = math.atan2(y0, x0)
        span = rng.choice(FULL_SPANS) if rng.random() < 0.3 else rng.uniform(0.2, 6.0)
        u = rng.choice(((0.0,) * 8, tuple(rng.uniform(-3.0, 3.0) for _ in range(8))))
        for target in targets:
            # the th_lo nearest th - target whose offset rounds to target
            th_lo = th - target
            for _ in range(4):
                if th - th_lo != target:
                    th_lo = math.nextafter(th_lo, th_lo + (th - th_lo - target))
            yield (0.0, 30.0, th_lo, span, u, x0, y0, 0.1, rng.choice((1, 3)), 0.05)
        for (y0, th_lo) in ((-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0)):
            yield (0.0, 30.0, th_lo, span, u, r, y0, 0.1, rng.choice((1, 3)), 0.05)


def test_integrate_cell_matches_the_oracle_where_fmod_is_skipped():
    # integrate_cell calls fmod only for an offset not strictly within
    # ±2π; the oracle's classify and eval_cell always call it
    offsets = set()
    for args in fmod_edge_cases(random.Random(30)):
        assert outcome(kernels.integrate_cell, *args) == outcome(integrate_by_steps, *args), args
        (th_lo, x0, y0) = (args[2], args[5], args[6])
        offsets.add(repr(math.atan2(y0, x0) - th_lo))
    edges = {TWO_PI, -TWO_PI, math.nextafter(TWO_PI, 0.0), math.nextafter(-TWO_PI, 0.0)}
    assert {repr(v) for v in edges} | {"0.0", "-0.0"} <= offsets
