import math
import random

import pytest

from polaris import kernels


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


def test_zero_divisors_raise_in_both_backends():
    u = (1.0,) * 8
    for args in (
        (5.0, 5.0, 0.0, 1.0, u, 4.0, 1.0, 0.05, True),  # r_hi == r_lo
        (1.0, 5.0, 0.0, 0.0, u, 4.0, 1.0, 0.05, True),  # zero span
        (0.0, 5.0, 0.0, 1.0, u, 0.0, 0.0, 0.0, True),  # r == r_eps == 0
    ):
        with pytest.raises(ZeroDivisionError):
            kernels.eval_cell(*args)


def test_classify_precedence_and_wrap():
    # radial exits win over angular ones
    assert kernels.classify(10.0, 20.0, 0.0, 1.0, 25.0, 0.0) == kernels.EXIT_R_PLUS
    assert kernels.classify(10.0, 20.0, 0.0, 1.0, 5.0, 0.0) == kernels.EXIT_R_MINUS
    # just past the upper angular facet
    x = 15 * math.cos(1.05)
    y = 15 * math.sin(1.05)
    assert kernels.classify(10.0, 20.0, 0.0, 1.0, x, y) == kernels.EXIT_TH_PLUS
    # just below the lower facet, approached through the wrap
    x = 15 * math.cos(-0.05)
    y = 15 * math.sin(-0.05)
    assert kernels.classify(10.0, 20.0, 0.0, 1.0, x, y) == kernels.EXIT_TH_MINUS
    # a full-circle sector has no angular facets
    assert kernels.classify(10.0, 20.0, 0.0, 2 * math.pi, x, y) == kernels.INSIDE


def test_tangential_rate_tapers_at_center():
    u = (0.0, 2.0) * 4
    (vx1, vy1) = kernels.eval_cell(0.0, 10.0, 0.0, 1.0, u, 0.001, 0.0, 0.05, True)
    (vx2, vy2) = kernels.eval_cell(0.0, 10.0, 0.0, 1.0, u, 1.0, 0.0, 0.05, True)
    assert math.hypot(vx1, vy1) < math.hypot(vx2, vy2)
    assert math.hypot(vx2, vy2) == pytest.approx(2.0)


def test_active_backend_is_exposed():
    assert kernels.BACKEND == "pure"
