import math
import random

import pytest

from polaris import kernels
from polaris.kernels import _pure


def random_cell(rng, full_circle=False):
    r_lo = rng.uniform(0.0, 40.0)
    r_hi = r_lo + rng.uniform(0.5, 10.0)
    th_lo = rng.uniform(0.0, 2 * math.pi)
    span = 2 * math.pi if full_circle else rng.uniform(0.3, 2.0)
    u = tuple(rng.uniform(-2.0, 2.0) for _ in range(8))
    return (r_lo, r_hi, th_lo, span, u)


def near_ring(rng, r_lo, r_hi):
    """A point in or just beside the cell's ring, at any angle, so every
    facet and both halves of the complement arc are reached."""
    r = rng.uniform(max(r_lo - 1.0, 0.0), r_hi + 1.0)
    th = rng.uniform(0.0, 2 * math.pi)
    return (r * math.cos(th), r * math.sin(th))


def test_eval_bitwise_parity(ckernel):
    rng = random.Random(3)
    for i in range(6000):
        (r_lo, r_hi, th_lo, span, u) = random_cell(rng, full_circle=i % 3 == 0)
        x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
        clamp = i % 2 == 0
        pure = _pure.eval_cell(r_lo, r_hi, th_lo, span, u, x, y, 0.05, clamp)
        comp = ckernel.eval_cell(r_lo, r_hi, th_lo, span, u, x, y, 0.05, clamp)
        assert pure == comp


def test_classify_bitwise_parity(ckernel):
    rng = random.Random(4)
    codes = set()
    for i in range(6000):
        (r_lo, r_hi, th_lo, span, _) = random_cell(rng, full_circle=i % 3 == 0)
        (x, y) = near_ring(rng, r_lo, r_hi)
        pure = _pure.classify(r_lo, r_hi, th_lo, span, x, y)
        assert ckernel.classify(r_lo, r_hi, th_lo, span, x, y) == pure
        codes.add(pure)
    assert codes == {
        _pure.INSIDE, _pure.EXIT_R_PLUS, _pure.EXIT_R_MINUS,
        _pure.EXIT_TH_PLUS, _pure.EXIT_TH_MINUS,
    }


def test_integrate_bitwise_parity(ckernel):
    rng = random.Random(5)
    for i in range(120):
        (r_lo, r_hi, th_lo, span, u) = random_cell(rng, full_circle=i % 4 == 0)
        r = (r_lo + r_hi) / 2
        th = th_lo + span / 2
        x, y = r * math.cos(th), r * math.sin(th)
        pure = _pure.integrate_cell(r_lo, r_hi, th_lo, span, u, x, y, 0.02, 5000, 0.05)
        comp = ckernel.integrate_cell(r_lo, r_hi, th_lo, span, u, x, y, 0.02, 5000, 0.05)
        assert pure == comp


def test_integrate_many_matches_scalar_loop(ckernel):
    rng = random.Random(9)
    (r_lo, r_hi, th_lo, span, u) = random_cell(rng)
    starts = []
    for _ in range(20):
        r = rng.uniform(r_lo + 0.1, r_hi - 0.1)
        th = th_lo + rng.uniform(0.1, span - 0.1)
        starts.append((r * math.cos(th), r * math.sin(th)))
    many = ckernel.integrate_many(r_lo, r_hi, th_lo, span, u, starts, 0.02, 2000, 0.05)
    single = [
        _pure.integrate_cell(r_lo, r_hi, th_lo, span, u, x, y, 0.02, 2000, 0.05)
        for (x, y) in starts
    ]
    assert many == single


def test_zero_divisors_raise_in_both_backends(ckernel):
    u = (1.0,) * 8
    for args in (
        (5.0, 5.0, 0.0, 1.0, u, 4.0, 1.0, 0.05, True),  # r_hi == r_lo
        (1.0, 5.0, 0.0, 0.0, u, 4.0, 1.0, 0.05, True),  # zero span
        (0.0, 5.0, 0.0, 1.0, u, 0.0, 0.0, 0.0, True),  # r == r_eps == 0
    ):
        for backend in (_pure, ckernel):
            with pytest.raises(ZeroDivisionError):
                backend.eval_cell(*args)


def test_classify_precedence_and_wrap():
    # radial exits win over angular ones
    assert _pure.classify(10.0, 20.0, 0.0, 1.0, 25.0, 0.0) == _pure.EXIT_R_PLUS
    assert _pure.classify(10.0, 20.0, 0.0, 1.0, 5.0, 0.0) == _pure.EXIT_R_MINUS
    # just past the upper angular facet
    x = 15 * math.cos(1.05)
    y = 15 * math.sin(1.05)
    assert _pure.classify(10.0, 20.0, 0.0, 1.0, x, y) == _pure.EXIT_TH_PLUS
    # just below the lower facet, approached through the wrap
    x = 15 * math.cos(-0.05)
    y = 15 * math.sin(-0.05)
    assert _pure.classify(10.0, 20.0, 0.0, 1.0, x, y) == _pure.EXIT_TH_MINUS
    # a full-circle sector has no angular facets
    assert _pure.classify(10.0, 20.0, 0.0, 2 * math.pi, x, y) == _pure.INSIDE


def test_tangential_rate_tapers_at_center():
    u = (0.0, 2.0) * 4
    (vx1, vy1) = _pure.eval_cell(0.0, 10.0, 0.0, 1.0, u, 0.001, 0.0, 0.05, True)
    (vx2, vy2) = _pure.eval_cell(0.0, 10.0, 0.0, 1.0, u, 1.0, 0.0, 0.05, True)
    assert math.hypot(vx1, vy1) < math.hypot(vx2, vy2)
    assert math.hypot(vx2, vy2) == pytest.approx(2.0)


def test_active_backend_is_exposed():
    assert kernels.BACKEND in ("pure", "compiled")
