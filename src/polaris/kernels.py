"""Pure-Python geometry kernels: the interpolated cell field and
fixed-step Euler integration with exit-facet classification.

``integrate_cell`` takes its start's field from ``eval_cell``, then runs
one loop with no calls but the math functions: each Euler step locates
its new point once (radius, angle and angular offset), and that one
location serves both the facet test and the next step's field.  It
performs the same float operations on the same operands as a stepwise
loop that calls ``eval_cell``, then locates the new point against the
cell's facets (``integrate_by_steps`` and its ``classify`` in the tests),
so its results match that loop bit for bit, exceptions included, but for
one input no partition makes (``r_eps == 0``, see ``integrate_cell``).
Each step makes only the operations that can change a result: it clamps
no cell coordinate, since only the start can lie outside the cell; it
counts its steps with ``range``, so ``max_steps`` is an int; it makes one
compare for the angular exit, which on a full circle decides the angular
clamp instead; and it calls ``fmod`` only for an angle offset not
strictly within ±2π, which is ``eval_cell``'s result without it.
"""

from math import atan2, cos, fmod, sin, sqrt

TWO_PI = 6.283185307179586

# the only implementation; perfbench names it in each result header
BACKEND = "pure"

# exit codes returned by integrate_cell
INSIDE = 0
EXIT_R_PLUS = 1
EXIT_R_MINUS = 2
EXIT_TH_PLUS = 3
EXIT_TH_MINUS = 4


def eval_cell(r_lo, r_hi, th_lo, span, u, x, y, r_eps):
    """Velocity of the interpolated cell field at Cartesian (x, y).

    ``u`` holds the four vertex vectors in polar components as a flat tuple
    (u0r, u0t, u1r, u1t, u2r, u2t, u3r, u3t); vertices are ordered inner/low,
    outer/low, outer/high, inner/high.  The angular rate is computed with the
    radius clamped below at ``r_eps``, which tapers the tangential term to
    zero at the origin.  The bilinear coordinates are clamped to the cell,
    so a point marginally outside it gets the value on the nearest facet:
    the radial coordinate is clamped to [0, 1], and an angle past the
    sector takes the value on the angular facet nearer through the
    complement arc (``integrate_cell``'s facet test), so a point just
    below ``th_lo`` gets the ``th_lo`` facet's value, not ``th_hi``'s.
    """
    r = sqrt(x * x + y * y)
    th = atan2(y, x)

    dr = r_hi - r_lo
    a = (r - r_lo) / dr
    if a < 0.0:
        a = 0.0
    elif a > 1.0:
        a = 1.0

    rel = fmod(th - th_lo, TWO_PI)
    if rel < 0.0:
        rel += TWO_PI
    b = rel / span
    if b > 1.0:
        b = 1.0 if rel - span <= (TWO_PI - span) * 0.5 else 0.0

    w0 = (1.0 - a) * (1.0 - b)
    w1 = a * (1.0 - b)
    w2 = a * b
    w3 = (1.0 - a) * b
    ur = w0 * u[0] + w1 * u[2] + w2 * u[4] + w3 * u[6]
    ut = w0 * u[1] + w1 * u[3] + w2 * u[5] + w3 * u[7]

    m = r
    if m < r_eps:
        m = r_eps
    tang = r * ut / m

    ct = cos(th)
    st = sin(th)
    vx = ur * ct - tang * st
    vy = ur * st + tang * ct
    return (vx, vy)


def integrate_cell(r_lo, r_hi, th_lo, span, u, x0, y0, dt, max_steps, r_eps):
    """Fixed-step Euler integration of the cell field from (x0, y0).

    Returns (exit_code, steps_taken, x, y): exit_code is INSIDE when the
    trajectory is still in the cell after max_steps, otherwise the facet
    first crossed, with the post-crossing position.  ``max_steps`` is an
    int; when it is not positive the start comes back untouched.

    The start's field is ``eval_cell``'s, with all of its clamps, since
    only the start may lie outside the cell.  Each step is an Euler
    update, then the facet test of the new point, inlined: radial facets
    first, then an angular excursion attributed to the nearer facet
    through the complement arc.  A point that passes the test gets its
    field for the next step at once, from the radius, angle and angular
    offset that the test computed.

    That field clamps nothing.  A point that has passed the facet tests
    has ``r_lo <= r <= r_hi`` and, on a partial sector, ``rel <= span``
    (or they are NaN), and rounding is monotone, so both coordinates
    already lie in [0, 1].  On a full circle the angular coordinate
    exceeds 1 exactly when ``rel > span`` (the two differ by at least an
    ulp near 2π), so the angular exit test also decides that clamp.
    ``fmod`` runs only when the angle less ``th_lo`` is not strictly
    within ±2π (NaN included): it returns a smaller argument unchanged,
    ``-0.0`` included, so the offset is ``eval_cell``'s either way.

    The field of the last point is computed and unused.  ``r_hi == r_lo``
    and a zero span raise at the start, so the one division that can
    raise there is the tangential rate's, at ``r == r_eps == 0``: with
    ``r_eps == 0`` an INSIDE run whose last step lands exactly on the
    origin raises ``ZeroDivisionError``, where the stepwise loop returns.
    No ``PolarPartition`` has ``r_eps == 0``.
    """
    if not 0 < max_steps:
        return (INSIDE, 0, x0, y0)
    (u0r, u0t, u1r, u1t, u2r, u2t, u3r, u3t) = u
    (vx, vy) = eval_cell(r_lo, r_hi, th_lo, span, u, x0, y0, r_eps)
    two_pi = TWO_PI
    neg_two_pi = -TWO_PI
    dr = r_hi - r_lo
    partial = span < TWO_PI - 1e-12
    half_gap = (TWO_PI - span) * 0.5
    x = x0
    y = y0
    for steps in range(1, max_steps + 1):
        x = x + dt * vx
        y = y + dt * vy

        # locate the new point once: the facet test, then the next field
        r = sqrt(x * x + y * y)
        if r > r_hi:
            return (EXIT_R_PLUS, steps, x, y)
        if r < r_lo:
            return (EXIT_R_MINUS, steps, x, y)
        th = atan2(y, x)
        rel = th - th_lo
        if rel < 0.0:
            if rel <= neg_two_pi:
                rel = fmod(rel, two_pi)
                if rel < 0.0:
                    rel += two_pi
            else:
                rel += two_pi
        elif not rel < two_pi:
            rel = fmod(rel, two_pi)
        if rel > span:
            if partial:
                if rel - span <= half_gap:
                    return (EXIT_TH_PLUS, steps, x, y)
                return (EXIT_TH_MINUS, steps, x, y)
            b = 1.0 if rel - span <= half_gap else 0.0
        else:
            b = rel / span
        a = (r - r_lo) / dr
        oma = 1.0 - a
        omb = 1.0 - b
        w0 = oma * omb
        w1 = a * omb
        w2 = a * b
        w3 = oma * b
        ur = w0 * u0r + w1 * u1r + w2 * u2r + w3 * u3r
        ut = w0 * u0t + w1 * u1t + w2 * u2t + w3 * u3t
        tang = r * ut / (r_eps if r < r_eps else r)
        ct = cos(th)
        st = sin(th)
        vx = ur * ct - tang * st
        vy = ur * st + tang * ct
    return (INSIDE, steps, x, y)


def integrate_many(r_lo, r_hi, th_lo, span, u, starts, dt, max_steps, r_eps):
    """Run integrate_cell from every start point; returns a list of results."""
    return [
        integrate_cell(r_lo, r_hi, th_lo, span, u, x0, y0, dt, max_steps, r_eps)
        for (x0, y0) in starts
    ]
