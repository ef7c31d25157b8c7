"""One-dimensional minimization by golden-section search."""

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# steps that shrink the bracket to 1e-6 of its initial width
_STEPS = math.ceil(math.log(1e-6) / math.log(_INV_PHI))


def golden_section_min(f, lo: float, hi: float):
    """Minimize a unimodal ``f`` on ``[lo, hi]``; returns ``(x, f(x))``.

    The bracket shrinks by the inverse golden ratio each step, a fixed
    ``_STEPS`` times, to 1e-6 of its initial width.  Minima on the
    bracket edge are fine: the search simply converges to that edge.
    """
    if not hi > lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_STEPS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)
