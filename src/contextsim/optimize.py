"""Scalar golden-section minimization shared by the bound searches and fits."""

from __future__ import annotations

from typing import Callable

from .linalg import SEARCH_TOL, checked_reals

_INV_GOLDEN = 0.6180339887498949

MAX_STEPS = 200  # shrink steps before a golden-section search stops, narrowed or not


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = SEARCH_TOL,
) -> float:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns the midpoint of the interval once it is narrowed below ``tol`` or
    a shrink step would leave it unchanged, or after ``MAX_STEPS`` shrink
    steps; ``f`` is called twice to start and once per shrink step.
    """
    a, b = checked_reals(lo, "lo", ()), checked_reals(hi, "hi", ())
    if not b > a:
        raise ValueError("need hi > lo")
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_STEPS):
        if b - a <= tol or (d == b if fc <= fd else c == a):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2
