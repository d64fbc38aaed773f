"""Scalar golden-section minimization shared by the bound searches and fits."""

from __future__ import annotations

from typing import Callable

from .linalg import SEARCH_TOL

_INV_GOLDEN = 0.6180339887498949

MAX_STEPS = 200  # shrink steps before a golden-section search stops, narrowed or not


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = SEARCH_TOL,
) -> float:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns the midpoint of the interval once it is narrowed below ``tol`` (or
    after ``MAX_STEPS`` shrink steps); ``f`` is called twice to start and once
    per shrink step.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_STEPS):
        if b - a <= tol:
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
