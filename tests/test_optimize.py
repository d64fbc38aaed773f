import math

import pytest

from contextsim import optimize
from contextsim.optimize import golden_section_minimize


def _counted(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, -1.0)])
def test_empty_bracket_rejected(lo, hi):
    with pytest.raises(ValueError, match="hi > lo"):
        golden_section_minimize(lambda x: x * x, lo, hi)


@pytest.mark.parametrize("vertex", [-0.7, 0.0, 0.3, 1.9])
def test_returns_the_vertex_of_a_shifted_parabola(vertex):
    x = golden_section_minimize(lambda x: (x - vertex) ** 2, -1.0, 2.0, tol=1e-9)
    assert abs(x - vertex) <= 1e-9


def test_two_starting_calls_then_one_per_shrink_step():
    f, calls = _counted(lambda x: (x - 0.3) ** 2)
    golden_section_minimize(f, 0.0, 1.0, tol=1e-3)
    # each step keeps 0.618 of the bracket: 0.618**14 = 1.2e-3 > tol >= 0.618**15
    assert len(calls) == 2 + 15


def test_stops_after_max_iter_steps(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_STEPS", 5)
    f, calls = _counted(lambda x: (x - 0.3) ** 2)
    x = golden_section_minimize(f, 0.0, 1.0, tol=1e-15)
    assert len(calls) == 2 + 5
    # five steps leave a bracket of 0.618**5 around the vertex
    assert abs(x - 0.3) <= 0.62 ** 5 / 2


def test_stops_once_a_step_would_leave_the_bracket_unchanged():
    # below the float spacing of the bracket no step narrows it; the loop used
    # to run all MAX_STEPS steps, 202 trials, to the same midpoint
    f, calls = _counted(lambda x: math.cos(x - 0.4) + math.cos(x + 1.1))
    x = golden_section_minimize(f, -2.0, 4.0, tol=1e-300)
    assert len(calls) == 79
    assert abs(x - (math.pi - 0.35)) <= 1e-9
    # at the default tol the bracket is still about 1e-9 wide, so the stop cannot fire
    f, calls = _counted(lambda x: math.cos(x - 0.4) + math.cos(x + 1.1))
    golden_section_minimize(f, -2.0, 4.0)
    assert len(calls) == 49


@pytest.mark.parametrize("lo, hi, named", [(-math.inf, 1.0, "lo"), (0.0, math.inf, "hi"), (math.nan, 1.0, "lo"),
                                           (0.0, math.nan, "hi"), (True, 2.0, "lo")])
def test_non_finite_bracket_end_refused(lo, hi, named):
    # -inf used to return nan without an error
    f, calls = _counted(lambda x: x * x)
    with pytest.raises(ValueError, match=f"^{named} must be a finite real number"):
        golden_section_minimize(f, lo, hi)
    assert calls == []
