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
