"""Simulation of probe-circuit temporal correlators and the contextuality
inequalities they feed: the six-context square combination, the five-cycle
two-time combination, the ten-pair pentagon form, and the transformed
Bell-type form, with their classical bounds computed from their terms by
``inequalities.classical_bound`` and their contextual, temporal, and nonlocal
extrema recovered numerically. Import each name from its module, as in
``from contextsim.inequalities import eval_pm``; the package re-exports none."""

__version__ = "0.1.0"
