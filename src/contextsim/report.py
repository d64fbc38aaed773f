"""Report emission: table, structured JSON text and CSV.

The CSV schema is fixed: header ``inequality,term,theory,value,method``, one
row per term, then a closing ``SUM`` row carrying the classical bound and the
combination value. Numbers are printed with six decimals and a point
separator regardless of locale. JSON holds every field of the report, with
full float precision, rendered from a shallow payload of the fields: each is
a str, number, bool, None, tuple, or a dict of those, which ``json`` renders
as it renders their deep copy.
"""

from __future__ import annotations

import dataclasses
import json

from .bounds import BoundResult
from .inequalities import InequalityReport
from .noise import NoiseModel, apply_visibility


def _fmt(x: float) -> str:
    # a value that rounds to zero prints unsigned (0.0 * -1.0 is -0.0)
    text = f"{x:.6f}"
    return "0.000000" if text == "-0.000000" else text


def emit_csv(report: InequalityReport) -> str:
    if not report.terms:
        raise ValueError("refusing to emit a report without terms")
    lines = ["inequality,term,theory,value,method"]
    for (label, value), theory in zip(report.terms, report.term_predictions):
        lines.append(f"{report.name},{label},{_fmt(theory)},{_fmt(value)},{report.method}")
    lines.append(
        f"{report.name},SUM,{_fmt(report.classical_bound)},{_fmt(report.sum)},{report.method}"
    )
    return "\n".join(lines) + "\n"


def _payload(result) -> dict:
    """The fields of a report or bound result by name, not copied."""
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}


def emit_json(report: InequalityReport) -> str:
    return json.dumps(_payload(report), sort_keys=True, indent=2) + "\n"


def emit_table(report: InequalityReport) -> str:
    width = max(len(label) for label, _ in report.terms)
    width = max(width, len("term"))
    lines = [
        f"inequality: {report.name}    method: {report.method}",
        f"{'term'.ljust(width)}  {'theory':>12}  {'value':>12}",
    ]
    for (label, value), theory in zip(report.terms, report.term_predictions):
        lines.append(f"{label.ljust(width)}  {_fmt(theory):>12}  {_fmt(value):>12}")
    if report.constraints is not None:
        lines.append("side conditions (expected 1):")
        for label, value in report.constraints:
            lines.append(f"{label.ljust(width)}  {'':>12}  {_fmt(value):>12}")
        lines.append(f"side conditions satisfied: {report.constraints_satisfied}")
    bound = f"{report.bound_direction} {_fmt(report.classical_bound)}"
    prediction = "" if report.quantum_prediction is None else f"    quantum prediction: {_fmt(report.quantum_prediction)}"
    lines.append(f"sum: {_fmt(report.sum)}    classical bound: {bound}{prediction}")
    lines.append(f"verdict: {'VIOLATED' if report.violated else 'not violated'}")
    return "\n".join(lines) + "\n"


def with_noise(ideal: InequalityReport, noisy: InequalityReport, model: NoiseModel) -> InequalityReport:
    """Degrade a report by rescaling values only: the depolarized evaluation's
    terms and side conditions scaled by the visibility of their readout blocks,
    the ideal values moved to the theory column; the report derives the rest.
    A visibility-only request passes ``ideal`` as ``noisy`` too, so its values
    are the ideal ones rescaled."""
    values = tuple(
        apply_visibility(value, blocks, model.block_visibility_v)
        for (_, value), blocks in zip(noisy.terms, noisy.blocks_per_term)
    )
    constraints = None
    if noisy.constraints is not None:
        constraints = tuple(
            (label, apply_visibility(value, 1, model.block_visibility_v))
            for label, value in noisy.constraints
        )
    return dataclasses.replace(
        ideal,
        terms=tuple((label, v) for (label, _), v in zip(ideal.terms, values)),
        term_predictions=tuple(v for _, v in ideal.terms),
        constraints=constraints,
    )


def emit_bound_json(results: list[BoundResult]) -> str:
    return json.dumps([_payload(r) for r in results], sort_keys=True, indent=2) + "\n"


def emit_bound_csv(results: list[BoundResult]) -> str:
    lines = ["target,optimum,converged,iterations,tolerance"]
    for r in results:
        lines.append(f"{r.target},{_fmt(r.optimum)},{r.converged},{r.iterations},{r.tolerance:g}")
    return "\n".join(lines) + "\n"


def emit_bound_table(results: list[BoundResult]) -> str:
    lines = [f"{'target':<16}  {'optimum':>12}  {'converged':>9}  {'iterations':>10}"]
    for r in results:
        lines.append(f"{r.target:<16}  {_fmt(r.optimum):>12}  {str(r.converged):>9}  {r.iterations:>10}")
    for r in results:
        if r.target == "pentagon-lg":
            at = r.argument["at_cos_theta_-0.75"]
            lines.append(
                "pentagon-lg readings at cos(theta)=-3/4: "
                f"pairwise {_fmt(at['pairwise'])}, invasive {_fmt(at['invasive'])}"
            )
            lines.append(
                f"pentagon-lg note: {r.argument['note']} "
                f"(reference {_fmt(r.argument['unreproduced_reference_minimum'])})"
            )
    return "\n".join(lines) + "\n"


# each output format's emitters: of one report, and of a list of bound results
_EMITTERS = {
    "table": (emit_table, emit_bound_table),
    "json": (emit_json, emit_bound_json),
    "csv": (emit_csv, emit_bound_csv),
}
FORMATS = tuple(_EMITTERS)


def _emitters(fmt: str):
    if fmt not in FORMATS:  # by ==, so any value is refused with this message
        raise ValueError(f"unknown format {fmt!r}")
    return _EMITTERS[fmt]


def emit_report(report: InequalityReport, fmt: str) -> str:
    return _emitters(fmt)[0](report)


def emit_bounds(results: list[BoundResult], fmt: str) -> str:
    return _emitters(fmt)[1](results)
