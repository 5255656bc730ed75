"""Problem-file and report serialization for the command line front end.

A problem file is JSON with keys ``A``, ``V`` (nested arrays; complex
entries encoded as ``[re, im]``, plain numbers for reals), ``sigma`` and
``Sigma`` (lists of numbers or ``[lo, hi]`` pairs) and an optional
``tolerances`` object.  Parse failures carry the row/column of the first
violation.  Machine-readable output keeps full float precision; human
tables round to 6 significant digits.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterable, Sequence

import numpy as np

from .analysis import AnalysisReport, PerturbationProblem, QnrSample, delta_v
from .config import DEFAULT_TOL, Tolerances
from .intervals import SpectralSet


class ProblemFileError(ValueError):
    """A problem file failed to parse or validate; message carries the location."""


_TOL_FIELDS = ("herm_scale", "proj_scale", "eig_scale", "offdiag", "report")


def _parse_entry(item, name: str, row: int, col: int) -> complex:
    if isinstance(item, (int, float)):
        return complex(float(item), 0.0)
    if isinstance(item, (list, tuple)) and len(item) == 2 and all(
        isinstance(p, (int, float)) for p in item
    ):
        return complex(float(item[0]), float(item[1]))
    raise ProblemFileError(
        f"matrix {name}: invalid entry at ({row},{col}): {item!r} "
        "(expected a number or [re, im])"
    )


def _parse_numeric(obj, dim: int) -> np.ndarray | None:
    """One-array conversion of a well-formed (dim, dim) or (dim, dim, 2) numeric nest, else None.

    Only bool, int and float arrays qualify: they convert exactly as the
    entry-by-entry rules do.  Anything else (mixed numbers and pairs,
    ragged rows, strings, None, integers beyond int64) goes to the checked
    loop, which names the first bad entry.
    """
    try:
        arr = np.array(obj)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.dtype.kind not in "bif" or arr.shape[:2] != (dim, dim):
        return None
    if arr.ndim == 2:
        return arr.astype(complex)
    if arr.shape[2:] == (2,):
        return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    return None


def parse_matrix(obj, name: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ProblemFileError(f"matrix {name} must be a nonempty list of rows")
    dim = len(obj)
    fast = _parse_numeric(obj, dim)
    if fast is not None:
        return fast
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, (list, tuple)) or len(row) != dim:
            raise ProblemFileError(
                f"matrix {name}: row {i} has {len(row) if isinstance(row, (list, tuple)) else 'no'}"
                f" entries, expected {dim}"
            )
        for j, item in enumerate(row):
            out[i, j] = _parse_entry(item, name, i, j)
    return out


def matrix_payload(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def parse_spectral_set(obj, name: str, is_open: bool = False) -> SpectralSet:
    if isinstance(obj, dict):
        return parse_spectral_set(obj.get("intervals", []), name, bool(obj.get("open", False)))
    if not isinstance(obj, (list, tuple)):
        raise ProblemFileError(f"set {name} must be a list of numbers or [lo, hi] pairs")
    try:
        return SpectralSet(obj, is_open=is_open)
    except (ValueError, TypeError) as exc:
        raise ProblemFileError(f"set {name}: {exc}") from exc


def spectral_set_payload(s: SpectralSet) -> dict:
    return {"intervals": [[lo, hi] for lo, hi in s.intervals], "open": s.is_open}


def parse_tolerances(obj, base: Tolerances = DEFAULT_TOL) -> Tolerances:
    if obj is None:
        return base
    if not isinstance(obj, dict):
        raise ProblemFileError("tolerances must be an object")
    tol = base
    if "scale" in obj:
        tol = tol.scaled(float(obj["scale"]))
    overrides = {k: float(v) for k, v in obj.items() if k in _TOL_FIELDS}
    if overrides:
        tol = Tolerances(**{**dataclasses.asdict(tol), **overrides})
    unknown = set(obj) - set(_TOL_FIELDS) - {"scale"}
    if unknown:
        raise ProblemFileError(f"unknown tolerance fields: {sorted(unknown)}")
    return tol


def parse_problem(payload: dict, base_tol: Tolerances = DEFAULT_TOL) -> PerturbationProblem:
    if not isinstance(payload, dict):
        raise ProblemFileError("problem file must be a JSON object")
    for key in ("A", "V", "sigma", "Sigma"):
        if key not in payload:
            raise ProblemFileError(f"missing required key {key!r}")
    a = parse_matrix(payload["A"], "A")
    v = parse_matrix(payload["V"], "V")
    sigma = parse_spectral_set(payload["sigma"], "sigma")
    Sigma = parse_spectral_set(payload["Sigma"], "Sigma")
    tol = parse_tolerances(payload.get("tolerances"), base_tol)
    return PerturbationProblem.build(a, v, sigma, Sigma, tol)


def load_problem(path, base_tol: Tolerances = DEFAULT_TOL) -> PerturbationProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"{path}: not valid JSON: {exc}") from exc
    return parse_problem(payload, base_tol)


def problem_payload(problem: PerturbationProblem) -> dict:
    return {
        "A": matrix_payload(problem.a),
        "V": matrix_payload(problem.v),
        "sigma": [[lo, hi] for lo, hi in problem.sigma.intervals],
        "Sigma": [[lo, hi] for lo, hi in problem.Sigma.intervals],
    }


def write_json(payload, path) -> None:
    """``payload`` as JSON with indent 2 and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def save_problem(problem: PerturbationProblem, path) -> None:
    write_json(problem_payload(problem), path)


def analysis_payload(problem: PerturbationProblem, reports: Sequence[AnalysisReport]) -> dict:
    return {
        "dim": problem.dim,
        "case": problem.case.value,
        "case_detail": problem.classification.detail,
        "d": problem.d,
        "norm_v": problem.norm_v,
        "delta_v": delta_v(problem.norm_v, problem.d),
        "sigma": spectral_set_payload(problem.sigma),
        "Sigma": spectral_set_payload(problem.Sigma),
        "reports": [r.as_dict() for r in reports],
    }


def format_report_table(reports: Iterable[AnalysisReport]) -> str:
    """Fixed-width table, 6 significant digits."""
    header = f"{'theorem':<13} {'premise':<8} {'claimed':>12} {'measured':>12} {'holds':<6} flags"
    lines = [header, "-" * len(header)]
    for r in reports:
        claimed = f"{r.claimed_bound:.6g}" if math.isfinite(r.claimed_bound) else "inf"
        measured = f"{r.measured_value:.6g}" if math.isfinite(r.measured_value) else "-"
        premise = "yes" if r.premise_satisfied else "no"
        holds = "ok" if r.holds else "VIOLATED"
        note = f" [{len(r.flags)} flag(s)]" if r.flags else ""
        lines.append(
            f"{r.theorem:<13} {premise:<8} {claimed:>12} {measured:>12} {holds:<6}{note}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# QNR sample output
# ---------------------------------------------------------------------------

QNR_CSV_HEADER = "a0,a1,abs_v,lambda,mu"


def write_qnr_csv(samples: Sequence[QnrSample], fh) -> None:
    fh.write(QNR_CSV_HEADER + "\n")
    for s in samples:
        fh.write(f"{s.a0!r},{s.a1!r},{abs(s.v)!r},{s.lam!r},{s.mu!r}\n")


def qnr_svg(samples: Sequence[QnrSample], spectrum: Sequence[float]) -> str:
    """Plain scatter of the sampled eigenvalue pairs with spectrum tick lines.

    x is the sample index, y the value; lambda and mu get separate markers,
    horizontal lines mark the eigenvalues of B.  Self-contained SVG.
    """
    width, height, pad = 640, 400, 40
    values = [s.lam for s in samples] + [s.mu for s in samples] + list(spectrum)
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span

    def sx(i: int) -> float:
        return pad + (width - 2 * pad) * (i / max(len(samples) - 1, 1))

    def sy(v: float) -> float:
        return height - pad - (height - 2 * pad) * ((v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for e in spectrum:
        y = sy(float(e))
        parts.append(
            f'<line x1="{pad}" y1="{y:.2f}" x2="{width - pad}" y2="{y:.2f}" '
            'stroke="#888" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{width - pad + 4}" y="{y + 4:.2f}" font-size="11" fill="#444">'
            f"{float(e):.4g}</text>"
        )
    for i, s in enumerate(samples):
        parts.append(
            f'<circle cx="{sx(i):.2f}" cy="{sy(s.lam):.2f}" r="2.2" fill="#1f77b4"/>'
        )
        parts.append(
            f'<circle cx="{sx(i):.2f}" cy="{sy(s.mu):.2f}" r="2.2" fill="#d62728"/>'
        )
    parts.append(
        f'<text x="{pad}" y="{pad - 12}" font-size="12" fill="#000">'
        "quadratic numerical range samples: lambda (blue), mu (red), spec(B) dashed</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)
