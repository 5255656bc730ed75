"""Problem-file and report serialization for the command line front end.

A problem file is JSON with keys ``A``, ``V`` (a Hermitian matrix as
``{"diag": list, "upper": U}`` with U base64 doubles or a list, see
``matrix_payload``; any matrix as a nest of plain numbers, as
``{"re": nest, "im": nest}`` or as a nest of ``[re, im]`` pairs),
``sigma`` and ``Sigma`` (lists of numbers or
``[lo, hi]`` pairs; an open set as ``{"intervals": pairs, "open": true}``)
and an optional ``tolerances`` object.  Parse failures carry the row/column of the first
violation.  Machine-readable output keeps full float precision; human
tables round to 6 significant digits.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from typing import Iterable, Sequence

import numpy as np

from .analysis import QNR_CHUNK, AnalysisReport, PerturbationProblem, QnrSample, delta_v
from .config import DEFAULT_TOL, Tolerances
from .intervals import SpectralSet, _numeric


class ProblemFileError(ValueError):
    """A problem file failed to parse or validate; message carries the location."""


def _parse_entry(item, name: str, row: int, col: int, pairs: bool) -> complex:
    if isinstance(item, (int, float)):
        return complex(float(item), 0.0)
    if pairs and isinstance(item, (list, tuple)) and len(item) == 2 and all(
        isinstance(p, (int, float)) for p in item
    ):
        return complex(float(item[0]), float(item[1]))
    raise ProblemFileError(
        f"matrix {name}: invalid entry at ({row},{col}): {item!r} "
        f"(expected {'a number or [re, im]' if pairs else 'a number'})"
    )


def _parse_numeric(obj, dim: int) -> np.ndarray | None:
    """One-array conversion of a well-formed numeric nest, else None.

    A (dim, dim) nest gives a float array, a (dim, dim, 2) nest of
    ``[re, im]`` pairs a complex one.
    """
    arr = _numeric(obj)
    if arr is None or arr.shape[:2] != (dim, dim):
        return None
    if arr.ndim == 2:
        return arr.astype(float)
    if arr.shape[2:] == (2,):
        return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]
    return None


def _parse_nest(obj, name: str, pairs: bool) -> np.ndarray:
    """A complex (dim, dim) array from a nest of numbers, or of ``[re, im]`` pairs if ``pairs``."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ProblemFileError(f"matrix {name} must be a nonempty list of rows")
    dim = len(obj)
    fast = _parse_numeric(obj, dim)
    if fast is not None and (pairs or fast.dtype == float):
        return fast.astype(complex, copy=False)
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, (list, tuple)) or len(row) != dim:
            raise ProblemFileError(
                f"matrix {name}: row {i} has {len(row) if isinstance(row, (list, tuple)) else 'no'}"
                f" entries, expected {dim}"
            )
        for j, item in enumerate(row):
            out[i, j] = _parse_entry(item, name, i, j, pairs)
    return out


def _unpack(text: str, name: str, size: int) -> np.ndarray:
    """The ``size`` little-endian doubles that ``text`` holds in canonical base64.

    ``validate=True`` rejects characters outside the alphabet and bad padding but accepts
    excess ``=``, which the length check rejects, and set unused bits before ``=``, which
    re-encoding the bytes of the padded last group rejects: other groups have no unused bits.
    """
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ProblemFileError(
            f"matrix {name}: invalid base64 ({exc}), expected {size} doubles"
        ) from exc
    tail = base64.b64encode(raw[len(raw) - len(raw) % 3:]).decode("ascii")
    if len(raw) != 8 * size or len(text) != 4 * -(-len(raw) // 3) or not text.endswith(tail):
        raise ProblemFileError(f"matrix {name} has {len(raw)} bytes in {len(text)} characters, "
                               f"expected {size} doubles in canonical base64")
    return np.frombuffer(raw, "<f8")


def _parse_flat(obj, name: str, n: int | None = None) -> np.ndarray:
    """Floats from a diagonal's nonempty list, or the n(n-1)/2 of a strict upper triangle as a
    list or a base64 string (``_unpack``), a list by one ``numpy.array`` call; only other input is
    checked, naming the length or first bad entry."""
    size = None if n is None else n * (n - 1) // 2
    if n is not None and isinstance(obj, str):
        return _unpack(obj, name, size)
    arr = _numeric(obj)
    if arr is not None and arr.ndim == 1 and (len(arr) == size if n is not None else len(arr)):
        return arr.astype(float)
    if not isinstance(obj, (list, tuple)) or (n is None and not obj):
        raise ProblemFileError(
            f"matrix {name} must be a {'nonempty ' * (n is None)}list of numbers"
            + " or a base64 string" * (n is not None)
        )
    if n is not None and len(obj) != size:
        raise ProblemFileError(f"matrix {name} has {len(obj)} entries, expected {size}")
    cells = zip(*np.triu_indices(n, 1)) if n is not None else ((k, k) for k in range(len(obj)))
    return np.array([_parse_entry(x, name, i, j, pairs=False).real for x, (i, j) in zip(obj, cells)])


def _hermitian(diag: np.ndarray, upper: np.ndarray | None) -> np.ndarray:
    """The matrix with real diagonal ``diag``, strict upper triangle ``upper`` (row-major; zero
    if None) and strict lower triangle ``conj(upper) + 0.0``, so that every zero is +0.0."""
    n = len(diag)
    out = np.zeros((n, n), dtype=complex)
    out.reshape(-1)[:: n + 1] = diag
    if upper is not None:  # a boolean mask takes its True entries in row-major order
        mask = np.triu(np.ones((n, n), dtype=bool), 1)
        out[mask] = upper
        out.T[mask] = np.conj(upper) + 0.0
    return out


def parse_matrix(obj, name: str) -> np.ndarray:
    """A matrix from a nest of numbers or of ``[re, im]`` pairs, from ``{"re": nest, "im": nest}``,
    or from the Hermitian layout ``{"diag": list, "upper": U}`` of ``matrix_payload``, whose U
    parts may also be the lists of numbers that earlier versions wrote."""
    if not isinstance(obj, dict):
        return _parse_nest(obj, name, pairs=True)
    if set(obj) in ({"diag"}, {"diag", "upper"}):
        diag, u = _parse_flat(obj["diag"], f"{name}.diag"), obj.get("upper")
        if isinstance(u, dict) and set(u) == {"re", "im"}:
            upper = _parse_flat(u["re"], f"{name}.upper.re", len(diag)).astype(complex)
            upper.imag = _parse_flat(u["im"], f"{name}.upper.im", len(diag))
        else:
            upper = _parse_flat(u, f"{name}.upper", len(diag)) if "upper" in obj else None
        return _hermitian(diag, upper)
    if set(obj) != {"re", "im"}:
        raise ProblemFileError(
            f"matrix {name}: expected {name}.diag and an optional {name}.upper, or exactly the "
            f"parts {name}.re and {name}.im, got keys {sorted(obj)}"
        )
    out = _parse_nest(obj["re"], f"{name}.re", pairs=False)
    im = _parse_nest(obj["im"], f"{name}.im", pairs=False)
    if im.shape != out.shape:
        raise ProblemFileError(
            f"matrix {name}: {name}.re is {out.shape[0]}x{out.shape[1]} "
            f"but {name}.im is {im.shape[0]}x{im.shape[1]}"
        )
    out.imag = im.real
    return out


def _real_or_parts(m: np.ndarray, encode=np.ndarray.tolist) -> list | str | dict:
    """``encode(m.real)`` when every imaginary part of ``m`` is +0.0, else the two encoded parts
    ``{"re": ..., "im": ...}``."""
    if not m.imag.view(np.uint64).any():
        return encode(m.real)
    return {"re": encode(m.real), "im": encode(m.imag)}


def _b64(x: np.ndarray) -> str:
    """``x`` as base64 of its little-endian IEEE-754 doubles, which ``_unpack`` reads back."""
    return base64.b64encode(x.astype("<f8").tobytes()).decode("ascii")


def matrix_payload(m: np.ndarray) -> list | dict:
    """``m`` as ``{"diag": list, "upper": U}`` exactly when ``_hermitian`` rebuilds it bit for bit.

    ``diag`` is the real diagonal, a list of numbers, and U the strict upper triangle in
    row-major order as base64 doubles (``_b64``): one string when real, else ``{"re": str,
    "im": str}``; U is left out when all +0.0.  Any other matrix (Hermitian only within
    tolerance, -0.0 in a zero block) is a nest of numbers, ``_real_or_parts``.
    ``parse_matrix`` reads every layout back bit for bit.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    diag, upper = m.real.diagonal(), m[np.triu_indices(len(m), 1)]
    if not np.array_equal(_hermitian(diag, upper).view(np.uint64), m.view(np.uint64)):
        return _real_or_parts(m)
    if not upper.view(np.uint64).any():
        return {"diag": diag.tolist()}
    return {"diag": diag.tolist(), "upper": _real_or_parts(upper, _b64)}


def parse_spectral_set(obj, name: str) -> SpectralSet:
    """A set from numbers or ``[lo, hi]`` pairs, or from ``{"intervals": pairs, "open": bool}``."""
    is_open = False
    if isinstance(obj, dict):
        is_open = obj.get("open", False)
        if set(obj) - {"open"} != {"intervals"} or not isinstance(is_open, bool):
            raise ProblemFileError(
                f"set {name}: expected the key 'intervals' and an optional boolean 'open', "
                f"got keys {sorted(obj)} with open = {is_open!r}"
            )
        obj = obj["intervals"]
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
    unknown = set(obj) - {f.name for f in dataclasses.fields(Tolerances)} - {"scale"}
    if unknown:
        raise ProblemFileError(f"unknown tolerance fields: {sorted(unknown)}")
    numbers = {}
    for key, value in obj.items():  # a number as a matrix entry is one, so no string
        number = _numeric(value)
        if number is None or number.ndim:
            raise ProblemFileError(f"tolerances: {key} must be a number, got {value!r}")
        numbers[key] = float(number)
    try:
        tol = base.scaled(numbers.pop("scale")) if "scale" in numbers else base
        return dataclasses.replace(tol, **numbers)
    except ValueError as exc:
        raise ProblemFileError(f"tolerances: {exc}") from exc


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


def _problem_set_payload(s: SpectralSet) -> list | dict:
    """A closed set as its ``[lo, hi]`` pairs, an open one as ``spectral_set_payload`` writes it."""
    payload = spectral_set_payload(s)
    return payload if s.is_open else payload["intervals"]


def problem_payload(problem: PerturbationProblem) -> dict:
    return {
        "A": matrix_payload(problem.a),
        "V": matrix_payload(problem.v),
        "sigma": _problem_set_payload(problem.sigma),
        "Sigma": _problem_set_payload(problem.Sigma),
    }


def write_json(payload, path) -> None:
    """``payload`` as JSON with indent 2 and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def save_problem(problem: PerturbationProblem, path) -> None:
    """``problem`` as one line of JSON and a newline, each matrix as ``matrix_payload`` lays it out.

    A generated problem's A is its diagonal and its V the diagonal and
    upper triangle.  Without an indent ``json.dumps`` runs the C encoder,
    and the file has no per-entry whitespace.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(problem_payload(problem)) + "\n")


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


def write_qnr_csv(samples: QnrSample, fh) -> None:
    """The header, then a row of ``repr`` values per sample, ``QNR_CHUNK`` rows per write."""
    fh.write(QNR_CSV_HEADER + "\n")
    columns = (samples.a0, samples.a1, samples.v, samples.lam, samples.mu)
    for first in range(0, len(samples.lam), QNR_CHUNK):
        a0, a1, v, lam, mu = (c[first : first + QNR_CHUNK].tolist() for c in columns)
        rows = zip(*(map(repr, c) for c in (a0, a1, map(abs, v), lam, mu)))
        fh.write("\n".join(map(",".join, rows)) + "\n")


def qnr_svg(samples: QnrSample, spectrum: Sequence[float]) -> str:
    """Plain scatter of the sampled eigenvalue pairs with spectrum tick lines.

    x is the sample index, y the value; lambda and mu get separate markers,
    horizontal lines mark the eigenvalues of B.  Self-contained SVG.
    """
    width, height, pad = 640, 400, 40
    values = samples.lam.tolist() + samples.mu.tolist() + list(spectrum)
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span

    def sy(v):
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
    x = pad + (width - 2 * pad) * (np.arange(len(samples.lam)) / max(len(samples.lam) - 1, 1))
    for cx, y_lam, y_mu in zip(x.tolist(), sy(samples.lam).tolist(), sy(samples.mu).tolist()):
        parts.append(f'<circle cx="{cx:.2f}" cy="{y_lam:.2f}" r="2.2" fill="#1f77b4"/>')
        parts.append(f'<circle cx="{cx:.2f}" cy="{y_mu:.2f}" r="2.2" fill="#d62728"/>')
    parts.append(
        f'<text x="{pad}" y="{pad - 12}" font-size="12" fill="#000">'
        "quadratic numerical range samples: lambda (blue), mu (red), spec(B) dashed</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)
