"""Correctness checks on the text the CLI wrote.

Each checker takes an Op and the captured stdout of its `cli.main` call and
returns a list of problems (empty when the output is right). References:

- exact spectra from `slet.closedform` (Coulomb, oscillator, Landau,
  zero-field donor) at 1e-9;
- closed-form r0, w, lbar and E0 of power-law and logarithmic potentials
  at 1e-10 relative (acceptance criterion 4's tolerance);
- the same level solved through the other potential path (builtin hand jets
  against expression jets) at 1e-10 relative;
- for `validate`, the oracle's extrapolated energy within 1e-4 (relative)
  of the exact level, Airy zeros for the linear potential.

The 2D identities used: a 2D level with |m| = l has the 3D closed form at
l - 1/2, and the 2D oscillator B^2 rho^2/4 is the Landau system without its
m*gamma shift.
"""
from __future__ import annotations

import csv
import io
import json
import math

from slet import closedform, engine, potentials

EXACT_TOL = 1e-9
PATH_TOL = 1e-10
ORACLE_TOL = 1e-4

_SPECTRUM_COLS = ("l", "nr", "r0", "w", "beta", "lbar", "E0", "E2term",
                  "E3term", "E_total", "error")
_SWEEP_COLS = ("gamma", "E_total", "E0", "E2term", "E3term", "error")


def _close(got, want, rel, floor):
    return abs(got - want) <= max(rel * abs(want), floor)


def _cmp(problems, what, got, want, rel, floor=1e-12):
    if not (isinstance(got, float) and math.isfinite(got)
            and _close(got, want, rel, floor)):
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _body(text):
    """Output without the timestamped '# generated' header line."""
    lines = text.splitlines()
    if lines and lines[0].startswith("# generated "):
        lines = lines[1:]
    return lines


# -- parsing the three formats --------------------------------------------


def _rows(text, fmt, columns):
    """Row dicts of a spectrum or sweep output, values as strings."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return [{c: "" if r[c] is None else str(r[c]) for c in columns}
                for r in rows]
    lines = _body(text)
    if fmt == "csv":
        records = list(csv.reader(io.StringIO("\n".join(lines))))
    else:  # table: columns separated by runs of spaces, error cell may be empty
        records = [ln.split() for ln in lines]
    head, data = records[0], records[1:]
    if tuple(head) != columns:
        raise ValueError(f"unexpected columns {head}")
    return [dict(zip(columns, rec + [""] * (len(columns) - len(rec))))
            for rec in data]


def _solve_fields(text, fmt):
    """r0, w, lbar, E0, E_total of a `solve` output as floats."""
    if fmt == "json":
        bd = json.loads(text)["breakdown"]
        return {k: float(bd[k]) for k in ("r0", "w", "lbar", "E0", "E_total")}
    lines = _body(text)
    if fmt == "csv":
        head, row = list(csv.reader(io.StringIO("\n".join(lines))))
        rec = dict(zip(head, row))
        return {k: float(rec[k]) for k in ("r0", "w", "lbar", "E0", "E_total")}
    rec = {}
    for ln in lines:
        key, _, value = ln.partition("  ")
        rec[key.strip()] = value.strip()
    return {k: float(rec[k]) for k in ("r0", "w", "lbar", "E0", "E_total")}


def _oracle_extrapolated(text, fmt):
    """The oracle's extrapolated energy from a `validate` output."""
    if fmt == "json":
        return float(json.loads(text)["oracle"]["energy_extrapolated"])
    lines = _body(text)
    if fmt == "csv":
        head, row = list(csv.reader(io.StringIO("\n".join(lines))))
        return float(dict(zip(head, row))["E_oracle_extrapolated"])
    rec = {ln[:21].strip(): ln[21:].strip() for ln in lines}
    return float(rec["oracle extrapolated"])


# -- references -------------------------------------------------------------


def _exact_level(dim, family, params, l, nr):
    """Exact energy of a builtin level, or None when the family has none."""
    if family == "coulomb":
        if dim == 3:
            return closedform.coulomb3d(l, nr)
        return closedform.donor_zero_field(nr, l).derived
    if family == "harmonic":
        B = params["B"]
        if dim == 3:
            return closedform.oscillator3d(B, l, nr)
        return closedform.landau(B, nr, l) - l * B
    return None


def _closed_form(dim, family, params, l, nr):
    """closedform result of a power-law or log level, 2D mapped to l - 1/2."""
    lx = l if dim == 3 else l - 0.5
    if family == "power":
        return closedform.power_law(params["A"], params["nu"], lx, nr)
    if family == "log":
        return closedform.logarithmic(params["A"], params["b"], lx, nr)
    return None


def _solve_lib(dim, l, nr, pot):
    return engine.solve(engine.SletProblem(dim, l, nr, pot))


# -- per-workload checkers ----------------------------------------------------


def check_spectrum(op, text):
    ref = op.ref
    rows = _rows(text, ref["fmt"], _SPECTRUM_COLS)
    want = [(l, nr) for l in range(ref["l"][0], ref["l"][1] + 1)
            for nr in range(ref["nr"][0], ref["nr"][1] + 1)]
    got = [(int(r["l"]), int(r["nr"])) for r in rows]
    if got != want:
        return [f"row grid {got[:3]}... differs from {want[:3]}..."]
    problems = []
    dim, family, params = ref["dim"], ref["family"], ref["params"]
    for r in rows:
        l, nr = int(r["l"]), int(r["nr"])
        tag = f"l={l} nr={nr}"
        if r["error"]:
            problems.append(f"{tag}: error row {r['error']!r}")
            continue
        exact = _exact_level(dim, family, params, l, nr)
        if exact is not None:
            _cmp(problems, f"{tag} E_total", float(r["E_total"]), exact,
                 EXACT_TOL, EXACT_TOL)
        cf = _closed_form(dim, family, params, l, nr)
        if cf is not None:
            for key in ("r0", "w", "lbar", "E0"):
                _cmp(problems, f"{tag} {key}", float(r[key]),
                     getattr(cf, key), PATH_TOL)
    return problems


def check_sweep(op, text):
    ref = op.ref
    rows = _rows(text, ref["fmt"], _SWEEP_COLS)
    m, nr, step = ref["m"], ref["nr"], ref["step"]
    if len(rows) != ref["rows"]:
        return [f"{len(rows)} rows, want {ref['rows']}"]
    gammas = [i * step for i in range(len(rows))]
    problems = []
    for i, r in enumerate(rows):
        if r["error"]:
            problems.append(f"gamma={r['gamma']}: error row {r['error']!r}")
            continue
        g = float(r["gamma"])
        if g != gammas[i]:
            problems.append(f"row {i}: gamma {g!r}, want {gammas[i]!r}")
        e_total = float(r["E_total"])
        if not math.isfinite(e_total):
            problems.append(f"gamma={g}: E_total {e_total!r}")
    if problems:
        return problems
    exact = closedform.donor_zero_field(nr, abs(m)).derived
    _cmp(problems, "gamma=0 E_total", float(rows[0]["E_total"]), exact,
         EXACT_TOL, EXACT_TOL)
    src = "-2/r + m*gamma + gamma^2*r^2/4"
    for i in ref["spots"]:
        g = gammas[i]
        bd = _solve_lib(2, abs(m), nr,
                        potentials.expression(src, {"m": m, "gamma": g}))
        for key in ("E_total", "E0"):
            _cmp(problems, f"gamma={g} {key} vs expression path",
                 float(rows[i][key]), getattr(bd, key), PATH_TOL)
    return problems


def check_solve(op, text):
    ref = op.ref
    got = _solve_fields(text, ref["fmt"])
    kind, p, dim, l, nr = ref["kind"], ref["params"], ref["dim"], ref["l"], ref["nr"]
    problems = []
    if kind == "landau":
        exact = closedform.landau(p["g"], nr, int(p["m"]))
        _cmp(problems, "E_total vs Landau", got["E_total"], exact,
             EXACT_TOL, EXACT_TOL)
        return problems
    if kind == "linear":
        family, params = "power", {"A": p["A"], "nu": 1.0}
    else:
        family, params = kind, p
    bd = _solve_lib(dim, l, nr, potentials.from_name_or_source(family, params))
    for key in ("r0", "lbar", "E0", "E_total"):
        _cmp(problems, f"{key} vs builtin path", got[key], getattr(bd, key),
             PATH_TOL)
    cf = _closed_form(dim, family, params, l, nr)
    if cf is not None:
        for key in ("r0", "w", "lbar", "E0"):
            _cmp(problems, f"{key} vs closed form", got[key], getattr(cf, key),
                 PATH_TOL)
    return problems


def check_validate(op, text):
    extrapolated = _oracle_extrapolated(text, op.ref["fmt"])
    problems = []
    _cmp(problems, f"{op.ref['kind']} oracle extrapolated", extrapolated,
         op.ref["exact"], ORACLE_TOL, 0.0)
    return problems


CHECKERS = {
    "spectrum": check_spectrum,
    "sweep": check_sweep,
    "solve": check_solve,
    "validate": check_validate,
}


def check(op, rc, text):
    """Problems with one op's exit code and output; empty when correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return CHECKERS[op.workload](op, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
