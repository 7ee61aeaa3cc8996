"""Command-line frontend.

Four subcommands: `solve` (one level, full breakdown), `spectrum` (grid of
quantum numbers), `sweep` (donor energy vs magnetic field), `validate`
(expansion vs finite-difference oracle). Output formats: json (one top-level
object), csv (RFC 4180, 17 significant digits), table (human-readable).
One renderer, `_render`, writes every subcommand's output: csv and json
from rows of cells (json from a payload where one is given), the table
from the rows aligned in columns or from a listing of (label, value)
pairs, which `solve` and `validate` give.

Exit codes: 0 success, 2 bad flags or inputs (among them a builtin
parameter out of its range, such as a donor m that is not a finite integer,
a non-finite --gamma LO, HI or STEP, a --gamma grid of more than 10^6 rows,
a spectrum of more than 10^4 levels, an expression nested more than 100
levels deep, an --oracle-tol outside (0, 1e-2] and an --out file that
cannot be written), 3 computation failure.

`spectrum` and `sweep` make one engine.solve_levels call, which solves the
levels in blocks of at most 256: a spectrum's levels share one potential,
and a sweep's rows are the lanes of one donor over its gamma grid; its
columns and errors become the rows. `solve` and `validate` solve one
level per engine.solve call.

Timestamps live only in a header line (or the "generated" JSON key) so that
--no-header yields byte-identical payloads across identical invocations.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from datetime import datetime, timezone

from . import __version__, engine, oracle, potentials
from .errors import SletError, require_index

_TERM_BY_FLAG = {0: engine.TERM_E0, 2: engine.TERM_E2, 3: engine.TERM_E3}

# the output column of each engine.LEVEL_FIELDS entry, in its order
_LEVEL_COLS = dict(zip(("r0", "w", "beta", "lbar", "E0", "E2term", "E3term",
                        "E_total"), engine.LEVEL_FIELDS))
_SOLVE_COLS = ("l", "nr", *_LEVEL_COLS)
_SWEEP_COLS = ("gamma", "E_total", "E0", "E2term", "E3term")
# the solve table's label of a breakdown field, where it is not the name
_SOLVE_LABELS = {"E2_over_lbar2": "E2 term", "E3_over_lbar3": "E3 term"}

# the most rows one sweep may ask for; a larger grid is a usage error
_MAX_GAMMA_ROWS = 10**6
# the most levels one spectrum may ask for. It bounds the run's work, not
# its memory: engine.solve_levels solves the levels in blocks.
_MAX_LEVELS = 10**4

_CONFIG_KEYS = {"bracket_lo": float, "bracket_hi": float,
                "scan_points": int, "root_tol": float}


class _UsageError(Exception):
    """Flag-level failure; becomes exit code 2."""


# -- small helpers -----------------------------------------------------------


def _usage(make, *args, **kwargs):
    """make(*args, **kwargs), where a library check's ValueError is a usage
    error, exit 2."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _fmt(v) -> str:
    """One output cell: floats to 17 significant digits, None as empty."""
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise _UsageError(f"--param expects NAME=VALUE, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise _UsageError(f"--param {name}: not a number: {value!r}") from None
    return out


def _load_config(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from None
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise _UsageError(f"{path}:{ln}: expected key=value")
        if key not in _CONFIG_KEYS:
            raise _UsageError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise _UsageError(f"{path}:{ln}: bad value for {key}: {value!r}") from None
    return out


def _settings_from(args) -> engine.SolverSettings:
    cfg = _load_config(args.config) if args.config else {}
    return _usage(engine.SolverSettings, term_order=_TERM_BY_FLAG[args.terms],
                  **cfg)


def _potential_from(text: str, param_pairs) -> potentials.Potential:
    params = _parse_params(param_pairs)
    try:
        return potentials.from_name_or_source(text, params)
    except SletError as exc:  # bad name, bad expression, bad parameters
        raise _UsageError(str(exc)) from None


def _parse_range(text: str, what: str):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not m:
        raise _UsageError(f"--{what} expects A..B, got {text!r}")
    try:
        a, b = int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than int() takes
        raise _UsageError(f"--{what} bound has too many digits") from None
    if a < 0:
        raise _UsageError(f"--{what} start must be non-negative")
    if a > sys.float_info.max:
        raise _UsageError(f"--{what} start is beyond the float range")
    return a, b


def _parse_gamma_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--gamma expects LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--gamma expects numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise _UsageError(f"--gamma expects finite numbers, got {text!r}")
    if step <= 0:
        raise _UsageError("--gamma STEP must be positive")
    if lo < 0:
        raise _UsageError("--gamma LO must be non-negative")
    if lo > hi:
        return []
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_GAMMA_ROWS:  # also an overflow to inf
        raise _UsageError(f"--gamma {text!r} gives more than "
                          f"{_MAX_GAMMA_ROWS} rows")
    return [lo + i * step for i in range(int(span) + 1)]


def _listing(width, pairs) -> list:
    """Table lines of (label, value) pairs, each value from column `width`
    on; a tuple's values are joined by ", "."""
    return [f"{label:<{width}}" + (", ".join(map(_fmt, v))
                                   if isinstance(v, tuple) else _fmt(v))
            for label, v in pairs]


def _render(args, argv, columns, rows, payload=None, listing=None) -> None:
    """Write a run's result in --format to --out or stdout; the one place
    that lays out every subcommand's output.

    `rows` are sequences of raw values in the order of `columns`, and csv
    shows them. JSON shows `payload`, or else the rows. The table shows
    `listing`, a label width and (label, value) pairs, or else the rows
    aligned in columns.
    """
    ts = datetime.now(timezone.utc).isoformat()
    header = [] if args.no_header else [f"# generated {ts} slet {__version__}"]
    if args.fmt == "json":
        doc = {} if args.no_header else {
            "generated": {"timestamp": ts, "version": __version__}}
        doc["command"] = list(argv)
        doc.update(payload if payload is not None else
                   {"rows": [dict(zip(columns, row)) for row in rows]})
        text = json.dumps(doc, indent=2) + "\n"
    elif args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        text = "".join(h + "\r\n" for h in header) + buf.getvalue()
    else:
        if listing is not None:
            lines = _listing(*listing)
        else:
            cells = [[_fmt(v) for v in row] for row in rows]
            widths = [max([len(c)] + [len(r[i]) for r in cells])
                      for i, c in enumerate(columns)]
            lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
                     for r in [list(columns)] + cells]
        text = "\n".join(header + lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write output file: {exc}") from None


def _solved_rows(keys, cols, solved) -> list:
    """Rows of each level's key cells, its output columns `cols` and its
    error text, from the (columns, errors) that engine.solve_levels gives.
    A level that failed has empty cells and its message, and the run goes
    on."""
    columns, errors = solved
    values = zip(*(columns[_LEVEL_COLS[c]].tolist() for c in cols))
    blank = (None,) * len(cols)
    return [(*key, *cells, "") if err is None else (*key, *blank, str(err))
            for key, cells, err in zip(keys, values, errors)]


def _problem_from(args) -> engine.SletProblem:
    """The one level a solve or validate run asks for, with its settings."""
    _usage(require_index, "l", args.l)
    _usage(require_index, "nr", args.nr)
    settings = _settings_from(args)
    pot = _potential_from(args.potential, args.param)
    return _usage(engine.SletProblem, args.dim, args.l, args.nr, pot, settings)


def _record(args, settings, bd, res) -> dict:
    """The problem, breakdown and oracle members of a solve or validate run;
    every field is immutable, so shallow copies of the dataclasses serve."""
    return {
        "problem": {
            "dim": args.dim, "l": args.l, "nr": args.nr,
            "potential": args.potential, "params": _parse_params(args.param),
            "terms": args.terms, "solver": dict(vars(settings)),
        },
        "breakdown": None if bd is None else dict(vars(bd)),
        "oracle": None if res is None else {
            **vars(res), "energy_extrapolated": res.energy_extrapolated},
    }


# -- subcommands --------------------------------------------------------------


def _cmd_solve(args, argv) -> int:
    problem = _problem_from(args)
    bd = engine.solve(problem)
    record = _record(args, problem.solver, bd, None)
    fields = {**record["breakdown"], "candidates": "; ".join(
        f"r0={_fmt(r)} E0={_fmt(e0)}" for r, e0 in bd.candidates)}
    pairs = [*((k, record["problem"][k])
               for k in ("dim", "potential", "params", "l", "nr")),
             *((_SOLVE_LABELS.get(k, k), v) for k, v in fields.items())]
    row = (args.l, args.nr, *(getattr(bd, f) for f in engine.LEVEL_FIELDS))
    _render(args, argv, _SOLVE_COLS, [row], record, (11, pairs))
    return 0


def _cmd_spectrum(args, argv) -> int:
    l_lo, l_hi = _parse_range(args.l_range, "l-range")
    n_lo, n_hi = _parse_range(args.nr_range, "nr-range")
    if max(l_hi - l_lo + 1, 0) * max(n_hi - n_lo + 1, 0) > _MAX_LEVELS:
        raise _UsageError(f"--l-range {args.l_range!r} and --nr-range "
                          f"{args.nr_range!r} give more than {_MAX_LEVELS} "
                          f"levels")
    settings = _settings_from(args)
    pot = _potential_from(args.potential, args.param)
    levels = [(l, nr) for l in range(l_lo, l_hi + 1)
              for nr in range(n_lo, n_hi + 1)]
    rows = _solved_rows(levels, _LEVEL_COLS,
                        engine.solve_levels(args.dim, pot, levels, settings))
    _render(args, argv, _SOLVE_COLS + ("error",), rows)
    return 0


def _cmd_sweep(args, argv) -> int:
    if args.dim != 2:
        raise _UsageError("sweep is 2D only; pass --dim 2")
    if args.potential != "donor":
        raise _UsageError("sweep requires --potential donor")
    _usage(require_index, "nr", args.nr)
    settings = _settings_from(args)
    grid = _parse_gamma_grid(args.gamma)
    try:
        pot = potentials.donor(grid, args.m)
    except SletError as exc:  # an m beyond the float range
        raise _UsageError(str(exc)) from None
    solved = engine.solve_levels(2, pot, [(abs(args.m), args.nr)] * len(grid),
                                 settings)
    rows = _solved_rows([(g,) for g in grid], _SWEEP_COLS[1:], solved)
    _render(args, argv, _SWEEP_COLS + ("error",), rows)
    return 0


def _cmd_validate(args, argv) -> int:
    problem = _problem_from(args)
    cfg = _usage(oracle.OracleConfig, box_radius=args.oracle_R,
                 grid_points=args.oracle_N, eig_tol=args.oracle_tol)

    bd = err_slet = None
    try:
        bd = engine.solve(problem)
    except SletError as exc:
        err_slet = str(exc)

    res = err_oracle = None
    try:
        res = oracle.eigenvalue(args.dim, args.l, args.nr, problem.potential,
                                cfg)
    except SletError as exc:
        err_oracle = str(exc)

    comparison = None
    if bd is not None and res is not None:
        diff = bd.E_total - res.energy
        denom = abs(res.energy)
        comparison = {
            "abs_diff": abs(diff),
            "rel_diff": abs(diff) / denom if denom else float("inf"),
        }

    payload = {**_record(args, problem.solver, bd, res),
               "comparison": comparison,
               "errors": {"slet": err_slet, "oracle": err_oracle}}
    cells = {  # the csv row, by column
        "E_slet": bd and bd.E_total,
        "E_oracle": res and res.energy,
        "E_oracle_refined": res and res.energy_refined,
        "E_oracle_extrapolated": res and res.energy_extrapolated,
        "box_shift": res and res.box_shift,
        "converged": res and str(res.converged).lower(),
        "abs_diff": comparison and comparison["abs_diff"],
        "rel_diff": comparison and comparison["rel_diff"],
        "error": "; ".join(e for e in (err_slet, err_oracle) if e),
    }
    pairs = [("SLET E_total", bd.E_total) if bd else ("SLET failed", err_slet)]
    pairs += [("oracle energy", res.energy),
              ("oracle refined", res.energy_refined),
              ("oracle extrapolated", res.energy_extrapolated),
              ("oracle box shift", res.box_shift),
              ("oracle converged", res.converged),
              ] if res else [("oracle failed", err_oracle)]
    if comparison is not None:
        pairs += [("abs diff", comparison["abs_diff"]),
                  ("rel diff", comparison["rel_diff"])]
    _render(args, argv, tuple(cells), [tuple(cells.values())], payload,
            (21, pairs))
    return 3 if (err_slet or err_oracle) else 0


# -- argument parsing ----------------------------------------------------------


def _add_common(sp, with_param=True):
    sp.add_argument("--dim", type=int, choices=(2, 3), required=True)
    sp.add_argument("--potential", required=True,
                    help="builtin name (coulomb, harmonic, power, log, donor) "
                         "or an expression in r")
    if with_param:
        sp.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE")
    sp.add_argument("--terms", type=int, choices=(0, 2, 3), default=3,
                    help="series order: 0 leading only, 2 adds the second-order "
                         "term, 3 (default) the full series")
    sp.add_argument("--format", dest="fmt", choices=("json", "csv", "table"),
                    default="table")
    sp.add_argument("--out", help="write to this path instead of stdout")
    sp.add_argument("--no-header", action="store_true",
                    help="omit the timestamp header for reproducible output")
    sp.add_argument("--config", help="flat key=value file with solver settings")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slet",
        description="Bound-state energies of radial Schrodinger problems by "
                    "the shifted large-l expansion, with a finite-difference "
                    "cross-check.")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("solve", help="one (l, nr) level with full breakdown")
    sp.set_defaults(run=_cmd_solve)
    _add_common(sp)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--nr", type=int, required=True)

    sp = sub.add_parser("spectrum", help="grid of levels")
    sp.set_defaults(run=_cmd_spectrum)
    _add_common(sp)
    sp.add_argument("--l-range", required=True, metavar="A..B")
    sp.add_argument("--nr-range", required=True, metavar="A..B")

    sp = sub.add_parser("sweep", help="donor level vs magnetic field")
    sp.set_defaults(run=_cmd_sweep)
    _add_common(sp, with_param=False)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--nr", type=int, required=True)
    sp.add_argument("--gamma", required=True, metavar="LO:HI:STEP")

    sp = sub.add_parser("validate", help="expansion vs finite-difference oracle")
    sp.set_defaults(run=_cmd_validate)
    _add_common(sp)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--nr", type=int, required=True)
    sp.add_argument("--oracle-R", type=float, default=40.0)
    sp.add_argument("--oracle-N", type=int, default=4000)
    sp.add_argument("--oracle-tol", type=float, default=1e-5)

    return p


_PARSER = build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args, argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SletError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
