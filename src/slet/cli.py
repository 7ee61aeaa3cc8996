"""Command-line frontend.

Four subcommands: `solve` (one level, full breakdown), `spectrum` (grid of
quantum numbers), `sweep` (donor energy vs magnetic field), `validate`
(expansion vs finite-difference oracle). Output formats: json (one top-level
object), csv (RFC 4180, 17 significant digits), table (human-readable).
One renderer, `_render`, writes every subcommand's output: csv and json
from rows of cells (json from a payload where one is given), the table
from the rows aligned in columns or from a listing of (label, value)
pairs, which `solve` and `validate` give. It formats the rows column by
column, a column of floats in one call. csv and json rows are formatted
and written in blocks of 1024, so the whole text never exists at once: a
10^5-row sweep peaks at 48 MB in either (90 and 232 MB when the text was
built whole). The table formats all its cells first, since its column
widths need every row.

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
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii

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

# the rows of csv or json formatted and written at a time
_BLOCK_ROWS = 1024
_CSV_QUOTE = re.compile(r'[,"\r\n]').search
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

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


def _text_cells(col, slow) -> list:
    """One column's csv or table cells: a column of floats in one map,
    any other column by `slow`, cell by cell."""
    fast = "{:.17g}".format  # _fmt of a float
    return list(map(fast if set(map(type, col)) == {float} else slow, col))


def _csv_cell(v) -> str:
    """A csv cell as csv.writer writes it under QUOTE_MINIMAL: quoted, with
    its quotes doubled, when it holds a comma, a quote or a line break."""
    text = _fmt(v)
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTE(text) else text


def _json_cell(v) -> str:
    """A cell as json.dumps writes it: None, a str, an int or a float."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    text = "null" if v is None else repr(v)
    return _JSON_FLOATS.get(text, text)


def _json_cells(col) -> list:
    """One column's json cells; a float column whose sum is finite holds
    no nan or inf and needs only float.__repr__."""
    if set(map(type, col)) == {float} and math.isfinite(sum(col)):
        return list(map(float.__repr__, col))
    return list(map(_json_cell, col))


def _one_row(row):
    """A single row as _render takes its rows."""
    return 1, lambda rows: [[v] for v in row]


def _render(args, argv, columns, rows, payload=None, listing=None) -> None:
    """Write a run's result in --format to --out or stdout; the one place
    that lays out every subcommand's output.

    `rows` is (count, take): take(slice) gives those rows' raw values as
    one list per entry of `columns`, and csv shows them. JSON shows
    `payload`, or else the rows. The table shows `listing`, a label width
    and (label, value) pairs, or else the rows aligned in columns. csv and
    json rows are formatted and written _BLOCK_ROWS at a time; the table
    formats every cell first, for the column widths.
    """
    ts = datetime.now(timezone.utc).isoformat()
    header = [] if args.no_header else [f"# generated {ts} slet {__version__}"]
    count, take = rows
    starts = range(0, count, _BLOCK_ROWS)
    blocks = (take(slice(lo, lo + _BLOCK_ROWS)) for lo in starts)
    if args.fmt == "json":
        doc = {} if args.no_header else {
            "generated": {"timestamp": ts, "version": __version__}}
        doc["command"] = list(argv)
        doc.update(payload if payload is not None else {"rows": []})
        text = json.dumps(doc, indent=2)
        if payload is not None or not count:
            parts = [text + "\n"]
        else:  # text ends in '"rows": []\n}', which the rows fill
            row = "    {\n" + ",\n".join(
                f"      {json.dumps(c).replace('%', '%%')}: %s"
                for c in columns) + "\n    }"
            parts = chain([text[:-4] + "[\n"], (
                (",\n" if lo else "") + ",\n".join(
                    row % cells for cells in zip(*map(_json_cells, block)))
                for lo, block in zip(starts, blocks)), ["\n  ]\n}\n"])
    elif args.fmt == "csv":
        parts = chain(["".join(h + "\r\n" for h in header)
                       + ",".join(map(_csv_cell, columns)) + "\r\n"], (
            "".join(",".join(cells) + "\r\n" for cells in zip(
                *(_text_cells(col, _csv_cell) for col in block)))
            for block in blocks))
    elif listing is not None:
        parts = ["\n".join(header + _listing(*listing)) + "\n"]
    else:
        cells = [_text_cells(col, _fmt) for col in take(slice(None))]
        line = "  ".join(f"{{:<{max([len(c), *map(len, col)])}}}"
                         for c, col in zip(columns, cells)).format
        parts = chain(["".join(h + "\n" for h in header)
                       + line(*columns).rstrip() + "\n"], (
            "".join(line(*r).rstrip() + "\n"
                    for r in zip(*(col[lo:lo + _BLOCK_ROWS] for col in cells)))
            for lo in starts))
    if not args.out:
        for part in parts:
            sys.stdout.write(part)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise _UsageError(f"cannot write output file: {exc}") from None


def _solved_columns(keys, cols, solved):
    """The rows of each level's key cells (`keys`, one list per key
    column), its output columns `cols` and its error text, as _render takes
    rows, from the (columns, errors) that engine.solve_levels gives. A
    level that failed has empty cells and its message, and the run goes
    on."""
    columns, errors = solved
    arrays = [columns[_LEVEL_COLS[c]] for c in cols]

    def take(rows):
        errs = errors[rows]
        failed = [i for i, err in enumerate(errs) if err is not None]
        values = [a[rows].tolist() for a in arrays]
        for col in values:
            for i in failed:
                col[i] = None
        return [*(key[rows] for key in keys), *values,
                ["" if err is None else str(err) for err in errs]]
    return len(errors), take


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
    _render(args, argv, _SOLVE_COLS, _one_row(row), record, (11, pairs))
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
    rows = _solved_columns([[l for l, _ in levels], [nr for _, nr in levels]],
                           _LEVEL_COLS,
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
    rows = _solved_columns([grid], _SWEEP_COLS[1:], solved)
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
    _render(args, argv, tuple(cells), _one_row(cells.values()), payload,
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
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: what is left of the
        # output goes to devnull, so the flush at exit raises nothing
        # (the recipe of the signal module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
