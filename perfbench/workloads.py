"""Seeded workload decks.

A workload is an endless sequence of cycles. Cycle c of seed s is built
from its own random stream, so every run of one seed sees the same inputs
and cycles never repeat an input. Each cycle holds a fixed mix of op kinds
(stratified), so the cost of a cycle, and the share of ops that hit a known
defect, barely moves from seed to seed. Parameters, quantum numbers,
spellings and output formats are what the seed varies.

An Op carries the argv handed to `slet.cli.main` and everything the checker
needs to judge the bytes the CLI wrote; the program sees only the argv.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectrum", "sweep", "solve", "validate")
FORMATS = ("table", "csv", "json")

# traced runs execute a fixed number of cycles so that their counts repeat
# exactly; sized to take roughly one untraced run_seconds at baseline
TRACE_CYCLES = {"spectrum": 5, "sweep": 6, "solve": 120, "validate": 6}

# first zeros of Ai, |a_1|, |a_2|, |a_3|
AIRY_ZEROS = (2.3381074104597674, 4.08794944413097, 5.520559828095515)

# the one defect this benchmark expects to see: the finite-difference oracle
# is wrong for 2D states with m = 0 (the attractive -1/(4 rho^2) term)
DEFECT_2D_M0 = "2D m=0 oracle"


@dataclass(frozen=True)
class Op:
    workload: str
    argv: tuple
    levels: int  # energy levels the op delivers
    ref: dict = field(default_factory=dict)  # what the checker compares to
    known_defect: str | None = None


def _num(x: float, digits: int = 6) -> str:
    """A parameter as a user would type it: a short decimal."""
    return f"{x:.{digits}g}"


def _param_argv(params: dict) -> list:
    out = []
    for k, v in params.items():
        out += ["--param", f"{k}={v}"]
    return out


def _potential_argv(text: str) -> list:
    # a leading '-' would read as a flag, so such sources use the = form
    return [f"--potential={text}"] if text.startswith("-") else ["--potential", text]


def _rng(seed: int, workload: str, cycle: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{cycle}")


def _floats(params: dict) -> dict:
    return {k: float(v) for k, v in params.items()}


# -- spectrum -------------------------------------------------------------

_SPECTRUM_KINDS = [(d, f) for d in (3, 2)
                   for f in ("power", "power", "log", "coulomb", "harmonic")]


def _spectrum_params(rng, family):
    if family == "power":
        return {"A": _num(rng.uniform(0.5, 2.0), 4),
                "nu": _num(rng.uniform(0.5, 4.0), 4)}
    if family == "log":
        return {"A": _num(rng.uniform(0.5, 2.0), 4),
                "b": _num(rng.uniform(0.5, 2.0), 4)}
    if family == "harmonic":
        return {"B": _num(rng.uniform(0.5, 3.0), 4)}
    return {}


def spectrum_cycle(seed: int, cycle: int) -> list:
    rng = _rng(seed, "spectrum", cycle)
    kinds = list(_SPECTRUM_KINDS)
    rng.shuffle(kinds)
    ops = []
    for i, (dim, family) in enumerate(kinds):
        params = _spectrum_params(rng, family)
        l_lo = rng.randint(0, 2)
        fmt = FORMATS[(cycle * len(kinds) + i) % 3]
        argv = (["spectrum", "--dim", str(dim), "--potential", family]
                + _param_argv(params)
                + ["--l-range", f"{l_lo}..{l_lo + 9}", "--nr-range", "0..9",
                   "--format", fmt])
        ops.append(Op("spectrum", tuple(argv), 100,
                      {"dim": dim, "family": family, "params": _floats(params),
                       "l": (l_lo, l_lo + 9), "nr": (0, 9), "fmt": fmt}))
    return ops


# -- sweep -----------------------------------------------------------------

SWEEP_ROWS = 101
SWEEP_SPOT_CHECKS = 3  # gamma > 0 rows re-solved through the expression path


def sweep_cycle(seed: int, cycle: int) -> list:
    rng = _rng(seed, "sweep", cycle)
    ms = [-2, -1, 0, 1, 2, rng.choice((-3, 3))]
    nrs = [0, 0, 1, 1, 2, 2]
    rng.shuffle(ms)
    rng.shuffle(nrs)
    ops = []
    for i, (m, nr) in enumerate(zip(ms, nrs)):
        step = rng.randint(20, 200) / 100.0  # 0.2 .. 2.0
        hi = _num(step * (SWEEP_ROWS - 1), 8)
        fmt = FORMATS[(cycle * len(ms) + i) % 3]
        argv = ["sweep", "--dim", "2", "--potential", "donor", f"--m={m}",
                "--nr", str(nr), "--gamma", f"0:{hi}:{step}", "--format", fmt]
        spots = sorted(rng.sample(range(1, SWEEP_ROWS), SWEEP_SPOT_CHECKS))
        ops.append(Op("sweep", tuple(argv), SWEEP_ROWS,
                      {"m": m, "nr": nr, "step": step, "rows": SWEEP_ROWS,
                       "fmt": fmt, "spots": spots}))
    return ops


# -- solve -----------------------------------------------------------------
# Each entry: builtin family the expression restates (None: no builtin), the
# spellings, and a sampler for (params, dim, l). Spellings name parameters
# in braces; a coin flip decides whether they go in as --param or inline.

_SOLVE_SPELLINGS = {
    "coulomb": ["-2/r", "-2*r^-1", "-(2/r)", "(-2)/r", "0-2/r", "-2*r**(-1)",
                "-1/r-1/r", "-2*exp(-ln(r))", "-2/sqrt(r*r)"],
    "harmonic": ["{B}^2*r^2/4", "({B}*r/2)^2", "{B}*{B}*r*r/4",
                 "0.25*{B}^2*r^2", "r^2*{B}^2/4", "{B}^2*exp(2*ln(r))/4"],
    "power": ["{A}*r^{nu}", "{A}*exp({nu}*ln(r))", "r^{nu}*{A}", "{A}*r**{nu}",
              "{A}*sqrt(r^(2*{nu}))"],
    "log": ["{A}*ln(r/{b})", "{A}*(ln(r)-ln({b}))", "{A}*ln(r)-{A}*ln({b})",
            "-{A}*ln({b}/r)", "{A}*ln(r*r/({b}*{b}))/2"],
    "donor": ["-2/r + {m}*{gamma} + {gamma}^2*r^2/4",
              "{gamma}^2*r^2/4-2/r+{m}*{gamma}",
              "-2/r+{gamma}*({m}+{gamma}*r^2/4)",
              "-2*exp(-ln(r)) + {m}*{gamma} + ({gamma}*r/2)^2"],
    "landau": ["{m}*{g} + {g}^2*r^2/4", "{g}*({m}+{g}*r^2/4)",
               "({g}*r/2)^2+{m}*{g}", "{m}*{g} + {g}^2*exp(2*ln(r))/4"],
    "linear": ["{A}*r", "r*{A}", "{A}*r^1", "{A}*sqrt(r*r)", "{A}*exp(ln(r))"],
}

_SOLVE_KINDS = ("coulomb", "harmonic", "power", "log", "donor", "landau",
                "linear", "power")


def _solve_case(rng, kind):
    """(params, dim, l) for one solve op."""
    l = rng.randint(0, 4)
    dim = rng.choice((2, 3))
    if kind == "coulomb":
        return {}, dim, l
    if kind == "harmonic":
        return {"B": _num(rng.uniform(0.5, 3.0), 4)}, dim, l
    if kind == "power":
        return {"A": _num(rng.uniform(0.5, 2.0), 4),
                "nu": _num(rng.uniform(0.5, 4.0), 4)}, dim, l
    if kind == "log":
        return {"A": _num(rng.uniform(0.5, 2.0), 4),
                "b": _num(rng.uniform(0.5, 2.0), 4)}, dim, l
    if kind == "donor":
        m = rng.randint(-3, 3)
        return {"gamma": _num(rng.uniform(0.1, 100.0), 4), "m": str(m)}, 2, abs(m)
    if kind == "landau":
        m = rng.randint(-3, 3)
        return {"g": _num(rng.uniform(0.2, 20.0), 4), "m": str(m)}, 2, abs(m)
    return {"A": _num(rng.uniform(0.5, 2.0), 4)}, 3, l  # linear


def solve_cycle(seed: int, cycle: int) -> list:
    rng = _rng(seed, "solve", cycle)
    kinds = list(_SOLVE_KINDS)
    rng.shuffle(kinds)
    ops = []
    for i, kind in enumerate(kinds):
        params, dim, l = _solve_case(rng, kind)
        nr = rng.randint(0, 4)
        template = rng.choice(_SOLVE_SPELLINGS[kind])
        inline = rng.random() < 0.5
        if inline:
            src = template.format(**{k: f"({v})" if v.startswith("-") else v
                                     for k, v in params.items()})
            passed = {}
        else:
            src = template.format(**{k: k for k in params})
            passed = params
        fmt = FORMATS[(cycle * len(kinds) + i) % 3]
        argv = (["solve", "--dim", str(dim)] + _potential_argv(src)
                + _param_argv(passed)
                + ["--l", str(l), "--nr", str(nr), "--format", fmt])
        ops.append(Op("solve", tuple(argv), 1,
                      {"kind": kind, "params": _floats(params), "dim": dim,
                       "l": l, "nr": nr, "fmt": fmt}))
    return ops


# -- validate -------------------------------------------------------------
# Every state has an exact reference. Box radii follow the state's size so
# that the box wall is far into the decaying tail.

_VALIDATE_KINDS = ("coulomb3d", "harmonic3d", "linear3d", "landau2d",
                   "landau2d_m0", "donor2d", "donor2d_m0")
VALIDATE_TOL = "1e-6"


def _validate_case(rng, kind):
    """(argv pieces, dim, l, nr, exact energy, box radius)."""
    if kind == "coulomb3d":
        l = rng.randint(0, 2)
        nr = rng.randint(0, 2 - l)
        return ["--potential", "coulomb"], 3, l, nr, -1.0 / (nr + l + 1) ** 2, 14.0 * (nr + l + 1)
    if kind == "harmonic3d":
        b = _num(rng.uniform(0.5, 3.0), 4)
        l, nr = rng.randint(0, 2), rng.randint(0, 2)
        B = float(b)
        return (["--potential", "harmonic", "--param", f"B={b}"], 3, l, nr,
                B * (2 * nr + l + 1.5), math.sqrt(160.0 / B))
    if kind == "linear3d":
        a = _num(rng.uniform(0.5, 2.0), 4)
        nr = rng.randint(0, 2)
        A = float(a)
        return (["--potential", "A*r", "--param", f"A={a}"], 3, 0, nr,
                A ** (2.0 / 3.0) * AIRY_ZEROS[nr],
                (AIRY_ZEROS[nr] + 11.0) / A ** (1.0 / 3.0))
    if kind.startswith("landau2d"):
        m = 0 if kind.endswith("_m0") else rng.choice((-2, -1, 1, 2))
        g = _num(rng.uniform(0.5, 4.0), 4)
        nr = rng.randint(0, 1)
        G = float(g)
        exact = G * (2 * nr + abs(m) + m + 1)
        return (["--potential", "m*g + g^2*r^2/4", "--param", f"m={m}",
                 "--param", f"g={g}"], 2, abs(m), nr, exact,
                math.sqrt(160.0 / G))
    m = 0 if kind.endswith("_m0") else rng.choice((-2, -1, 1, 2))
    nr = rng.randint(0, 1)
    exact = -1.0 / (nr + abs(m) + 0.5) ** 2
    return (["--potential", "donor", "--param", "gamma=0", "--param", f"m={m}"],
            2, abs(m), nr, exact, 14.0 * (nr + abs(m) + 0.5))


def validate_cycle(seed: int, cycle: int) -> list:
    rng = _rng(seed, "validate", cycle)
    kinds = list(_VALIDATE_KINDS)
    rng.shuffle(kinds)
    # the same grid sizes in every cycle, dealt to the kinds at random
    grids = [600 + 400 * i // (len(kinds) - 1) for i in range(len(kinds))]
    rng.shuffle(grids)
    ops = []
    for i, (kind, n_grid) in enumerate(zip(kinds, grids)):
        pot_argv, dim, l, nr, exact, box = _validate_case(rng, kind)
        fmt = FORMATS[(cycle * len(kinds) + i) % 3]
        argv = (["validate", "--dim", str(dim)] + pot_argv
                + ["--l", str(l), "--nr", str(nr),
                   "--oracle-R", _num(box, 6), "--oracle-N", str(n_grid),
                   "--oracle-tol", VALIDATE_TOL, "--format", fmt])
        defect = DEFECT_2D_M0 if dim == 2 and l == 0 else None
        ops.append(Op("validate", tuple(argv), 1,
                      {"kind": kind, "exact": exact, "fmt": fmt},
                      known_defect=defect))
    return ops


CYCLES = {
    "spectrum": spectrum_cycle,
    "sweep": sweep_cycle,
    "solve": solve_cycle,
    "validate": validate_cycle,
}

# One fixed, seed-independent op per workload: the warm-up whose end marks
# the end of set-up. Keeping it fixed keeps setup_s comparable across seeds.
WARMUP = {
    "spectrum": Op("spectrum", ("spectrum", "--dim", "3", "--potential", "power",
                                "--param", "A=1", "--param", "nu=1.5",
                                "--l-range", "0..9", "--nr-range", "0..9",
                                "--format", "csv"), 100,
                   {"dim": 3, "family": "power",
                    "params": {"A": 1.0, "nu": 1.5},
                    "l": (0, 9), "nr": (0, 9), "fmt": "csv"}),
    "sweep": Op("sweep", ("sweep", "--dim", "2", "--potential", "donor",
                          "--m=-1", "--nr", "0", "--gamma", "0:100:1",
                          "--format", "csv"), SWEEP_ROWS,
                {"m": -1, "nr": 0, "step": 1.0, "rows": SWEEP_ROWS,
                 "fmt": "csv", "spots": [25, 50, 100]}),
    "solve": Op("solve", ("solve", "--dim", "3", "--potential", "A*r^nu",
                          "--param", "A=1", "--param", "nu=1.5", "--l", "1",
                          "--nr", "1", "--format", "json"), 1,
                {"kind": "power", "params": {"A": 1.0, "nu": 1.5}, "dim": 3,
                 "l": 1, "nr": 1, "fmt": "json"}),
    "validate": Op("validate", ("validate", "--dim", "3", "--potential",
                                "coulomb", "--l", "0", "--nr", "0",
                                "--oracle-R", "14", "--oracle-N", "800",
                                "--oracle-tol", VALIDATE_TOL), 1,
                   {"kind": "coulomb3d", "exact": -1.0, "fmt": "table"}),
}
