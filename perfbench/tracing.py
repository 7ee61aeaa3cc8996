"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces public functions of the slet modules with
wrappers that time each call and keep counters. Nothing under src/slet is
edited; the wrappers are module attributes, so every call site that looks a
function up through its module (or a class, for methods) passes through
them. A span nested in a span of the same name (from_name_or_source calling
donor, say) is folded into the outer one.

Spans keep a running total and a self time: the span's duration minus the
durations of the spans directly inside it.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); a class path in the attribute wraps a method
_TARGETS = (
    ("cli", "main", "cli.main"),
    ("potentials", "from_name_or_source", "potentials.build"),
    ("potentials", "donor", "potentials.build"),
    ("potentials", "Potential.eval_jet", "potentials.eval_jet"),
    ("potentials", "Potential.value", "potentials.value"),
    ("expr", "parse", "expr.parse"),
    ("expr", "evaluate", "expr.evaluate"),
    ("engine", "solve", "engine.solve"),
    ("engine", "solve_r0", "engine.solve_r0"),
    ("oracle", "eigenvalue", "oracle.eigenvalue"),
    ("oracle", "effective_potential", "oracle.assemble"),
    ("oracle", "sturm_counts", "kernels.sturm_counts"),
)

COUNTERS = ("engine.scan_points", "engine.root_evals", "oracle.grid_points",
            "kernels.sturm_row_steps", "kernels.bytes_computed")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.enabled = True
        self._stack = []  # [name, child seconds] of open spans

    # -- recording -------------------------------------------------------

    def _open(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name, fn, on_call=None):
        def wrapper(*args, **kwargs):
            if not self.enabled or self._open(name):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
        return wrapper

    # -- counters at the layer boundaries -----------------------------------

    def _on_eval_jet(self, pot, r0):
        if self._stack and self._stack[-1][0] == "engine.solve_r0":
            n = int(np.size(r0))
            if n == 1:
                self.counts["engine.root_evals"] += 1
            else:
                self.counts["engine.scan_points"] += n

    def _on_assemble(self, dim, l, potential, r):
        self.counts["oracle.grid_points"] += int(np.size(r))

    def _on_sturm(self, diag, off2, shifts, pivmin):
        rows, nshift = int(np.size(diag)), int(np.size(shifts))
        self.counts["kernels.sturm_row_steps"] += rows * nshift
        # computed, not measured: diag and off2 read once, shifts read and
        # counts written once, 8 bytes each
        self.counts["kernels.bytes_computed"] += 8 * (rows + int(np.size(off2))
                                                      + 2 * nshift)

    # -- installation ---------------------------------------------------------

    def install(self, slet):
        hooks = {"potentials.eval_jet": self._on_eval_jet,
                 "oracle.assemble": self._on_assemble,
                 "kernels.sturm_counts": self._on_sturm}
        for mod_name, attr, name in _TARGETS:
            owner = getattr(slet, mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(name, fn, hooks.get(name)))

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        ms = {k: 1e3 * v for k, v in self.total.items()}
        self_ms = {k: 1e3 * v for k, v in self.self_time.items()}
        out = {
            "cli.main.ms": (ms.get("cli.main", 0.0), "ms"),
            "cli.self.ms": (self_ms.get("cli.main", 0.0), "ms"),
        }
        for name in ("potentials.build", "potentials.eval_jet",
                     "potentials.value", "expr.parse", "expr.evaluate",
                     "engine.solve", "oracle.eigenvalue", "oracle.assemble",
                     "kernels.sturm_counts"):
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.ms"] = (ms.get(name, 0.0), "ms")
        solve_ms = ms.get("engine.solve", 0.0)
        r0_ms = ms.get("engine.solve_r0", 0.0)
        out["engine.solve_r0.ms"] = (r0_ms, "ms")
        out["engine.solve_r0.self.ms"] = (self_ms.get("engine.solve_r0", 0.0), "ms")
        out["engine.coeffs.ms"] = (solve_ms - r0_ms, "ms")
        out["oracle.eigen.ms"] = (ms.get("oracle.eigenvalue", 0.0)
                                  - ms.get("oracle.assemble", 0.0), "ms")
        for name in COUNTERS:
            unit = "bytes" if name.endswith("bytes_computed") else "count"
            out[name] = (self.counts[name], unit)
        return out

    def layer_shares(self) -> dict:
        """Self time per layer (the span name's first part) as a share of
        cli.main time."""
        whole = self.total.get("cli.main", 0.0)
        shares = defaultdict(float)
        for name, t in self.self_time.items():
            shares[name.split(".")[0]] += t
        return {k: (v / whole if whole else 0.0) for k, v in shares.items()}
