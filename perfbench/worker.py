"""One workload in one fresh process, driven by run.py.

Imports slet from <root>/src, runs the workload's fixed warm-up op, writes
READY, then (mode run) drives `slet.cli.main` from one closed-loop client
for whole cycles until the time spent inside the calls reaches --seconds,
or (mode trace) runs a fixed number of cycles with the per-layer wrappers
installed. Each op's stdout is captured and checked right after the call,
outside the timed region. The last line is RESULT followed by JSON.

In modes run and trace the worker also pauses at the start, about every
CAL_EVERY_S seconds of op time, and at the end: it writes CAL and waits for
a line on stdin while run.py times its calibration kernel, so that the
machine's speed is sampled next to the ops without running in this process.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

CAL_EVERY_S = 0.25  # op time between calibration pauses


def _import_slet(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import slet
    from slet import cli  # noqa: F401  (binds slet.cli)

    if Path(slet.__file__).resolve().parent != src / "slet":
        raise ImportError(f"slet imported from {slet.__file__}, not {src}")
    return slet


def _run_op(slet, op):
    """(exit code, stdout text, seconds inside cli.main, exception text)."""
    out, err = io.StringIO(), io.StringIO()
    exc_text = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = slet.cli.main(list(op.argv))
        except Exception as exc:  # an escaped traceback is a failed op
            rc, exc_text = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt, exc_text


class _Tally:
    """Outcome counts; failures split into expected defects and the rest."""

    def __init__(self, checks):
        self.checks = checks
        self.attempted = self.failed = 0
        self.by_defect = {}
        self.unexpected = 0
        self.examples = []

    def judge(self, op, rc, text, exc_text):
        self.attempted += 1
        problems = ([f"raised {exc_text}"] if exc_text is not None
                    else self.checks.check(op, rc, text))
        if not problems:
            return
        self.failed += 1
        if op.known_defect is not None:
            self.by_defect[op.known_defect] = self.by_defect.get(op.known_defect, 0) + 1
        else:
            self.unexpected += 1
            if len(self.examples) < 5:
                self.examples.append({"argv": list(op.argv),
                                      "problems": problems[:3]})

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "known_defects": self.by_defect,
                "unexpected_failures": self.unexpected,
                "unexpected_examples": self.examples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)
    proto = sys.stdout

    slet = _import_slet(Path(args.root))
    import checks
    import workloads

    tally = _Tally(checks)
    warm = workloads.WARMUP[args.workload]
    rc, text, _, exc_text = _run_op(slet, warm)
    print("READY", file=proto, flush=True)
    tally.judge(warm, rc, text, exc_text)
    warmup = tally.as_dict()
    if args.mode == "setup":
        print("RESULT " + json.dumps({"warmup": warmup}), file=proto, flush=True)
        return 0

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(slet)

    tally = _Tally(checks)
    next_cycle = workloads.CYCLES[args.workload]
    latencies, levels, busy, cycle = [], 0, 0.0, 0
    cal_marks, busy_at_cal = [], 0.0

    def calibration_pause():
        print("CAL", file=proto, flush=True)
        sys.stdin.readline()
        cal_marks.append(len(latencies))

    calibration_pause()
    while True:
        if args.mode == "run" and busy >= args.seconds:
            break
        if args.mode == "trace" and cycle >= workloads.TRACE_CYCLES[args.workload]:
            break
        for op in next_cycle(args.seed, cycle):
            rc, text, dt, exc_text = _run_op(slet, op)
            latencies.append(dt)
            busy += dt
            levels += op.levels
            if tracer is not None:
                tracer.enabled = False
            tally.judge(op, rc, text, exc_text)
            if tracer is not None:
                tracer.enabled = True
            if busy - busy_at_cal >= CAL_EVERY_S:
                calibration_pause()
                busy_at_cal = busy
        cycle += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if cal_marks[-1] != len(latencies):
        calibration_pause()

    result = {
        "warmup": warmup,
        "tally": tally.as_dict(),
        "cycles": cycle,
        "levels": levels,
        "latencies_s": latencies,
        "cal_marks": cal_marks,
        "peak_rss_mb": peak_rss_mb,
        "backend": slet._kernels.BACKEND,
        "has_numba": slet._kernels.HAS_NUMBA,
    }
    if tracer is not None:
        result["layers"] = {k: list(v) for k, v in tracer.metrics().items()}
        result["shares"] = tracer.layer_shares()
    print("RESULT " + json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
