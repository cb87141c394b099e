"""Benchmark for nearfree.

    python3 perfbench/run.py --workload generic --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from `src/`.
One process, one thread, a closed loop with one client: each operation is
an in-process call to `nearfree.cli.main(argv)` with stdout captured, and
the next starts when it returns. A pass runs the workload's operation list
once; passes repeat until `--seconds` would be exceeded. The first pass is
a checked warm-up left out of the timings; at least two measured passes
follow, so outputs are always compared across passes. Times are rescaled by
a calibration kernel run next to them (calibrate.py, README.md).

Every output is checked against hand-written references (workloads.py),
must be byte-identical in every pass, and the syzygy results of `generic`
and `reflection` are certified after timing by the independent arithmetic
in reference.py. The last line of stdout is one JSON object:

* --trace 0: end-to-end metrics from untraced passes;
* --trace 1: per-layer metrics from traced passes, alternated with
  untraced ones to measure the tracing overhead.

Spans and the work done by each input are written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, witness_text  # noqa: E402

SETUP_REPEATS = 15
MIN_PASSES = 3  # a warm-up pass and two measured ones
CAL_SAMPLES = 4  # calibration kernel runs in one batch; the first is dropped
CAL_EVERY_S = 0.25  # a batch after the first operation that ends this long after the last batch
# The calibration kernel's time at the reference speed: times are reported
# as time * CAL_REFERENCE_S / (the kernel's time next to them).
CAL_REFERENCE_S = 0.01
MODULES = ("nearfree.arrangement", "nearfree.classify", "nearfree.cli", "nearfree.criteria")


def import_program() -> dict:
    """Import nearfree afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "nearfree" or m.startswith("nearfree.")]:
        del sys.modules[name]
    package = importlib.import_module("nearfree")
    if Path(package.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        raise ImportError(f"nearfree imported from {package.__file__}, not from src/")
    return {name: importlib.import_module(name) for name in MODULES}


def set_up(workload: str, seed: int, workdir: Path):
    """Import, write the inputs, and build every catalog entry (each build
    re-verifies its census)."""
    modules = import_program()
    ops = WORKLOADS[workload](random.Random(seed), workdir)
    arrangement = modules["nearfree.arrangement"]
    for name in arrangement.catalog_names():
        arrangement.catalog(name)
    return modules, ops


class Calibration:
    """Runs calibrate.py in a second interpreter, pinned to this process's
    CPU, and times its kernel on request (see README.md, Calibration)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            os.sched_setaffinity(self.proc.pid, os.sched_getaffinity(0))
            self.sample()  # warm the kernel
        except BaseException:
            self.close()
            raise

    def sample(self, count: int = CAL_SAMPLES) -> list:
        times = []
        for _ in range(count):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            times.append(float(self.proc.stdout.readline()))
        return times

    def batch(self) -> float:
        """Median kernel time of one batch, without its first, cold, run."""
        return statistics.median(self.sample()[1:])

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_op(main, op):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
        problem = op.check(rc, out.getvalue(), err.getvalue())
    except Exception:  # an exception is a failed operation, not a stop
        problem = traceback.format_exc(limit=4)
    return perf_counter() - t0, out.getvalue(), problem


def measure(ops, main, seconds: float, calibration, tracer=None, modules=None):
    """Run passes. Pass 0 warms the program's caches: it is checked and
    gives the reference output, but stays out of the timings. With a tracer,
    the odd passes are traced. Between operations, outside their times, the
    calibration kernel runs a batch every CAL_EVERY_S: `cals` holds the
    median of each batch but its first, cold, run."""
    passes, outputs, problems = [], [None] * len(ops), []
    start = last_batch = perf_counter()
    while True:
        number = len(passes)
        traced = tracer is not None and number % 2 == 1
        call = main
        if traced:
            tracer.install(modules)
            call = tracer.wrap(main, "cli.main")
        times, cals = [], []
        t0 = perf_counter()
        for i, op in enumerate(ops):
            if traced:
                tracer.op = (number, i)
            dt, out, problem = run_op(call, op)
            times.append(dt)
            if perf_counter() - last_batch >= CAL_EVERY_S:
                cals.append(calibration.batch())
                last_batch = perf_counter()
            if outputs[i] is None:
                outputs[i] = out
            elif out != outputs[i] and problem is None:
                problem = "output differs from the first pass"
            if problem:
                problems.append((number, i, problem))
        if traced:
            tracer.uninstall()
        if not cals:
            cals.append(calibration.batch())
        passes.append({"wall": sum(times), "times": times, "cals": cals, "traced": traced,
                       "warmup": number == 0, "duration": perf_counter() - t0})
        elapsed = perf_counter() - start
        typical = statistics.median(p["duration"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes, outputs, problems


def tail_count(count: int) -> int:
    """How many of the slowest operations `op_s.tail` averages: a quarter."""
    return max(1, math.ceil(count / 4))


def certify(ops, outputs) -> dict:
    """Independent certificates for the syzygy results: the printed witness
    satisfies a*f_x + b*f_y + c*f_z = 0 at degree mdr, and the relation
    matrix at mdr - 1 has full column rank mod p. Returns {op index: record}."""
    records = {}
    for i, op in enumerate(ops):
        if op.lines is None:
            continue
        f = reference.product_of_lines(op.lines)
        d, r = len(op.lines), op.mdr
        record = {"witness": False, "rank_prime": None}
        try:
            witness = tuple(reference.parse_poly(t) for t in witness_text(outputs[i]))
            record["witness"] = reference.witness_holds(f, witness, r)
        except (TypeError, ValueError, AttributeError):
            pass
        if r == 0:
            record["rank_prime"] = 0  # nothing below degree 0
        else:
            record["rank_prime"] = reference.full_column_rank_mod_p(f, r - 1)
        record["ok"] = record["witness"] and record["rank_prime"] is not None
        record["shapes"] = [list(reference.relation_shape(d, k)) for k in range(r + 1)]
        records[i] = record
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the calibration shares it
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        with Calibration() as calibration:
            setups, setup_cals = [], []
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                modules, ops = set_up(args.workload, args.seed, workdir)
                setups.append(perf_counter() - t0)
                setup_cals.append(calibration.batch())
            setup_cal = statistics.mean(setup_cals)
            tracer = tracing.Tracer() if args.trace else None
            passes, outputs, problems = measure(ops, modules["nearfree.cli"].main,
                                                args.seconds, calibration, tracer, modules)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        certificates = certify(ops, outputs)
    except ImportError as exc:
        print(f"error: cannot import nearfree from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = {(n, i) for n, i, _ in problems}
    for i, record in certificates.items():
        if not record["ok"]:
            problems.append(("cert", i, f"certificate failed: {record}"))
            failed |= {(n, i) for n in range(len(passes))}
    attempted = len(passes) * len(ops)

    plain = [p for p in passes if not p["traced"] and not p["warmup"]]
    if args.trace:
        per_pass = tracing.layer_metrics(tracer.spans, {i: op.kind for i, op in enumerate(ops)})
        layer = tracing.median_metrics(per_pass)
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        layer["linalg.kernel_share"] = layer["linalg.kernel_s"] / traced_wall
        layer["trace.overhead_s"] = traced_wall - statistics.median(p["wall"] for p in plain)
        layer["host.calibration_s"] = statistics.median(c for p in passes for c in p["cals"])
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
                   for name, value in layer.items()}
    else:
        # A pass's time adds up the host's slowness over the pass, so it is
        # scaled by the mean kernel time over the pass, not the median.
        scaled = [[t * CAL_REFERENCE_S / statistics.mean(p["cals"]) for t in p["times"]]
                  for p in plain]
        per_op = [statistics.median(times[i] for times in scaled) for i in range(len(ops))]
        slowest = sorted(per_op)[-tail_count(len(ops)):]
        metrics = {
            "wall_s": {"value": statistics.median(map(sum, scaled)), "unit": "s"},
            "op_s.p50": {"value": statistics.median(per_op), "unit": "s"},
            "op_s.tail": {"value": statistics.mean(slowest), "unit": "s"},
            "setup_s": {"value": statistics.median(setups) * CAL_REFERENCE_S / setup_cal,
                        "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = [{"argv": [Path(a).name if a.startswith(str(workdir)) else a for a in op.argv],
             **op.work, "mdr": op.mdr, **certificates.get(i, {})}
            for i, op in enumerate(ops)]
    (out_dir / f"{stem}-work.json").write_text(json.dumps(work, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    samples = {"setups": setups, "setup_cal": setup_cal, "passes": passes}
    (out_dir / f"{stem}-samples.json").write_text(json.dumps(samples), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(plain)} measured untraced), {len(ops)} ops per pass")
    print("pass walls (s, T traced, W warm-up):",
          " ".join(f"{p['wall']:.3f}{'T' * p['traced']}{'W' * p['warmup']}" for p in passes))
    if not args.trace:
        print(f"times are medians over {len(plain)} measured passes, rescaled by the "
              f"calibration kernel; op_s.tail is the mean of the slowest "
              f"{tail_count(len(ops))} of {len(ops)} ops")
    for entry in work:
        print("work", json.dumps(entry, separators=(",", ":")))
    for number, i, problem in problems[:20]:
        print(f"FAILED pass {number} op {i} {ops[i].argv}: {problem}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
