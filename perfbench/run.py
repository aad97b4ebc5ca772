"""stratacalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload matrix-shipped --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ./src. With
`--trace 0` the run times whole CLI ops with no instrumentation and reports
the end-to-end metrics, in seconds normalised for the host's speed
(hostspeed.py). With `--trace 1` it runs every op untraced and then
with the layer functions wrapped by `tracer.Tracer`, and reports per-layer
metrics, including the tracing overhead. Human-readable lines come first;
the last line of standard output is one JSON object. See README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"   # measure the program, not the BLAS scheduler

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import NOMINAL_KERNEL_S, SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 5          # fresh interpreters per run; setup_s is their median
MIN_CYCLES = 2             # every op runs at least twice: determinism check
TAIL_EXCESS = 10           # samples required beyond the tail percentile
CHILD_TIMEOUT = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    if not (SRC / "stratacalc" / "__init__.py").is_file():
        raise BenchError(f"no stratacalc sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import stratacalc
    if Path(stratacalc.__file__).resolve().parent != SRC / "stratacalc":
        raise BenchError(f"imported stratacalc from {stratacalc.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc


def measure_setup(workload) -> list[tuple[float, float]]:
    """(wall seconds, kernel seconds) of SETUP_REPEATS fresh interpreters."""
    argv = [str(HERE / "setup_probe.py"), str(SRC), workload.corpus_file or "-",
            *(f"{fid}:{oid}" for fid, oid in workload.setup_rows())]
    out = []
    for _ in range(SETUP_REPEATS):
        wall, kernel = run_child(argv).stdout.split()
        out.append((float(wall), float(kernel)))
    return out


def import_times() -> dict[str, float]:
    """Cumulative import seconds of stratacalc and scipy.optimize (-X importtime)."""
    proc = run_child(["-X", "importtime", "-c", "import stratacalc"])
    out = {"stratacalc": 0.0, "scipy.optimize": 0.0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m and m.group(2) in out:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return out


def run_op(op):
    """Run one CLI command in-process; returns (start, end, exit code, report).

    An op that raises gets exit code None and the traceback as its report.
    """
    from stratacalc import cli
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except Exception:
        return t0, time.perf_counter(), None, traceback.format_exc()
    return t0, time.perf_counter(), rc, buf.getvalue()


class Tally:
    """Op time windows, known-answer results and report digests of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.windows: list[tuple[float, float]] = []   # (start, end) of each op
        self.failed = 0
        self.totals = dict(verdicts=0, wrong=0, known_defect=0, inconclusive=0,
                           cells_skipped=0, newton_iters=0)
        self.digests: dict[tuple, str] = {}
        self.mismatches = 0
        self.problems: list[str] = []

    def record(self, op, t0, t1, rc, text) -> None:
        from workloads import OpCheck, check_op
        if rc is None:
            res = OpCheck(problems=[f"{' '.join(op.argv)} raised: "
                                    f"{text.strip().splitlines()[-1]}"])
        else:
            res = check_op(self.workload.corpus, op, text, rc)
        digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        if self.digests.setdefault(op.argv, digest) != digest:
            self.mismatches += 1
            res.problems.append(f"{' '.join(op.argv)}: report differs from an "
                                f"earlier run with the same seed")
        self.windows.append((t0, t1))
        for key in self.totals:
            self.totals[key] += getattr(res, key)
        if not res.ok:
            self.failed += 1
            self.problems += res.problems

    def absorb(self, other: "Tally") -> None:
        self.windows += other.windows
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.problems += other.problems
        for key in self.totals:
            self.totals[key] += other.totals[key]

    def wall(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.windows]

    def run_cycles(self, cycles: int) -> None:
        for _ in range(cycles):
            for op in self.workload.ops:
                self.record(op, *run_op(op))


def cycle_count(workload, seconds: float) -> int:
    """Op cycles filling `seconds` at the workload's nominal speed."""
    return max(MIN_CYCLES, round(seconds / workload.cycle_seconds))


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_EXCESS samples
    beyond it; the maximum when the sample is too small for one above the
    median."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_EXCESS + 1:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_EXCESS], 100.0 * (n - TAIL_EXCESS) / n


def quartile_spread(xs) -> float:
    """Interquartile range as a share of the median."""
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, args):
    setups = measure_setup(workload)
    setup_norm = [wall * NOMINAL_KERNEL_S / kernel for wall, kernel in setups]
    tally = Tally(workload)
    probe = SpeedProbe()
    probe.start()
    try:
        tally.run_cycles(cycle_count(workload, args.seconds))
    finally:
        probe.stop()
    lat = [probe.normalise(t0, t1) for t0, t1 in tally.windows]
    tail_v, tail_pct = tail(lat)
    op_time = sum(lat)
    t = tally.totals
    metrics = {
        "setup_s": metric(statistics.median(setup_norm), "s"),
        "op_p50_s": metric(statistics.median(lat), "s"),
        "op_tail_s": metric(tail_v, "s"),
        "verdicts_per_s": metric(t["verdicts"] / op_time, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
    }
    kernels = probe.durations
    print(f"host speed: reference kernel median {statistics.median(kernels) * 1e3:.3f} ms "
          f"over {len(kernels)} samples (IQR {quartile_spread(kernels):.3f} of it); "
          f"times below are normalised to {NOMINAL_KERNEL_S * 1e3:.1f} ms")
    print(f"setup_s runs: {', '.join(f'{s:.4f}' for s in setup_norm)} normalised; "
          f"{', '.join(f'{w:.4f}' for w, _ in setups)} wall")
    print(f"op_tail_s is the p{tail_pct:.1f} of n={len(lat)} op latencies")
    wall = tally.wall()
    print(f"wall clock: op p50 {statistics.median(wall):.4f} s, op time {sum(wall):.3f} s")
    if len(lat) <= 2 * TAIL_EXCESS:
        print(f"op latencies: {', '.join(f'{x:.4f}' for x in lat)} normalised; "
              f"{', '.join(f'{x:.4f}' for x in wall)} wall")
    return tally, metrics


def traced(workload, args):
    from tracer import SPANS, Tracer

    imports = import_times()
    plain, shadow = Tally(workload), Tally(workload)
    shadow.digests = plain.digests       # traced reports must match untraced
    tracer = Tracer()
    outcomes = []
    cycles = max(1, cycle_count(workload, args.seconds) // 2)
    for _ in range(cycles):
        # each op runs untraced, then traced, so the overhead ratio compares
        # runs made close together in time
        for op in workload.ops:
            plain.record(op, *run_op(op))
            tracer.install()
            try:
                idx = tracer.begin("op")
                try:
                    outcomes.append((op, *run_op(op)))
                finally:
                    tracer.finish(idx)
            finally:
                tracer.uninstall()
    for outcome in outcomes:
        shadow.record(*outcome)

    spans = tracer.summary()
    c = tracer.counters.get
    op_total = spans["op"][1]
    unattributed = spans["op"][2]
    attributed = sum(v[2] for name, v in spans.items() if name != "op")
    m = {}
    for name in sorted({s.span for s in SPANS}):
        n_calls, _, own = spans.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = metric(n_calls, "count")
        m[f"{name}.self_s"] = metric(own, "s")
    m["corpus.build_s"] = metric(spans.get("corpus.build", (0, 0.0))[1], "s")
    m["corpus.load_s"] = metric(spans.get("corpus.load", (0, 0.0))[1], "s")
    m["import.stratacalc_s"] = metric(imports["stratacalc"], "s")
    m["import.scipy_optimize_s"] = metric(imports["scipy.optimize"], "s")
    lp = c("piecewise.lp_solves", 0.0)
    m["piecewise.lp_solves"] = metric(lp, "count")
    m["piecewise.cells.nonempty_per_lp"] = metric(
        c("piecewise.lp_nonempty", 0.0) / lp if lp else 0.0, "ratio")
    for key in ("piecewise.sample_cell_point.none", "piecewise.compose_exact.pieces_out",
                "conditions.samples_outside_box", "conditions.cond5.trivial_dirs",
                "conditions.cond3.excused", "solvers.newton.iters"):
        m[key] = metric(c(key, 0.0), "count")
    n_oracle = spans.get("oracles.call", (0,))[0]
    m["oracles.vertices_per_call"] = metric(
        c("oracles.vertices", 0.0) / n_oracle if n_oracle else 0.0, "ratio")
    plain_time = sum(plain.wall())
    traced_time = sum(shadow.wall())
    m["trace.op_s"] = metric(op_total, "s")
    m["trace.untraced_op_s"] = metric(plain_time, "s")
    ratios = [t / p for t, p in zip(shadow.wall(), plain.wall())]
    m["trace.overhead_ratio"] = metric(statistics.median(ratios), "ratio")
    m["trace.unattributed_s"] = metric(unattributed, "s")
    plain.absorb(shadow)
    for key in ("wrong", "known_defect", "inconclusive", "cells_skipped"):
        m[f"checks.{key}"] = metric(plain.totals[key], "count")
    if abs(attributed + unattributed - op_total) > 1e-6 * max(op_total, 1.0):
        plain.problems.append(f"self times {attributed + unattributed!r} do not sum "
                              f"to the traced op time {op_total!r}")
    print(f"traced {cycles} cycle(s): op time {traced_time:.3f} s traced vs "
          f"{plain_time:.3f} s untraced; median per-op overhead "
          f"x{statistics.median(ratios):.3f}")
    print(f"self times: attributed {attributed:.4f} s + unattributed "
          f"{unattributed:.4f} s = traced op time {op_total:.4f} s")
    return plain, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
        from tracer import check_names
        import workloads
        if args.workload not in workloads.NAMES:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {', '.join(workloads.NAMES)}")
        check_names()
        workload = workloads.build(args.workload, args.seed, WORKDIR)
    except (BenchError, LookupError, ImportError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    print(f"workload {workload.name} ({workload.why}); seed {args.seed}; "
        f"{len(workload.ops)} op(s) per cycle; trace {args.trace}")
    if workload.corpus_file:
        print(f"generated corpus: seed {workloads.GENERATED_CORPUS_SEED}, "
            f"(n, k) = {workloads.GENERATED_SHAPES}, "
            f"{len(workload.corpus.functions)} functions, "
            f"{len(workload.corpus.matrix_rows)} rows")
    try:
        tally, metrics = (traced if args.trace else untraced)(workload, args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    t = tally.totals
    print(f"ops = {len(tally.windows)} count; ops_failed = {tally.failed} count")
    print(f"verdicts = {t['verdicts']} count; verdicts_wrong = {t['wrong']} count; "
          f"verdicts_inconclusive = {t['inconclusive']} count")
    print(f"known_defect = {t['known_defect']} count (wrong verdicts and solve "
          f"values explained by the recorded EPS_CELL defect)")
    print(f"cells_skipped = {t['cells_skipped']} count; "
        f"newton_iters = {t['newton_iters']} count")
    print(f"determinism: {len(tally.digests)} distinct op(s), each run at least "
          f"twice; {tally.mismatches} report(s) differ from an earlier run")
    for problem in tally.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    if not args.trace:
        for name, v in metrics.items():
            print(f"{name} = {v['value']!r} {v['unit']}")
    result = {"correct": not tally.problems, "attempted": len(tally.windows),
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
