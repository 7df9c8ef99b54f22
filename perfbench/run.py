#!/usr/bin/env python3
"""The redpow benchmark: one workload per process, timed end to end or per layer.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each invocation runs one workload as a single-threaded closed loop:
one case at a time, the next starting when the previous returns. Cases
come in rounds (see ``inputs.py``); a run measures the number of whole
rounds that take ``--seconds`` on the reference machine, so every run of
a workload does the same work in the same mix, and a slower program
takes longer rather than doing less. Every output is checked.

End-to-end times are reported in reference seconds: each case is timed
between two runs of a fixed pure-Python loop, and its wall time is
scaled by how much slower than ``CAL_REF_S`` the faster of the two ran.
On a shared machine whose speed drifts by up to 1.5x within minutes this
cancels most of the drift; the raw wall times are in the record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
case of half as many rounds untraced and traced, back to back, derives
per-layer numbers from the traced runs and reports the slowdown between
the two as ``trace_overhead_frac``. The last line of stdout is the result
object; the line before it is the full record with provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4  # extra set-ups, each in a fresh process, behind the setup_s median
TAIL_BEYOND = 10  # samples beyond the order statistic reported as case_s_tail
CAL_LOOP = 100_000  # iterations of the speed-calibration loop
CAL_REF_S = 0.008  # its wall time on the reference machine (2 cores, Python 3.11)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Run BLAS on one thread (<= nproc); must run before numpy is imported.

    The loop itself is single-threaded; on a 2-core machine a second
    BLAS thread only contends with it (a float-ladder round took 9.6 s
    with one thread and 11.3 s with two).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's current speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    return perf_counter() - t0


def round_count(workload: str, seconds: float, trace: int) -> int:
    """Whole rounds a run measures; a traced run runs each round twice, so half as many."""
    from inputs import ROUND_SECONDS

    n = max(1, round(seconds / ROUND_SECONDS[workload]))
    return max(1, n // 2) if trace else n


def setup(workload: str, seed: int, workdir: Path, n_rounds: int):
    """Import, generate inputs, run one untimed warm-up case.

    Returns (redpow, rounds, wall seconds, reference seconds).
    """
    cal = calibrate()
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import redpow
    import redpow.cli

    if Path(redpow.__file__).resolve().parent != SRC / "redpow":
        raise SystemExit(f"error: imported redpow from {redpow.__file__}, not from {SRC}")
    import execute
    from inputs import WORKLOADS, Writer

    rounds, warm = WORKLOADS[workload](Writer(workdir), seed, n_rounds)
    warm_outcome = execute.run(warm, redpow)
    if warm_outcome.failed:
        raise SystemExit(f"error: warm-up case {warm.id} failed: {warm_outcome.error}")
    wall = perf_counter() - t0
    return redpow, rounds, wall, wall * CAL_REF_S / min(cal, calibrate())


def child_setups(args, workdir: Path) -> list[tuple[float, float]]:
    """(wall, reference) seconds of SETUP_REPEATS set-ups, each in a fresh process."""
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-only", str(workdir / f"setup{i}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def run_rounds(rounds, redpow, tracer=None):
    """Closed loop over every round.

    Without a tracer, returns (outcome, reference seconds) pairs; with
    one, every case runs untraced and traced back to back, the order
    alternating from case to case, so a drift in the machine's speed
    does not land on one side; the outcomes come as (traced, outcome)
    pairs. Also returns the timed wall seconds.
    """
    import execute

    outcomes = []
    t0 = perf_counter()
    for row in rounds:
        if tracer is None:
            cal = calibrate()
            for case in row:
                o = execute.run(case, redpow)
                after = calibrate()
                outcomes.append((o, o.seconds * CAL_REF_S / min(cal, after)))
                cal = after
            continue
        for i, case in enumerate(row):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    o = execute.run(case, redpow, tracer.run_case if traced else None)
                finally:
                    tracer.uninstall()
                if traced and case.out is not None:
                    tracer.note(case.id, "report_bytes", o.report_bytes)
                outcomes.append((traced, o))
    return outcomes, perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond).

    That is the sample with exactly TAIL_BEYOND larger ones, at
    percentile 100 * rank / (n - 1). Where that rank is not above the
    median (fewer than 22 samples), the median stands in and the record
    shows how many samples lie beyond it.
    """
    xs = sorted(times)
    n = len(xs)
    rank = n - 1 - TAIL_BEYOND
    if 2 * rank <= n - 1:
        return statistics.median(xs), 50.0, n // 2
    return xs[rank], 100 * rank / (n - 1), TAIL_BEYOND


def shares(cases) -> dict:
    n = len(cases)
    return {tag: sum(tag in c.tags for c in cases) / n for tag in ("reversible", "wide", "triangles")}


def provenance(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "source": source_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def source_id() -> str:
    """git sha of the checkout, or a hash of src/ where there is no git metadata."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            return "git:" + proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def end_to_end(timed, wall: float, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds, with the raw wall figures in the detail."""
    raw = [o.seconds for o, _ in timed]
    times = [t for _, t in timed]
    tail_s, p, beyond = tail(times)
    ok = sum(not o.failed for o, _ in timed)
    setup_ref = [ref for _, ref in setups]
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "case_s_p50": (statistics.median(times), "s"),
        "case_s_tail": (tail_s, "s"),
        "cases_per_s": (ok / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    detail = {
        "samples": {"setup_s": len(setups), "case_s_p50": len(times),
                    "case_s_tail": len(times), "cases_per_s": ok, "peak_rss_mb": 1},
        "setup_s_samples": setup_ref,
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "case_ref_seconds": times,
        "wall": {
            "setup_s": statistics.median(w for w, _ in setups),
            "case_s_p50": statistics.median(raw),
            "case_s_tail": tail(raw)[0],
            "cases_per_s": ok / sum(raw),
            "timed_s": wall,
            "speed": sum(raw) / sum(times),
        },
    }
    return metrics, detail


LAYER_UNITS = {
    "power.build_calls": "count",
    "power.states_built": "count",
    "squares.basis_elements": "count",
    "cli.report_bytes": "bytes",
    "ctmc.product_bits_max": "bits",
    "ctmc.pi_bits_max": "bits",
    "ctmc.solver_errors": "count",
    "ctmc.reversible_share": "ratio",
    "trace_overhead_frac": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-sweep", "float-ladder", "basis-audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, metavar="DIR",
                        help="set up in DIR, print its wall and reference seconds and exit")
    args = parser.parse_args(argv)

    if not (SRC / "redpow" / "__init__.py").is_file():
        print(f"error: no redpow sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(HERE))

    n_rounds = round_count(args.workload, args.seconds, args.trace)
    if args.setup_only is not None:
        try:
            _, _, wall, ref = setup(args.workload, args.seed, args.setup_only, n_rounds)
        finally:
            shutil.rmtree(args.setup_only, ignore_errors=True)
        print(json.dumps([wall, ref]))
        return 0

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        redpow, rounds, *own_setup = setup(args.workload, args.seed, workdir / "inputs", n_rounds)
        if args.trace:
            from layertrace import Tracer

            tracer = Tracer()
            pairs, wall = run_rounds(rounds, redpow, tracer)
            outcomes = [o for _, o in pairs]
            # the median over cases of traced over untraced time: a sum
            # would be set by the noise on the few dearest cases
            seconds = {(o.case.id, t): o.seconds for t, o in pairs}
            ratios = [seconds[cid, True] / seconds[cid, False] for cid, t in seconds if t]
            values, samples, account = tracer.layer_metrics()
            values["trace_overhead_frac"] = statistics.median(ratios) - 1
            samples["trace_overhead_frac"] = len(ratios)
            metrics = {
                name: (value, LAYER_UNITS.get(name, "s")) for name, value in values.items()
            }
            spans_dir = HERE / "_work" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_file = spans_dir / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
            detail = {"samples": samples, "account": account,
                      "spans_file": str(spans_file.relative_to(ROOT))}
        else:
            timed, wall = run_rounds(rounds, redpow)
            outcomes = [o for o, _ in timed]
            setups = [tuple(own_setup)] + child_setups(args, workdir)
            metrics, detail = end_to_end(timed, wall, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o for o in outcomes if o.failed]
    record = provenance(args) | detail | {
        "rounds": n_rounds,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failed_frac": len(failures) / len(outcomes),
        "wrong": sum(o.wrong for o in outcomes),
        "input_shares": shares([o.case for o in outcomes]),
        "failures": [{"case": o.case.id, "error": o.error[:300]} for o in failures],
        "case_seconds": [[o.case.id, o.seconds] for o in outcomes],
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {record['failed_frac']:.6g} ratio "
          f"({len(failures)} of {len(outcomes)})")
    for f in record["failures"]:
        print(f"{args.workload} FAILED {f['case']}: {f['error']}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
