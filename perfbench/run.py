#!/usr/bin/env python3
"""gordankit benchmark: time to a verified verdict, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decide-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` runs whole rounds of the workload's corpus, closed loop with
one client, until ``--seconds`` have passed, and reports the end-to-end
metrics, with times scaled to a fixed machine speed (see "Machine speed").
``--trace 1`` replays a fixed prefix of the corpus twice, first untraced and
then with every layer wrapped (see ``tracer.py``), and reports the per-layer
metrics and the tracing overhead.  Every result is re-checked
by an independent test; the last line of stdout is one JSON object.
"""

import os
import sys

# Fixed before numpy loads: BLAS runs single-threaded, and the package's
# seed default must not leak in from the environment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("GORDANKIT_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decide-small", "decide-scale", "qp-certify", "cli-mix")
SETUP_REPEATS = 3
# The tail is read at a fixed nearest-rank percentile per workload, so runs
# of different length (or code of different speed) compare like with like.
# A run goes on past --seconds until it has enough operations that did not
# raise for ten of them to lie beyond that percentile.
TAIL_PERCENTILE = {"decide-small": 98.0, "decide-scale": 75.0, "qp-certify": 90.0,
                   "cli-mix": 90.0}
TAIL_BEYOND = 10
MAX_LOOP_SECONDS = 120.0
HELD_OUT_SEED = 90001  # never used while tuning; re-check perf claims on it
# Times are reported at the machine speed at which one run of the
# calibration kernel takes this long (see ``kernel_time``).
REFERENCE_KERNEL_S = 0.002

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "verified_frac": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import gordankit from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "gordankit" / "__init__.py").is_file():
        raise SystemExit(f"error: no gordankit sources under {src}")
    sys.path.insert(0, str(src))
    import gordankit

    if Path(gordankit.__file__).resolve().parent != src / "gordankit":
        raise SystemExit(f"error: imported gordankit from {gordankit.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


# --------------------------------------------------------------------------
# Machine speed
#
# On a shared VM the same code runs up to 1.6 times slower for minutes at a
# time, with the process on the CPU the whole time (no steal, no wait), so
# CPU time does not help.  A fixed kernel that does not touch gordankit, run
# after every operation, measures the machine's current speed; the times of
# a round (or of a set-up) are scaled by REFERENCE_KERNEL_S / the median
# kernel time around them.  Raw wall times are in the report line.

_KERNEL_RNG = numpy.random.Generator(numpy.random.Philox(key=[0, 7]))
_KERNEL_MATS = [g @ g.T + k * numpy.eye(k)
                for k in (2, 3, 4, 6) for g in [_KERNEL_RNG.normal(size=(k, k))]]


def kernel_time() -> float:
    """Wall time of small dense linear algebra and an interpreted loop, the
    kind of work the library does."""
    start = time.perf_counter()
    s = 0.0
    for _ in range(20):
        for a in _KERNEL_MATS:
            s += float(numpy.linalg.eigvalsh(a)[0])
            s += float(numpy.linalg.solve(a, numpy.ones(a.shape[0]))[0])
        for i in range(200):
            s += i * 0.5
    return time.perf_counter() - start


def speed_scale(kernel_s) -> float:
    return REFERENCE_KERNEL_S / statistics.median(kernel_s)


# --------------------------------------------------------------------------
# Running items


def run_item(item, tracer=None) -> dict:
    from workloads import FAILED

    error = None
    start = time.perf_counter()
    try:
        out = item.run()
    except Exception as exc:  # a raising operation is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    raised = error is not None
    if tracer is not None:
        tracer.enabled = False  # witness checks are not part of the program's work
    try:
        status = FAILED if raised else item.check(out)
    except Exception as exc:
        status, error = FAILED, f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.enabled = True
    return {"label": item.label, "latency": latency, "status": status, "raised": raised,
            "error": error, "known_defect": item.known_defect}


def min_samples(percentile: float) -> int:
    return math.ceil(TAIL_BEYOND / (1.0 - percentile / 100.0))


def run_rounds(rounds, seconds: float, needed: int) -> tuple:
    """Closed loop over whole rounds until ``seconds`` of wall time have
    passed and ``needed`` operations did not raise.  Each latency is also
    scaled by the speed measured by the kernel runs between the operations
    of its round."""
    records, kernel_s = [], []
    timed = 0
    start = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and timed >= needed) or elapsed >= MAX_LOOP_SECONDS:
            break
        batch, round_kernel_s = [], []
        for item in rounds[r % len(rounds)]:
            batch.append(run_item(item))
            round_kernel_s.append(kernel_time())
        scale = speed_scale(round_kernel_s)
        for rec in batch:
            rec["scaled"] = rec["latency"] * scale
        kernel_s.extend(round_kernel_s)
        timed += sum(not rec["raised"] for rec in batch)
        records.extend(batch)
        r += 1
    return records, r, kernel_s


def summarize(records) -> dict:
    from workloads import FAILED, NEUTRAL, VERIFIED

    attempted = len(records)
    verified = sum(r["status"] == VERIFIED for r in records)
    neutral = [r["label"] for r in records if r["status"] == NEUTRAL]
    failed = [r for r in records if r["status"] == FAILED]
    unexpected = [r for r in failed if not r["known_defect"]]
    return {
        "attempted": attempted,
        "verified": verified,
        "failed": len(failed),
        "failed_frac": len(failed) / attempted,
        "neutral_by_label": {label: neutral.count(label) for label in sorted(set(neutral))},
        "known_defect_failures": sorted({r["label"] for r in failed if r["known_defect"]}),
        "unexpected_failures": [f"{r['label']}: {r['error'] or 'witness did not re-verify'}"
                                for r in unexpected[:5]],
        "correct": attempted > 0 and not unexpected,
    }


def latency_stats(records, percentile: float, key: str) -> dict:
    """Median and the nearest-rank ``percentile`` of the latencies ``key``.

    Operations that raised are failures, not latencies, and are left out.
    """
    lat = sorted(r[key] for r in records if not r["raised"])
    n = len(lat)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return {
        "samples": n,
        "p50_s": statistics.median(lat),
        "tail_s": lat[rank - 1],
        "tail_percentile": percentile,
        "tail_beyond": n - rank,
        "timed_s": sum(r[key] for r in records),
        "median_ms_by_label": {
            label: round(1e3 * statistics.median(r[key] for r in records if r["label"] == label), 3)
            for label in sorted({r["label"] for r in records})},
    }


# --------------------------------------------------------------------------
# Set-up


def time_import() -> float:
    """Wall time of a fresh interpreter that imports the workload module
    (and with it gordankit, numpy and scipy) from this checkout."""
    code = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; import workloads"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return time.perf_counter() - start


def set_up(workload: str, seed: int, workdir: Path) -> tuple:
    """Import, build the corpus, write problem files and warm up, timed.

    The import is timed in a fresh interpreter, because this process can
    import a module only once.  The whole set-up is repeated, each time
    scaled by the speed measured just before and after it, and the median
    is kept.
    """
    _import_package()
    import workloads

    times, raw = [], []
    corpus = None
    for k in range(SETUP_REPEATS):
        before = [kernel_time() for _ in range(3)]
        import_s = time_import()
        t0 = time.perf_counter()
        build = workloads.WORKLOADS[workload]
        if workload == "cli-mix":
            files = workdir / f"setup{k}"
            files.mkdir(parents=True)
            corpus = build(seed, files)
        else:
            corpus = build(seed)
        for item in corpus.warmup:
            run_item(item)
        raw.append(import_s + time.perf_counter() - t0)
        times.append(raw[-1] * speed_scale(before + [kernel_time() for _ in range(3)]))
    return corpus, statistics.median(times), {"setup_raw_s": raw, "setup_scaled_s": times}


# --------------------------------------------------------------------------
# Modes


def measure(corpus, workload: str, seconds: float, setup_s: float) -> tuple:
    percentile = TAIL_PERCENTILE[workload]
    records, rounds, kernel_s = run_rounds(corpus.rounds, seconds, min_samples(percentile))
    summary = summarize(records)
    lat = latency_stats(records, percentile, "scaled")
    metrics = {
        "latency_p50_ms": 1e3 * lat["p50_s"],
        "latency_tail_ms": 1e3 * lat["tail_s"],
        "throughput_per_s": summary["verified"] / lat["timed_s"],
        "verified_frac": summary["verified"] / summary["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    detail = {**summary, "rounds": rounds, "latency": lat,
              "raw_wall": latency_stats(records, percentile, "latency"),
              "kernel_ms": {"median": 1e3 * statistics.median(kernel_s),
                            "min": 1e3 * min(kernel_s), "max": 1e3 * max(kernel_s)}}
    return metrics, END_TO_END_UNITS, detail


def trace(corpus, workload: str, seed: int) -> tuple:
    """Run a fixed prefix of the corpus with and without tracing, op by op.

    Each operation runs twice back to back, once with the wrappers disabled
    and once traced, alternating which goes first, so machine drift cancels
    out of the overhead.
    """
    from tracer import Tracer

    items = [item for rnd in corpus.rounds[:corpus.trace_rounds] for item in rnd]
    tracer = Tracer()
    tracer.install()
    untraced, traced = [], []
    for k, item in enumerate(items):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            tracer.enabled = on
            (traced if on else untraced).append(run_item(item, tracer if on else None))
    tracer.enabled = False
    untraced_s = sum(r["latency"] for r in untraced)
    traced_s = sum(r["latency"] for r in traced)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    tracer.write_spans(spans_path)

    metrics, units = layer_metrics(tracer, traced_s - untraced_s, untraced_s)
    summary = summarize(traced)
    detail = {**summary, "operations": len(items), "untraced_s": untraced_s, "traced_s": traced_s,
              "absent": tracer.absent, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, units, detail


def layer_metrics(tracer, overhead_s: float, untraced_s: float) -> tuple:
    g = tracer.groups
    s = 1e-9

    def count(group, key):
        return g[group].counts.get(key, 0)

    decisions = g["engine.decide"].calls
    batch_items = count("infimum.batch", "items")
    level_tests = g["qp.level_test"].calls
    values = {
        "quadratics.eval_members.calls": (g["quadratics.eval_members"].calls, "count"),
        "quadratics.eval_members.points": (count("quadratics.eval_members", "points"), "count"),
        "quadratics.eval_members.self_s": (g["quadratics.eval_members"].self_ns * s, "s"),
        "engine.search_feasible.calls": (g["engine.search_feasible"].calls, "count"),
        "engine.search_feasible.self_s": (g["engine.search_feasible"].self_ns * s, "s"),
        "engine.search_feasible.total_s": (g["engine.search_feasible"].total_ns * s, "s"),
        "engine.search_certificate.calls": (g["engine.search_certificate"].calls, "count"),
        "engine.search_certificate.self_s": (g["engine.search_certificate"].self_ns * s, "s"),
        "engine.search_certificate.total_s": (g["engine.search_certificate"].total_ns * s, "s"),
        "engine.refine_weight.total_s": (g["engine.refine_weight"].total_ns * s, "s"),
        "infimum.exact_calls": (g["infimum.exact"].calls, "count"),
        "infimum.exact_self_s": (g["infimum.exact"].self_ns * s, "s"),
        "infimum.exact_calls_per_decision": (g["infimum.exact"].calls / decisions if decisions else 0.0,
                                             "count"),
        "infimum.batch_calls": (g["infimum.batch"].calls, "count"),
        "infimum.batch_items": (batch_items, "count"),
        "infimum.batch_flagged": (count("infimum.batch", "flagged"), "count"),
        "infimum.batch_flag_ratio": (count("infimum.batch", "flagged") / batch_items if batch_items else 0.0,
                                     "ratio"),
        "infimum.batch_self_s": (g["infimum.batch"].self_ns * s, "s"),
        "infimum.inexact_results": (count("infimum.exact", "inexact"), "count"),
        "engine.outcome.feasible": (count("engine.decide", "FeasiblePoint"), "count"),
        "engine.outcome.certificate": (count("engine.decide", "Certificate"), "count"),
        "engine.outcome.indeterminate": (count("engine.decide", "Indeterminate"), "count"),
        "engine.yuan.self_s": (g["engine.yuan"].self_ns * s, "s"),
        "qp.slater.self_s": (g["qp.slater"].self_ns * s, "s"),
        "qp.slater.total_s": (g["qp.slater"].total_ns * s, "s"),
        "qp.solve_levelset.self_s": (g["qp.solve_levelset"].self_ns * s, "s"),
        "qp.solve_levelset.total_s": (g["qp.solve_levelset"].total_ns * s, "s"),
        "qp.bisection_steps": (count("qp.solve_levelset", "bisection_steps"), "count"),
        "qp.warm_hit_ratio": (count("qp.level_test", "warm_hits") / level_tests if level_tests else 0.0,
                              "ratio"),
        "qp.fritz_john.self_s": (g["qp.fritz_john"].self_ns * s, "s"),
        "qp.kkt_check.self_s": (g["qp.kkt_check"].self_ns * s, "s"),
        "qp.sample_feasible.points": (count("qp.sample_feasible", "points"), "count"),
        "conjugate.sup_min.self_s": (g["conjugate.sup_min"].self_ns * s, "s"),
        "conjugate.brute.self_s": (g["conjugate.brute"].self_ns * s, "s"),
        "conjugate.exact_calls": (g["conjugate.exact"].calls, "count"),
        "zmatrix.infsup_falsify.self_s": (g["zmatrix.infsup_falsify"].self_ns * s, "s"),
        "zmatrix.samples_checked": (count("zmatrix.infsup_falsify", "samples_checked"), "count"),
        "sampling.halton.self_s": (g["sampling.halton"].self_ns * s, "s"),
        "sampling.lattice.points": (count("sampling.lattice", "points"), "count"),
        "cli.load_problem.self_s": (g["cli.load_problem"].self_ns * s, "s"),
        "cli.dumps.self_s": (g["cli.dumps"].self_ns * s, "s"),
        "cli.self_s": (g["cli"].self_ns * s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_frac": (overhead_s / untraced_s, "ratio"),
    }
    return ({k: v for k, (v, _) in values.items()}, {k: u for k, (_, u) in values.items()})


# --------------------------------------------------------------------------
# Entry points


def run_one(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        corpus, setup_s, setup_detail = set_up(args.workload, args.seed, workdir)
        if args.trace:
            metrics, units, detail = trace(corpus, args.workload, args.seed)
        else:
            metrics, units, detail = measure(corpus, args.workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "corpus_digest": corpus.digest, "held_out_seed": HELD_OUT_SEED,
              "environment": environment(), "setup": setup_detail, **detail}
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory belongs to it."""
    rows, ok = [], True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "failed_frac", result["failed"] / result["attempted"], "share"))
    for workload, name, value, unit in rows:
        print(f"{workload:13s} {name:36s} {value:14.6g} {unit}")
    print(json.dumps({"correct": ok, "rows": len(rows)}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
