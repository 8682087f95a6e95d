#!/usr/bin/env python3
"""latcert benchmark.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-full --seed 1 --seconds 8 --trace 0

Each operation is one ``python3 -m latcert.cli`` process (``PYTHONPATH=src``),
run in a closed loop: one client, the next operation only after the previous
one has exited.  Every output is checked against the paper's values.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the same operations are replayed in this process
with the latcert modules wrapped, and the line holds the per-layer metrics.
Per-operation records, report digests, the environment and (traced) every
span with its self time go to ``.bench_work/results/``; a metric table goes
to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 170
WORK_DIR = ".bench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics: self seconds (.s) and call counts (.calls) of spans
LAYER_SPANS = (
    "sphercode.histogram",
    "sphercode.invariance_full",
    "sphercode.invariance_sampled",
    "sphercode.design_strength",
    "lattice32.load_shell",
    "lattice32.save_shell",
    "lattice32.make_shell",
    "lattice32.build_shell",
    "gf2codes.code_report",
    "lattice32.venkov_sample",
    "lpcert.certify_max_code",
    "lpcert.certify_min_design",
    "gegenbauer.gegenbauer_expand",
    "exactmath.sign_on_region",
    "energycert.energy_lower_bound",
    "energycert.divided_differences",
    "energycert.partial_products",
    "energycert.error_sign_check",
)
LAYER_CALLS = (
    "lattice32.make_shell",
    "lattice32.venkov_e22",
    "lattice32.index_of",
    "gegenbauer.gegenbauer_expand",
    "exactmath.sign_on_region",
)
PAIR_SPANS = ("sphercode.histogram", "sphercode.invariance_full")


@dataclass
class OpRecord:
    kind: str
    argv: list
    exit_code: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    sha256: str
    failure: str | None


@dataclass
class Unit:
    wall_s: float
    ops: list


def execute(op, runner) -> OpRecord:
    """Run one operation and check its output; a crash of the check itself
    counts as a failed operation."""
    code, out, err, wall, cpu, rss = runner(op)
    try:
        failure = op.check(code, out, err)
    except Exception as exc:  # a malformed record must not abort the run
        failure = f"check raised {exc!r}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    return OpRecord(op.kind, list(op.argv), code, wall, cpu, rss, digest, failure)


def measure(wl, seconds, runner, write_files):
    """Set up ``wl.setup_reps`` times, then run units until ``seconds`` of
    unit time have passed (at least one unit); with ``seconds=None`` run
    each unit once."""
    setup_times, setup_ops = [], []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        write_files(wl.files)
        setup_ops += [execute(op, runner) for op in wl.setup]
        setup_times.append(time.perf_counter() - t0)
    units = []
    start = time.perf_counter()
    while (len(units) < len(wl.units) if seconds is None
           else not units or time.perf_counter() - start < seconds):
        ops = wl.units[len(units) % len(wl.units)]
        t0 = time.perf_counter()
        records = [execute(op, runner) for op in ops]
        units.append(Unit(time.perf_counter() - t0, records))
    return setup_times, setup_ops, units


def tally(setup_ops: list, units: list):
    """All operations attempted, and the ones whose check failed."""
    records = setup_ops + [r for u in units for r in u.ops]
    return len(records), [r for r in records if r.failure]


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(setup_times, units) -> dict:
    ops = [r for u in units for r in u.ops]
    walls = [r.wall_s for r in ops]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(u.wall_s for u in units),
        "cpu_s": statistics.median(sum(r.cpu_s for r in u.ops) for u in units),
        "op_p50_s": statistics.median(walls),
        "op_p90_s": percentile(walls, 90),
        "peak_rss_mb": max(r.rss_mb for r in ops),
    }


# ---------------------------------------------------------------------------
# runners: a child process per operation, or in-process for the traced run


def child_env(root: str) -> dict:
    """PYTHONPATH=src and OPENBLAS_NUM_THREADS=nproc.  ``--threads`` is
    never passed: without threadpoolctl latcert ignores it."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def _wait(proc, timeout: float):
    """Reap ``proc`` with its rusage, killing it after ``timeout`` seconds.
    Sleeps on a pidfd rather than polling, so the harness takes no CPU
    from the child."""
    fd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        if not poller.poll(timeout * 1000):
            proc.kill()
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(op, env: dict, cwd: str):
    """One latcert process; wall time, user+sys CPU and peak RSS."""
    out_path = os.path.join(cwd, ".op.out")
    err_path = os.path.join(cwd, ".op.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "latcert.cli", *op.argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=cwd, env=env,
        )
        try:
            usage = _wait(proc, OP_TIMEOUT_S)
        except BaseException:  # SIGTERM or Ctrl-C: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    with open(out_path) as fo, open(err_path) as fe:
        stdout, stderr = fo.read(), fe.read()
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, stdout, stderr, wall, cpu, usage.ru_maxrss / 1024


class InProcess:
    """Replays operations through ``latcert.cli.main`` with every latcert
    module wrapped by a span recorder."""

    def __init__(self, root: str):
        sys.path.insert(0, os.path.join(root, "src"))
        import latcert.cli as cli
        from latcert import (energycert, exactmath, gegenbauer, gf2codes,
                             lattice32, lpcert, sphercode)

        self.main = cli.main
        self.modules = [cli, energycert, exactmath, gegenbauer, gf2codes,
                        lattice32, lpcert, sphercode]
        # caches live for one process; each CLI call starts with them empty
        self.caches = [
            obj for mod in self.modules for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
        ]
        self.recorder = tracing.Recorder()
        ALL = sphercode.ALL

        def histogram(a):
            n = a["shell"].count
            return "sphercode.histogram", n * (n - 1)

        def invariance(a):
            if a["sample"] == ALL:
                n = a["shell"].count
                return "sphercode.invariance_full", n * n  # N x checked, checked = N
            return "sphercode.invariance_sampled", 0

        labels = {
            "sphercode.histogram": histogram,
            "sphercode.check_distance_invariance": invariance,
        }
        # the CLI is the operation itself (the "op" span), not a layer
        self.restore = tracing.instrument(
            self.recorder, self.modules, [(lattice32.Shell, "index_of")], labels,
            unwrapped=(cli.__name__,),
        )

    def __call__(self, op):
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        rec = self.recorder
        rec.op += 1
        c0 = time.process_time()
        idx = rec.begin("op")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.main(list(op.argv))
        except SystemExit as exc:  # argparse exits for --help and usage errors
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            err.write(traceback.format_exc())
            code = None
        finally:
            rec.end(idx)
        span = rec.spans[idx]
        return code, out.getvalue(), err.getvalue(), span.end - span.start, \
            time.process_time() - c0, 0.0


def import_seconds(env: dict, root: str) -> float:
    """Median time to import latcert.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import latcert.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(res.stdout))
    return statistics.median(times)


def layer_metrics(spans: list, import_s: float, overhead_per_call: float):
    """The per-layer metrics as name -> (value, unit), and the span table."""
    table = tracing.summarise(spans)

    def row(name):
        return table.get(name, {"s": 0.0, "calls": 0, "pairs": 0})

    metrics = {f"{n}.s": (row(n)["s"], "s") for n in LAYER_SPANS}
    metrics.update({f"{n}.calls": (row(n)["calls"], "count") for n in LAYER_CALLS})
    pairs = sum(row(n)["pairs"] for n in PAIR_SPANS)
    pair_s = sum(row(n)["s"] for n in PAIR_SPANS)
    metrics["sphercode.logical_pairs"] = (pairs, "count")
    metrics["sphercode.pairs_per_s"] = (pairs / pair_s if pair_s else 0.0, "1/s")
    metrics["cli.import.s"] = (import_s, "s")
    metrics["trace.covered_frac"] = (tracing.coverage(spans), "fraction")
    wrapped = sum(1 for s in spans if s.name != "op")
    metrics["trace.overhead_s"] = (wrapped * overhead_per_call, "s")
    return metrics, table


def environment(env: dict, root: str) -> dict:
    probe = (
        "import json, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "try:\n    import threadpoolctl; tpc = True\n"
        "except ImportError:\n    tpc = False\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),\n"
        "  'blas_version': blas.get('version'), 'threadpoolctl': tpc}))\n"
    )
    res = subprocess.run([sys.executable, "-c", probe], env=env, cwd=root,
                         capture_output=True, text=True, timeout=60, check=True)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        **json.loads(res.stdout),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds like Ctrl-C, so its child and files are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latcert", "cli.py")):
        print("error: run from the repository root; src/latcert is missing",
              file=sys.stderr)
        return 2
    env = child_env(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, WORK_DIR, f"run-{tag}-{os.getpid()}")
    os.makedirs(work)

    def write_files(files):
        for name, content in files.items():
            with open(os.path.join(work, name), "w") as fh:
                fh.write(content)

    wl = workloads.make_workload(args.workload, args.seed)
    try:
        if args.trace:
            os.environ["OPENBLAS_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"]
            replay = InProcess(root)
            overhead = tracing.wrapper_cost()
            os.chdir(work)
            try:
                # the same operations once each: in-process calls are far
                # cheaper than processes, so a timed loop would repeat them
                setup_times, setup_ops, units = measure(wl, None, replay, write_files)
            finally:
                os.chdir(root)
                replay.restore()
            metrics, table = layer_metrics(
                replay.recorder.spans, import_seconds(env, root), overhead
            )
            spans = [
                {**asdict(s), "self_s": own} for s, own in
                zip(replay.recorder.spans, tracing.self_times(replay.recorder.spans))
            ]
        else:
            setup_times, setup_ops, units = measure(
                wl, args.seconds, lambda op: run_child(op, env, work), write_files
            )
            metrics = {k: (v, dict(END_TO_END)[k])
                       for k, v in end_to_end_metrics(setup_times, units).items()}
            table = spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = tally(setup_ops, units)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(env, root),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": len(failed),
        "fail_frac": len(failed) / attempted,
        "setup_s": setup_times,
        "unit_wall_s": [u.wall_s for u in units],
        "ops": [asdict(r) for r in setup_ops + [r for u in units for r in u.ops]],
        "layers": table,
        "spans": spans,
    }
    results_dir = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'fail_frac':40s} {result['fail_frac']:.6g} ({len(failed)}/{attempted})",
          file=sys.stderr)
    for r in failed[:5]:
        print(f"FAILED {r.kind} {' '.join(r.argv)}: {r.failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
