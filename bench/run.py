"""The qcreg benchmark: one workload, one seeded run, one JSON result line.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qcreg checkout; qcreg is imported from ./src.
Workloads (see bench/README.md for why each exists and what it should move):

* catalog-cli   cold ``python -m qcreg analyze|profile|extremal`` subprocesses
* catalog-batch warm in-process ``run_analysis`` calls, import done in set-up
* grid-cli      cold ``qcreg analyze`` / ``qcreg elliptic`` on seeded CSV grids

Each workload is a closed loop with one client: ops run one after another,
in whole passes over the workload's op lists, at least two passes and then
as many as fit in ``--seconds``. Every op is checked (bench/check.py).
Every set-up and op time is its wall time rescaled to a reference speed of
the host (bench/pace.py), because the host's own speed drifts.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` half the time runs untraced and half
traced (bench/tracing.py), and the result carries the per-layer metrics.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# bench/ is sys.path[0] when this file runs as a script
import workloads as W
from check import Tally, csv_problems, op_problems
from pace import Pace
from tracing import Tracer, summarize

SHIM = Path(__file__).resolve().parent / "shim.py"

#: an untraced run sets up at least SETUP_REPEATS times and until
#: SETUP_SECONDS have passed; setup_s is the median set-up
SETUP_REPEATS = 3
SETUP_SECONDS = 8.0
#: `python -c "import numpy"` runs behind import.floor_s
FLOOR_REPEATS = 5
#: import-only shim runs behind import.qcreg_s on catalog-batch
IMPORT_REPEATS = 3
#: traced counters also printed per op kind
BREAKDOWN = ("quadrature.circular_average.calls", "quadrature.nodes",
             "quadrature.budget_exhausted", "bounds.distortion_constant.calls")


class Context:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.pop("QCREG_THREADS", None)
        # qcreg's bytecode is cached under src/, as an installed package has it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.configs: dict = {}
        self.pace: Pace | None = None  # rescales each op's wall time, see pace.py


def spawn(ctx: Context, argv: list[str]) -> tuple[float, int, bytes, bytes, int]:
    """Run a child to completion: (seconds, exit code, stdout, stderr, peak RSS KiB)."""
    out_path, err_path = ctx.work / "child.out", ctx.work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=ctx.env, cwd=ctx.root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss


# -- set-up ------------------------------------------------------------------

def prime(ctx: Context) -> None:
    """Cold `import qcreg` in a child: compiles bytecode and warms the file cache."""
    _, code, _, err, _ = spawn(ctx, [sys.executable, "-c", "import qcreg.cli"])
    if code != 0:
        raise RuntimeError(f"cannot import qcreg from {ctx.root / 'src'}:\n{err.decode()}")


def generate(ctx: Context) -> list[list]:
    """The workload's inputs, as the op lists that passes cycle through.

    A catalog set-up also makes one cold `import qcreg` child: the package a
    catalog-cli op starts from, and the import a warm catalog-batch process
    pays before its first op. Generating spec strings or configs alone takes
    micro- to milliseconds, too short to time steadily on a shared host.
    grid-cli writes its grids through qcreg's io layer.
    """
    if ctx.workload == "grid-cli":
        W.write_grid_inputs(ctx.seed, ctx.work)
        return W.grid_cli_passes(ctx.seed, ctx.work)
    prime(ctx)
    if ctx.workload == "catalog-cli":
        return [W.catalog_cli_ops(ctx.seed, ctx.work)]
    from qcreg import build_config

    ops = W.catalog_batch_ops(ctx.seed)
    ctx.configs = {op.key: build_config(op.config) for op in ops}
    return [ops]


def timed_set_ups(ctx: Context) -> tuple[list[list], list[float]]:
    """Set up repeatedly; returns the op lists and each set-up's rescaled seconds."""
    times = []
    pace = Pace(child=ctx.workload != "grid-cli")  # a catalog set-up is mostly its child
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        t0 = time.perf_counter()
        passes = generate(ctx)
        times.append(pace.scale(time.perf_counter() - t0))
    return passes, times


def traced_set_up(ctx: Context, tracer: Tracer | None) -> list[list]:
    if tracer is None:
        return generate(ctx)
    tracer.install()
    try:
        return generate(ctx)
    finally:
        tracer.uninstall()


# -- ops -----------------------------------------------------------------------

def cli_op(ctx: Context, op, tally: Tally, dumps: list | None) -> None:
    if op.out_json:  # a stale report from an earlier pass must not pass for this one
        Path(op.out_json).unlink(missing_ok=True)
    if op.csv_dir:
        shutil.rmtree(op.csv_dir, ignore_errors=True)
    trace_out = ctx.work / "trace.json"
    if dumps is None:
        argv = [sys.executable, "-m", "qcreg", *op.argv]
    else:  # a dump left by an earlier op must not pass for this one
        trace_out.unlink(missing_ok=True)
        argv = [sys.executable, str(SHIM), str(trace_out), *op.argv]
    seconds, code, stdout, stderr, rss = spawn(ctx, argv)
    seconds = ctx.pace.scale(seconds)
    report = stdout
    if op.out_json is not None:
        report = Path(op.out_json).read_bytes() if os.path.isfile(op.out_json) else b""
    problems = op_problems(code, report, op.expect)
    if b"Traceback (most recent call last)" in stderr:
        problems.append("uncaught exception: " + stderr.decode(errors="replace").strip().splitlines()[-1])
    if not problems and op.csv_dir:
        problems = csv_problems(op.csv_dir, json.loads(report))
    if dumps is not None:
        if trace_out.is_file():
            dump = json.loads(trace_out.read_text())
            dump["kind"] = op.kind
            dumps.append(dump)
        else:
            problems.append("the traced op wrote no trace dump")
    tally.record(op.key, seconds, code, report, problems, rss)


def batch_op(ctx: Context, op, tally: Tally, dumps: list | None) -> None:
    import qcreg.reporting
    from qcreg.errors import ConfigError, InvariantViolationError, FieldValidationError, NumericalError

    report_json_bytes = qcreg.reporting.report_json_bytes  # captured before any wrapping
    tracer = Tracer().install() if dumps is not None else None
    report, problems, code = None, [], 0
    t0 = time.perf_counter()
    try:
        report = qcreg.reporting.run_analysis(ctx.configs[op.key])
    except ConfigError:
        code = 1
    except (InvariantViolationError, FieldValidationError):
        code = 2
    except NumericalError:
        code = 3
    except Exception:  # a crash: recorded as a wrong outcome, the loop goes on
        code = -1
        problems = [traceback.format_exc(limit=3)]
    finally:
        seconds = ctx.pace.scale(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            dump = tracer.dump()
            dump["kind"] = op.kind
            dumps.append(dump)
    body = report_json_bytes(report) if report is not None else b""
    problems = problems or op_problems(code, body, op.expect)
    tally.record(op.key, seconds, code, body, problems)


def measure(ctx: Context, passes: list[list], seconds: float, min_passes: int, tally: Tally,
            dumps: list | None = None) -> float:
    """Whole passes, cycling through the op lists: at least `min_passes`, then
    another whenever a pass as long as the last would still end within
    `seconds`. Returns the wall time."""
    run_op = batch_op if ctx.workload == "catalog-batch" else cli_op
    ctx.pace = Pace(child=ctx.workload != "catalog-batch")
    t0 = time.perf_counter()
    done, last = 0, 0.0
    while done < min_passes or time.perf_counter() - t0 + last <= seconds:
        start = time.perf_counter()
        for op in passes[done % len(passes)]:
            run_op(ctx, op, tally, dumps)
        last = time.perf_counter() - start
        done += 1
    return time.perf_counter() - t0


# -- metrics -------------------------------------------------------------------

def end_to_end(tally: Tally, setup_times: list[float]) -> dict[str, float]:
    """Times are rescaled (pace.py); ops_per_s counts successful ops per
    second of all attempted ops, failed ones included."""
    return {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": tally.p(50),
        "ops_per_s": len(tally.ok_seconds) / tally.busy_seconds,
        "peak_rss_mb": tally.peak_rss_kb / 1024.0,
    }


def import_floor(ctx: Context) -> float:
    return statistics.median(
        spawn(ctx, [sys.executable, "-c", "import numpy"])[0] for _ in range(FLOOR_REPEATS)
    )


def import_qcreg(ctx: Context, dumps: list) -> float:
    if not dumps or "import" not in dumps[0]:  # in-process ops: time import-only shims
        dumps = []
        trace_out = ctx.work / "trace.json"
        for _ in range(IMPORT_REPEATS):
            trace_out.unlink(missing_ok=True)
            code = spawn(ctx, [sys.executable, str(SHIM), str(trace_out)])[1]
            if code != 0 or not trace_out.is_file():
                raise RuntimeError(f"import-only shim exited {code} without a trace dump")
            dumps.append(json.loads(trace_out.read_text()))
    return statistics.median(d["import"]["qcreg_s"] for d in dumps)


def per_layer(ctx, declared, dumps, setup_tracer, base: Tally, traced: Tally) -> dict:
    metrics, absent = summarize(dumps, len(dumps))
    if setup_tracer is not None:
        saved, setup_absent = summarize([setup_tracer.dump()], 1)
        metrics.update({k: v for k, v in saved.items() if k.startswith("io.save_")})
        absent |= {a for a in setup_absent if a.startswith("io.save_")}
    metrics["import.floor_s"] = import_floor(ctx)
    metrics["import.qcreg_s"] = import_qcreg(ctx, dumps)
    base_p50, traced_p50 = base.p(50), traced.p(50)
    if base_p50 and traced_p50:
        metrics["trace.overhead_ratio"] = traced_p50 / base_p50
    return declared_values(declared, metrics, absent)


def declared_values(declared, metrics: dict, absent: set[str]) -> dict:
    """Value per declared name: 0 for a layer never run, no entry for an absent one."""
    return {m["name"]: metrics.get(m["name"], 0) for m in declared
            if not any(m["name"] == a or m["name"].startswith(a + ".") for a in absent)}


def by_kind(dumps) -> dict[str, dict[str, float]]:
    kinds = sorted({d["kind"] for d in dumps})
    return {k: summarize([d for d in dumps if d["kind"] == k],
                         sum(d["kind"] == k for d in dumps))[0] for k in kinds}


# -- output --------------------------------------------------------------------

def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def result_metrics(declared, values: dict) -> dict:
    """The declared metrics that have a value, in declared order, with units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if values.get(m["name"]) is not None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "qcreg" / "__init__.py").is_file():
        print(f"bench: no qcreg source tree at {root / 'src' / 'qcreg'}; "
              "run from the root of a qcreg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.dont_write_bytecode = False  # as for the children, see Context
    spec = load_spec(root)
    ctx = Context(root, args.workload, args.seed)
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    try:
        if args.workload != "catalog-cli":
            import qcreg  # noqa: F401  (warm import for in-process set-up and ops)
        lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
                 f"closed loop, 1 client"]
        if args.trace == 0:
            passes, setup_times = timed_set_ups(ctx)
            tally = Tally()
            wall = measure(ctx, passes, args.seconds, 2, tally)
            if args.workload == "catalog-batch":  # the ops ran in this process
                tally.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = end_to_end(tally, setup_times)
            result = result_metrics(spec["end_to_end"], values)
            n_ok = len(tally.ok_seconds)
            lines += [
                f"setup_s       {values['setup_s']:.4g} s    median of {len(setup_times)} set-ups, rescaled",
                f"op_s.p50      {_fmt(values['op_s.p50'])} s    over {n_ok} successful ops",
                f"op_s.p75      {_fmt(tally.p(75))} s    "
                "(printed only with ten samples above it, so not a result metric)",
                f"ops_per_s     {values['ops_per_s']:.4f} 1/s  {n_ok} ok ops in "
                f"{tally.busy_seconds:.2f} rescaled s; {n_ok / wall:.4f} 1/s of raw wall time",
                f"failed_ratio  {tally.failed_ratio:.4f}      "
                f"{tally.failed} failed of {tally.attempted} attempted",
                f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB",
            ]
            tallies = [tally]
        else:
            # only grid-cli set-up calls into qcreg (the io write path)
            setup_tracer = Tracer() if args.workload == "grid-cli" else None
            passes = traced_set_up(ctx, setup_tracer)
            base, traced, dumps = Tally(), Tally(), []
            traced.digests = base.digests  # repeats must match across both halves
            measure(ctx, passes, args.seconds / 2, len(passes), base)
            measure(ctx, passes, args.seconds / 2, len(passes), traced, dumps)
            values = per_layer(ctx, spec["per_layer"], dumps, setup_tracer, base, traced)
            result = result_metrics(spec["per_layer"], values)
            lines.append(f"traced ops {traced.attempted}, untraced ops {base.attempted}; "
                         "per-op means (io.save_* per set-up)")
            lines += [f"{k:40s} {v['value']:.6g} {v['unit']}" for k, v in result.items()]
            lines += [f"{m['name']:40s} absent" for m in spec["per_layer"] if m["name"] not in result]
            for kind, kind_metrics in by_kind(dumps).items():
                lines.append(f"per {kind} op: " + "  ".join(
                    f"{k}={kind_metrics.get(k, 0):.6g}" for k in BREAKDOWN))
            tallies = [base, traced]
        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed for t in tallies)
        correct = all(t.correct for t in tallies)
        for t in tallies:
            lines += [f"problem: {p}" for p in t.first_problems]
        print("\n".join(lines))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": result}))
        return 0
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def _fmt(seconds: float | None) -> str:
    return "omitted" if seconds is None else f"{seconds:.4f}"


if __name__ == "__main__":
    raise SystemExit(main())
