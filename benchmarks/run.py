"""Benchmark of the cacodes CLI: end-to-end metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload design --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py``) runs in this one single-threaded process
as a closed loop with one client.  An op is one call of
``cacodes.cli.main(argv)`` with stdout captured, so argument parsing, JSON
load and dump and every library layer are timed, and interpreter start-up is
not.  Ops run in whole rounds: each round is the full pinned menu in a seeded
order, and rounds repeat until ``--seconds`` have passed, so every run has
the same mix.  Each op's output is checked outside the timed region; an op
fails if it raises, exits nonzero, fails its check, prints other bytes than
an earlier run of the same argv, or overruns the per-op time cap.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run spends half its time untraced and half traced (see
``layertrace.py``) and carries the per-layer metrics.  The line before it is
a report: run metadata, the output digest, the failure rate, the
percentile behind ``op_tail_ms``, the host slowdown and the raw timings.
Timings are corrected for host speed (see ``hostspeed.py``).

The program is loaded from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

_SCRIPT_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT; the CLI echoes code paths

OP_CAP_S = 10.0  # per-op time cap; the slowest menu op takes about 1.6 s
HARD_STOP_S = 90.0  # all measuring stops this long after set-up, even mid-round
SETUP_REPEATS = 7  # fresh processes timed for setup_s; the median is reported
SETUP_REFERENCES = 30  # host speed reference runs in each of them, after set-up
# Percentile behind op_tail_ms.  A 30 s run holds 200-250 ops, so p95 leaves
# only ten or so beyond it, and fewer on a slow host; p90 keeps twenty or more.
TAIL_PERCENTILE = 90

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_per_op_ms": "ms",
    "peak_rss_mb": "MB",
}


class OpTimeout(Exception):
    """Raised inside an op that overruns the per-op time cap."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class OpRunner:
    """Runs ops in-process: timed, capped, and checked against earlier output."""

    def __init__(self, cli):
        self.cli = cli
        self.first_output: dict[tuple, tuple[str, "str | None"]] = {}
        self.output_bytes = 0

    def call(self, argv) -> tuple[int, str, float, float, "str | None"]:
        """Run one op with stdout captured: (exit code, stdout, wall s, cpu s, failure)."""
        buf = io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(buf):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
                try:
                    rc = self.cli.main(list(argv))  # looked up per call: tracing patches it
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                error = f"over the {OP_CAP_S:g} s time cap"
            except SystemExit as exc:
                error = f"exited with {exc.code!r}"
            except Exception as exc:  # any escape from main is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if error is None and rc != 0:
            error = f"exit code {rc}"
        return rc, buf.getvalue(), wall, cpu, error

    def run(self, op) -> tuple[tuple, float, float, "str | None"]:
        """Time one menu op; return (argv, wall s, cpu s, failure or None)."""
        _, out, wall, cpu, error = self.call(op.argv)
        self.output_bytes += len(out.encode("utf-8"))
        if error is None:
            seen = self.first_output.get(op.argv)
            if seen is None:
                error = op.check(out)
                self.first_output[op.argv] = (out, error)
            elif seen[0] != out:
                error = "output differs from an earlier run of the same argv"
            else:
                error = seen[1]
        elif op.argv not in self.first_output:
            self.first_output[op.argv] = (out, error)
        return op.argv, wall, cpu, error

    def digest(self, menu) -> str:
        """SHA-256 over every menu op's argv and first stdout, in menu order."""
        h = hashlib.sha256()
        for op in menu:
            out = self.first_output.get(op.argv, ("", None))[0]
            h.update("\x1f".join(op.argv).encode("utf-8") + b"\n")
            h.update(out.encode("utf-8"))
        return h.hexdigest()


def measure(
    runner: OpRunner, menu, seconds: float, rng: random.Random, stop_at: float
) -> tuple[list, list[float]]:
    """Run whole seeded rounds of the menu until ``seconds`` pass.

    Returns each round's op records, and the times of the host speed
    reference, which runs after every op.  ``stop_at`` is a ``perf_counter``
    time past which measuring stops even mid-round, so that a badly slowed
    program still exits in time.
    """
    start = time.perf_counter()
    rounds, refs = [], []
    while True:
        order = list(menu)
        rng.shuffle(order)
        rounds.append([])
        for op in order:
            rounds[-1].append(runner.run(op))
            refs.append(hostspeed.timed_reference())
            if time.perf_counter() > stop_at:
                return rounds, refs
        if time.perf_counter() - start >= seconds:
            return rounds, refs


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics
    (Harrell & Davis, Biometrika 1982).  Unlike a single order statistic it
    moves smoothly when the quantile falls in a gap between clusters of op
    latencies, so it is far steadier from run to run.  Each order statistic's
    weight is the Beta mass over its slot ((i-1)/n, i/n], integrated by the
    midpoint rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64 * n
    mass = [0.0] * n
    for j in range(steps):
        x = (j + 0.5) / steps
        mass[j * n // steps] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
    return sum(w * x for w, x in zip(mass, xs)) / sum(mass)


def summarize(rounds, refs) -> dict:
    """End-to-end figures of one measuring phase, at nominal host speed.

    ``ops_per_s`` is ops that passed over the seconds spent inside ops;
    ``op_p50_ms`` and ``op_tail_ms`` are the median and the
    ``TAIL_PERCENTILE`` of all op latencies, by ``hd_quantile``: ops of
    different sizes form separate clusters, and a plain sample quantile that
    sits on the gap between two of them jumps between runs.  Each is
    corrected by the phase's host slowdown (see ``hostspeed``); the raw
    wall-clock figures are kept beside them for the report.
    """
    records = [rec for r in rounds for rec in r]
    walls = [w for _, w, _, _ in records]
    ok = sum(1 for *_, err in records if err is None)
    slow = hostspeed.slowdown(refs)
    raw = {
        "ops_per_s": ok / sum(walls),
        "op_p50_ms": hd_quantile(walls, 0.5) * 1e3,
        "op_tail_ms": hd_quantile(walls, TAIL_PERCENTILE / 100) * 1e3,
        "cpu_per_op_ms": sum(c for _, _, c, _ in records) / len(records) * 1e3,
    }
    return {
        "rounds": len(rounds),
        "ops": len(records),
        "ok": ok,
        "host_slowdown": slow,
        "ops_per_s": raw["ops_per_s"] * slow,
        "op_p50_ms": raw["op_p50_ms"] / slow,
        "op_tail_ms": raw["op_tail_ms"] / slow,
        "cpu_per_op_ms": raw["cpu_per_op_ms"] / slow,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_beyond": sum(1 for w in walls if w * 1e3 > raw["op_tail_ms"]),
        "raw": raw,
    }


def _git_commit(root: Path) -> "str | None":
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@contextlib.contextmanager
def _op_time_cap():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def set_up(workload: str, size: str, seed: int, workdir: Path, runner: OpRunner) -> list:
    """Generate the workload's inputs and run the warm-up op (the menu's first)."""
    import workloads  # imports cacodes, so only once src/ is on sys.path

    def untimed(argv):
        rc, out, _, _, error = runner.call(argv)
        if error is not None:
            raise RuntimeError(f"set-up op {' '.join(argv)} failed: {error}")
        return rc, out

    menu = workloads.build_menu(workload, size, seed, workdir, untimed)
    runner.call(menu[0].argv)  # a failure shows again when the op is measured
    return menu


def measure_setup(workload: str, size: str, seed: int) -> list[tuple[float, float]]:
    """Set-up of fresh processes: (seconds from script start to the first op,
    that process's host slowdown).

    Each child imports the program, generates the inputs and runs the
    warm-up op, then times the host speed reference and exits; this process
    waits for each in turn.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--size", size, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=20,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.strip()}")
        setup_s, slow = child.stdout.split()[-2:]
        times.append((float(setup_s), float(slow)))
    return times


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> tuple[dict, dict]:
    """Set up and measure one workload in this process; return (result, report).

    Paths are relative to the current directory, which must be the root of
    the checkout whose ``src/`` is on ``sys.path``.
    """
    import cacodes.cli
    from layertrace import LayerTracer

    report = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(Path.cwd()),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }
    runner = OpRunner(cacodes.cli)
    workdir = WORK / f"{workload}-{size}-{seed}"
    try:
        with _op_time_cap():
            menu = set_up(workload, size, seed, workdir, runner)
            rng = random.Random(f"{workload}:{seed}:order")
            phase_s = seconds / 2 if trace else seconds
            stop_at = time.perf_counter() + HARD_STOP_S
            rounds, refs = measure(runner, menu, phase_s, rng, stop_at)
            report["untraced"] = untraced = summarize(rounds, refs)
            if trace:
                tracer = LayerTracer()
                bytes_before = runner.output_bytes
                tracer.install()
                try:
                    tracer.enabled = True
                    traced_rounds, traced_refs = measure(runner, menu, phase_s, rng, stop_at)
                finally:
                    tracer.enabled = False
                    tracer.restore()
                report["traced"] = traced = summarize(traced_rounds, traced_refs)
                rounds += traced_rounds
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    records = [rec for r in rounds for rec in r]
    failures = [err for *_, err in records if err is not None]
    report.update({
        "attempted": len(records),
        "failed": len(failures),
        "fail_rate": len(failures) / len(records),
        "first_failures": sorted(set(failures))[:5],
        "digest_sha256": runner.digest(menu),
    })
    if trace:
        metrics = per_layer_metrics(
            tracer, traced["ops"], runner.output_bytes - bytes_before,
            traced["ops_per_s"] / untraced["ops_per_s"],
        )
        report["self_time_share"] = _self_time_shares(tracer)
    else:
        # measured after the run, so the children do not share its memory peak
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = measure_setup(workload, size, seed)
        report["setup_repeats"] = [{"raw_s": t, "host_slowdown": slow} for t, slow in setups]
        metrics = {
            "setup_s": statistics.median(t / slow for t, slow in setups),
            "ops_per_s": untraced["ops_per_s"],
            "op_p50_ms": untraced["op_p50_ms"],
            "op_tail_ms": untraced["op_tail_ms"],
            "cpu_per_op_ms": untraced["cpu_per_op_ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, report


def per_layer_metrics(tracer, ops: int, output_bytes: int, overhead: float) -> dict:
    """Per-op layer figures of the traced phase, with their units."""
    metrics = {}
    for name in tracer.calls:
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "calls/op")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / ops, "s/op")
    counts = tracer.counts
    metrics["linalg.rref.cells"] = (counts["linalg.rref.cells"] / ops, "cells/op")
    metrics["linalg.matrix_init.entries"] = (counts["linalg.matrix_init.entries"] / ops, "entries/op")
    draws = counts["channel.transmit.draws"]
    efficiency = counts["channel.transmit.received_dims"] / draws if draws else 0.0
    metrics["channel.transmit.draw_efficiency"] = (efficiency, "ratio")
    metrics["cli.output_bytes"] = (output_bytes / ops, "B/op")
    metrics["trace.overhead"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _self_time_shares(tracer) -> dict:
    total = sum(tracer.self_s.values())
    shares = {k: v / total for k, v in tracer.self_s.items() if total}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("design", "certify", "channel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; whole rounds run until it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny menus for the harness self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took (used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")

    if not (SRC / "cacodes" / "__init__.py").is_file():
        print(f"benchmark: no cacodes package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import cacodes.cli

    if Path(cacodes.__file__).resolve().parent != SRC / "cacodes":
        print(f"benchmark: cacodes imported from {cacodes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        workdir = WORK / f"setup-{os.getpid()}"
        try:
            with _op_time_cap():
                set_up(args.workload, args.size, args.seed, workdir, OpRunner(cacodes.cli))
            setup_s = time.perf_counter() - _SCRIPT_START
            refs = [hostspeed.timed_reference() for _ in range(SETUP_REFERENCES)]
            print(setup_s, hostspeed.slowdown(refs))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()
        return 0
    result, report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
