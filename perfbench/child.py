"""One unit of benchmark work in a fresh interpreter.

Started by run.py; not meant to be run by hand. The child imports hallq,
writes one byte to --ready-fd (the parent times set-up up to that byte),
then runs one unit of work and appends JSON lines to --out; every time in
them is read from a `refclock.RefClock`:

- lie workloads: one CLI invocation through `hallq.cli.main`, with its
  stdout, stderr, exit code, the bracket table it built and the time of
  each bracket;
- products: one pass over the products given in --input, one line each.

A unit that runs longer than --unit-limit seconds is stopped by a timer
signal and recorded as failed. With --trace 1 the hallq layers are traced
while the unit runs and the per-layer metrics are appended as well.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys

import hallq.cli
import hallq.hall_core
import hallq.hom_decomp
import hallq.lie
import hallq.quiver_rep
import refclock


class UnitTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise UnitTimeout("unit exceeded its time limit")


@contextlib.contextmanager
def time_limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_lie(argv, limit, emit, clock) -> tuple[float, float]:
    lie, cli = hallq.lie, hallq.cli
    tables = []
    bracket_ms: list[float] = []
    build, bracket = cli.build_bracket_table, lie.bracket

    def keep_table(*args, **kwargs):
        table = build(*args, **kwargs)
        tables.append(table)
        return table

    def timed_bracket(*args, **kwargs):
        t0 = clock.ref()
        try:
            return bracket(*args, **kwargs)
        finally:
            bracket_ms.append(1000.0 * (clock.ref() - t0))

    # the only bindings an untraced unit replaces: one table build and 21 or
    # 105 brackets per unit, too few calls for the wrappers to show in wall_s
    cli.build_bracket_table, lie.bracket = keep_table, timed_bracket
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0, raw0 = clock.ref(), clock.raw()
    try:
        with time_limit(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # recorded as a failed unit, never re-raised
        error = f"{type(exc).__name__}: {exc}"
    wall = (clock.ref() - t0, clock.raw() - raw0)
    cli.build_bracket_table, lie.bracket = build, bracket
    rows = []
    if tables:
        rows = [ln for ln in lie.bracket_table_to_tsv(tables[0]).splitlines() if not ln.startswith("#")]
    emit(
        {
            "unit": 0,
            "s": wall[0],
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "table": rows,
            "bracket_ms": bracket_ms,
            "error": error,
        }
    )
    return wall


def _key(dm) -> str:
    return "+".join(str(label) for label in dm.as_labels())


def run_products(specs, limit, emit, clock) -> tuple[float, float]:
    qr, hc, hd = hallq.quiver_rep, hallq.hall_core, hallq.hom_decomp
    parsed = [
        (qr.AlgebraContext(n, p), qr.parse_multiset(x), qr.parse_multiset(y))
        for n, p, x, y in specs
    ]
    start, raw0 = clock.ref(), clock.raw()
    for i, (ctx, x, y) in enumerate(parsed):
        terms = rebuilt = None
        error = None
        t0 = clock.ref()
        try:
            with time_limit(limit):
                terms = hc.hall_product(x, y, ctx).terms
                rebuilt = [hd.decompose(qr.rep_of_multiset(ms.as_labels(), ctx)) for ms, _ in terms]
        except Exception as exc:  # recorded as a failed unit, never re-raised
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock.ref()
        emit(
            {
                "unit": i,
                "s": t1 - t0,
                "terms": [[_key(ms), c] for ms, c in terms] if terms is not None else None,
                "roundtrip": [_key(d) for d in rebuilt] if rebuilt is not None else None,
                "error": error,
            }
        )
    return clock.ref() - start, clock.raw() - raw0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ready-fd", type=int, required=True)
    ap.add_argument("--out")
    ap.add_argument("--input")
    ap.add_argument("--unit-limit", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    os.write(args.ready_fd, b"r")
    os.close(args.ready_fd)
    if args.out is None:
        return 0
    clock = refclock.RefClock(statistics.median(refclock.time_kernel() for _ in range(3)))
    signal.signal(signal.SIGALRM, _alarm)
    with open(args.input, encoding="utf-8") as fh:
        job = json.load(fh)
    with open(args.out, "w", encoding="utf-8") as out:

        def emit(obj):
            out.write(json.dumps(obj) + "\n")
            out.flush()

        tracer = None
        if args.trace:
            import bench_trace

            tracer = bench_trace.Tracer(clock.ref)
            tracer.install()
            unwrapped = tracer.unwrapped_bindings()
        clock.start()
        if job["kind"] == "lie":
            wall, wall_raw = run_lie(job["argv"], args.unit_limit, emit, clock)
        else:
            wall, wall_raw = run_products(job["products"], args.unit_limit, emit, clock)
        clock.stop()
        done = {"done": True, "wall_s": wall, "wall_raw_s": wall_raw}
        if tracer is not None:
            # the self-test runs before and after the unit, while installed
            done["unwrapped"] = sorted(set(unwrapped) | set(tracer.unwrapped_bindings()))
            tracer.uninstall()
            done["metrics"] = tracer.metrics()
            if args.spans:
                tracer.write_spans(args.spans)
        done["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
