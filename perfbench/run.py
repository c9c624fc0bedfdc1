"""hallq benchmark: three workloads, end-to-end metrics untraced, per-layer
metrics from a traced run. Stdlib only.

Run from the root of the repository:

    python3 perfbench/run.py --workload products --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # summary table

Every unit of work runs in a fresh interpreter (`perfbench/child.py`), as
a CLI user's would, so each unit pays the lazy `hom_table` and cache fills.
One client, closed loop: the next unit starts when the last one has ended,
and another unit starts only if it should end within half a unit of
--seconds.

- lie-n2-wide-primes: a unit is `hallq lie-table --n 2`;
- lie-n3-small-primes: a unit is `hallq lie-verify --n 3 --primes 2,3,5,7`;
- products: a unit is one `hall_core.hall_product` call plus a `decompose`
  round trip of every term; one pass over the seed's 150 products runs in
  one interpreter, and passes repeat.

End-to-end metrics (--trace 0), the median over the run's units or passes:
wall_s (work time in the child, set-up excluded), setup_s (spawn to hallq
imported, sampled before every unit) and peak_rss_mb. The run's record and
the `all` table add unit_p50_ms / unit_p90_ms over every bracket (lie
workloads) or product (products); they follow which products a seed draws,
by 7-18% of their median from seed to seed, so BENCHMARK.json leaves them
out.

Work times are in reference seconds (`refclock.py`): the child times a
fixed speed kernel every 0.1 s of CPU time while it works and scales its
times to the speed at which the kernel takes a fixed time. The machines
this runs on change speed by up to 1.6x within a minute, and plain times
then spread by a quarter of their median from run to run; the plain work
time is kept in the run's record as wall_raw_s. Process start and imports
speed up less than the kernel, so set-up is scaled by a start of its own
kind instead: each set-up sample is paired with the start of a bare
interpreter (`python3 -c ...`, site import included), and setup_s is the
median set-up time times BARE_REF_S over the median bare start. Over runs
of 12 pairs this cut the spread of set-up from 0.063 to 0.027 of its mean;
the plain median is kept as setup_raw_s.

With --trace 1 untraced and traced units alternate; the run reports the
per-layer metrics (medians over the traced units) and trace.overhead_frac
from the two kinds of unit. Every unit's outputs are checked against
perfbench/data; a unit that raises, times out or differs counts as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record of the run, with the seed,
nproc, CPU model and Python version, goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from bench_trace import quantile

HERE = Path(__file__).resolve().parent
# set-up is timed in children that only import hallq, this many before
# every unit (each paired with a bare start), and in every unit's own child
SETUP_SAMPLES = 6
# a bare interpreter that reports ready at once; --ready-fd N is appended
BARE_START = [sys.executable, "-c", "import os, sys; os.write(int(sys.argv[-1]), b'r')"]
# the bare start's time at the usual speed of the 2-vCPU Xeon KVM guest the
# benchmark was written on; it only fixes the unit of setup_s
BARE_REF_S = 0.073
# a unit over its limit counts as failed; the whole run stops at the deadline
UNIT_LIMIT_S = {"lie-n2-wide-primes": 60.0, "lie-n3-small-primes": 60.0, "products": 10.0}
RUN_DEADLINE_S = 165.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# printed by `--workload all` and kept in the record, not in BENCHMARK.json
REPORTED = {
    "unit_p50_ms": "ms",
    "unit_p90_ms": "ms",
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "failed_frac": "ratio",
}


class Run:
    """One benchmark run: spawns children, keeps their results."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = perf_counter()
        self.out_dir = root / ".perfbench_runs"
        self.out_dir.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.setup_s: list[float] = []
        self.bare_s: list[float] = []
        self.failures: list[str] = []
        self.spawned = 0
        self.walls: dict[str, list[float]] = {"plain": [], "traced": []}

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def spawn(
        self, job: dict | None, trace: bool = False, limit: float | None = None, bare: bool = False
    ) -> list[dict]:
        """Run one child, or a bare interpreter, to its end; returns the
        JSON lines the child wrote."""
        self.spawned += 1
        tag = f"{self.workload}-{os.getpid()}-{self.spawned}"
        cmd = list(BARE_START) if bare else [sys.executable, str(HERE / "child.py")]
        out_path = self.out_dir / f"unit-{tag}.jsonl"
        if job is not None:
            in_path = self.out_dir / f"input-{tag}.json"
            in_path.write_text(json.dumps(job), encoding="utf-8")
            cmd += ["--input", str(in_path), "--out", str(out_path), "--unit-limit", str(limit)]
            if trace:
                spans = self.out_dir / f"spans-{self.workload}.jsonl"
                cmd += ["--trace", "1", "--spans", str(spans)]
        rfd, wfd = os.pipe()
        cmd += ["--ready-fd", str(wfd)]
        with open(self.out_dir / f"stderr-{self.workload}.txt", "a", encoding="utf-8") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env, pass_fds=(wfd,),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            os.close(wfd)
            try:
                ready, _, _ = select.select([rfd], [], [], 60.0)
                if ready and os.read(rfd, 1) == b"r":
                    (self.bare_s if bare else self.setup_s).append(perf_counter() - t0)
                proc.wait(timeout=max(1.0, RUN_DEADLINE_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                os.close(rfd)
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        lines: list[dict] = []
        if job is not None:
            in_path.unlink()
            if out_path.exists():
                with open(out_path, encoding="utf-8") as fh:
                    for ln in fh:
                        try:
                            lines.append(json.loads(ln))
                        except json.JSONDecodeError:
                            break  # cut off when the child was stopped
                out_path.unlink()
        if job is not None and proc.returncode != 0:
            self.failures.append(f"child exited with {proc.returncode}")
        return lines

    def measure_setup(self) -> None:
        for _ in range(SETUP_SAMPLES):
            self.spawn(None, bare=True)
            self.spawn(None)

    def past_deadline(self) -> bool:
        return self.elapsed() > RUN_DEADLINE_S - 15.0


def unit_stats(run: Run, job: dict, check, trace: bool) -> dict:
    """Run one child for one unit or pass and score what it returns."""
    lines = run.spawn(job, trace=trace, limit=UNIT_LIMIT_S[run.workload])
    done = next((ln for ln in lines if ln.get("done")), None)
    units = [ln for ln in lines if "unit" in ln]
    expected = len(job.get("products", [None]))
    failed = 0
    for unit in units:
        reason = check(unit)
        if reason:
            failed += 1
            run.failures.append(reason)
    missing = expected - len(units)
    if missing or done is None:
        run.failures.append(f"{missing} units lost: the child was stopped or crashed")
    failed += missing
    return {
        "attempted": expected,
        "failed": failed,
        "done": done,
        "unit_ms": [
            ms for u in units for ms in (u.get("bracket_ms") or [1000.0 * u["s"]])
        ],
    }


def workload_job(workload: str, seed: int):
    """The child's input and the per-unit check for this workload and seed."""
    if workload in workloads.LIE_ARGV:
        ref = workloads.lie_reference(workload)
        job = {"kind": "lie", "argv": workloads.LIE_ARGV[workload]}
        return job, (lambda unit: workloads.check_lie(workload, unit, ref)), 0
    pool = workloads.load_pool()
    picked = workloads.select_products(pool, seed)
    job = {"kind": "products", "products": [[e["n"], e["p"], e["x"], e["y"]] for e in picked]}
    return job, (lambda unit: workloads.check_product(unit, picked[unit["unit"]])), len(
        pool["excluded"]
    )


def measure(run: Run, trace: bool) -> tuple[dict, int, int]:
    job, check, excluded = workload_job(run.workload, run.seed)
    attempted = failed = 0
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        # traced and untraced units alternate, so the overhead compares like with like
        want_trace = trace and len(plain) > len(traced)
        began = run.elapsed()
        run.measure_setup()
        stats = unit_stats(run, job, check, want_trace)
        took = run.elapsed() - began
        attempted += stats["attempted"]
        failed += stats["failed"]
        if stats["done"] is not None:
            (traced if want_trace else plain).append(stats)
            run.walls["traced" if want_trace else "plain"].append(stats["done"]["wall_s"])
        if run.past_deadline() or (not plain and not traced):
            break
        if trace and not traced:
            continue
        # start another unit only if it should end by --seconds plus half a unit
        if run.elapsed() + 0.5 * took > run.seconds:
            break
    if trace:
        if not traced:
            run.failures.append("no traced unit completed")
            return {}, attempted, max(failed, 1)
        metrics = {}
        for name in traced[0]["done"]["metrics"]:
            metrics[name] = statistics.median(s["done"]["metrics"][name] for s in traced)
        for s in traced:
            if s["done"].get("unwrapped"):
                run.failures.append(f"untraced bindings: {s['done']['unwrapped']}")
        plain_wall = statistics.median(s["done"]["wall_s"] for s in plain)
        traced_wall = statistics.median(s["done"]["wall_s"] for s in traced)
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        metrics["products.excluded_draws"] = excluded
        return metrics, attempted, failed
    if not plain:
        return {}, attempted, max(failed, 1)
    unit_ms = [ms for s in plain for ms in s["unit_ms"]]
    metrics = {
        "wall_s": statistics.median(s["done"]["wall_s"] for s in plain),
        "wall_raw_s": statistics.median(s["done"]["wall_raw_s"] for s in plain),
        "setup_s": statistics.median(run.setup_s) * BARE_REF_S / statistics.median(run.bare_s),
        "setup_raw_s": statistics.median(run.setup_s),
        "peak_rss_mb": statistics.median(s["done"]["peak_rss_kb"] for s in plain) / 1024.0,
        "unit_p50_ms": quantile(unit_ms, 0.5),
        "unit_p90_ms": quantile(unit_ms, 0.9),
        # not a BENCHMARK.json metric: it is 0 when all is well
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    return metrics, attempted, failed


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def units_of(bench: dict, trace: bool) -> dict:
    specs = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in specs}


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(root, workload, seed, seconds)
    metrics, attempted, failed = measure(run, trace)
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        units = units_of(json.load(fh), trace)
    result = {
        "correct": failed == 0 and not run.failures and set(units) <= set(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **machine(),
        "run_s": run.elapsed(),
        "setup_samples_s": run.setup_s,
        "bare_start_samples_s": run.bare_s,
        "wall_samples_s": run.walls,
        "all_metrics": metrics,
        "failures": run.failures[:50],
        "result": result,
    }
    path = root / ".perfbench_runs" / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def summary(root: Path, seed: int, seconds: float) -> None:
    """Every end-to-end metric of every workload, by name and unit."""
    units = {**END_TO_END, **REPORTED}
    names = list(units)
    rows = {}
    for workload in workloads.WORKLOADS:
        rows[workload] = run_one(root, workload, seed, seconds, trace=False)
    print(f"{'metric':<14}{'unit':<6}" + "".join(f"{w:>22}" for w in rows))
    for name in names:
        cells = "".join(f"{r['all_metrics'].get(name, float('nan')):>22.4f}" for r in rows.values())
        print(f"{name:<14}{units[name]:<6}{cells}")
    correct = all(r["result"]["correct"] for r in rows.values())
    print(json.dumps({"correct": correct, "workloads": {w: r["all_metrics"] for w, r in rows.items()}}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "hallq" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/hallq is missing", file=sys.stderr)
        return 2
    # byte-compile up front, so no measured start-up pays for it
    if not compileall.compile_dir(root / "src" / "hallq", quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("perfbench: src/hallq does not compile", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary(root, args.seed, args.seconds)
        return 0
    record = run_one(root, args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in record["failures"][:10]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
