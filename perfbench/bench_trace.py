"""Span tracing of the hallq layers, installed from outside the package.

`Tracer.install` wraps every public function of the seven hallq modules
(plus `hall_core._count_witnesses`, the counting engine) and rebinds every
module attribute that points at one of them, so a name imported with
`from .gf import ...` is traced in each importing module too.

Calls into the functions named in `SPAN_FUNCS` become span records
(name, start, end, parent span, time covered by children, attributes).
Every other wrapped call, gf and the small label helpers alike, is summed
per (function, calling function): it still counts towards its caller's
child time, but the many small calls never become records of their own,
which keeps memory bounded on long runs. Generators are timed per `next`
and their yields are counted. Everything stays in memory until `metrics`
or `write_spans` reads it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

MODULES = ("gf", "quiver_rep", "hom_decomp", "hall_core", "hall_poly", "lie", "cli")
EXTRA_PRIVATE = ("hallq.hall_core._count_witnesses",)

SPAN_FUNCS = frozenset(
    {
        "hallq.cli.main",
        "hallq.lie.build_bracket_table",
        "hallq.lie.verify_lie_axioms",
        "hallq.lie.bracket",
        "hallq.hall_poly.interpolate_hall_poly",
        "hallq.hall_core.hall_product",
        "hallq.hall_core.hall_number",
        "hallq.hall_core._count_witnesses",
        "hallq.hom_decomp.decompose",
        "hallq.hom_decomp.hom_table",
    }
)

# primes reported one by one in hall_core.hall_number.{s,calls}.p<p>
PRIMES = (2, 3, 5, 7, 11, 13)


def _prime_of(name, args, kwargs):
    if name == "hallq.hall_core.hall_number":
        ctx = args[3] if len(args) > 3 else kwargs["ctx"]
        return ctx.p
    if name == "hallq.hall_core._count_witnesses":
        return args[1]
    return None


def _is_traced(mod, attr, obj) -> bool:
    if attr.startswith("_") and f"{mod.__name__}.{attr}" not in EXTRA_PRIVATE:
        return False
    if getattr(obj, "__module__", None) != mod.__name__:
        return False
    # plain functions and lru_cache wrappers; classes stay untouched
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self, clock=perf_counter) -> None:
        # what spans are timed with; child.py passes a refclock.RefClock.ref
        self.clock = clock
        # span record: [name, start, end, parent id, child_s, prime, result truthy, error]
        self.spans: list[list] = []
        # (name, caller name) -> [calls, total_s, child_s, yields]
        self.agg: dict[tuple[str, str], list] = {}
        # open frames: [name, child_s, span id or None, id of nearest open span]
        self.stack: list[list] = [["<root>", 0.0, None, None]]
        self.originals: dict[str, object] = {}
        self._bindings: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"hallq.{m}") for m in MODULES]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if _is_traced(mod, attr, obj):
                    self.originals[f"{mod.__name__}.{attr}"] = obj
        wrappers = {id(orig): self._wrap(name, orig) for name, orig in self.originals.items()}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._bindings):
            setattr(mod, attr, obj)
        self._bindings.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still point at an original traced function."""
        originals = {id(o) for o in self.originals.values()}
        bad = []
        for m in MODULES:
            mod = importlib.import_module(f"hallq.{m}")
            for attr, obj in vars(mod).items():
                if id(obj) in originals:
                    bad.append(f"hallq.{m}.{attr}")
        return bad

    def _close(self, frame, t0: float, t1: float, result, error) -> None:
        name, child_s, span_id, _ = frame
        dur = t1 - t0
        self.stack[-1][1] += dur
        if span_id is not None:
            rec = self.spans[span_id]
            rec[1], rec[2], rec[4] = t0, t1, child_s
            rec[6] = bool(result) if error is None else None
            rec[7] = error
        else:
            entry = self.agg.setdefault((name, self.stack[-1][0]), [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += child_s

    def _wrap(self, name: str, fn):
        stack = self.stack
        spans = self.spans
        now = self.clock
        is_span = name in SPAN_FUNCS

        if inspect.isgeneratorfunction(fn):
            agg = self.agg

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                entry = agg.setdefault((name, stack[-1][0]), [0, 0.0, 0.0, 0])
                entry[0] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [name, 0.0, None, stack[-1][3]]
                        stack.append(frame)
                        t0 = now()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            dt = now() - t0
                            stack.pop()
                            stack[-1][1] += dt
                            entry[1] += dt
                            entry[2] += frame[1]
                        entry[3] += 1
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_span:
                span_id = len(spans)
                spans.append(
                    [name, 0.0, 0.0, stack[-1][3], 0.0, _prime_of(name, args, kwargs), None, None]
                )
                frame = [name, 0.0, span_id, span_id]
            else:
                frame = [name, 0.0, None, stack[-1][3]]
            stack.append(frame)
            result = error = None
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = now()
                stack.pop()
                close(frame, t0, t1, result, error)

        return wrapper

    # --- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: spans first, then the summed small calls."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, child_s, prime, truthy, error) in enumerate(self.spans):
                fh.write(json.dumps(["span", sid, name, t0, t1, parent, child_s, prime, truthy, error]) + "\n")
            for (name, caller), (calls, total, child_s, yields) in sorted(self.agg.items()):
                fh.write(json.dumps(["sum", name, caller, calls, total, child_s, yields]) + "\n")

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json."""
        by_name: dict[str, list[tuple[int, list]]] = {}
        for sid, rec in enumerate(self.spans):
            by_name.setdefault(rec[0], []).append((sid, rec))

        def spans_of(short):
            return [rec for _, rec in by_name.get(f"hallq.{short}", [])]

        def ids_of(short):
            return {sid for sid, _ in by_name.get(f"hallq.{short}", [])}

        def incl(recs):
            return sum(r[2] - r[1] for r in recs)

        def self_s(recs):
            return sum(r[2] - r[1] - r[4] for r in recs)

        def summed(short, caller=None):
            # (calls, inclusive s, self s, yields) over the summed small calls
            calls = total = child = yields = 0
            for (name, who), (c, t, ch, y) in self.agg.items():
                if name == f"hallq.{short}" and caller in (None, who):
                    calls += c
                    total += t
                    child += ch
                    yields += y
            return calls, total, total - child, yields

        def cache(qualname):
            module, _, attr = qualname.rpartition(".")
            orig = self.originals.get(qualname) or getattr(importlib.import_module(module), attr)
            return orig.cache_info()

        out: dict[str, float] = {}
        calls, _, slf, yields = summed("gf.echelon_supersets")
        out["gf.echelon_supersets.calls"] = calls
        out["gf.echelon_supersets.yields"] = yields
        out["gf.echelon_supersets.self_s"] = slf
        for fn in ("row_reduce", "matrix_rank"):
            calls, _, slf, _ = summed(f"gf.{fn}")
            out[f"gf.{fn}.calls"] = calls
            out[f"gf.{fn}.self_s"] = slf

        hn = spans_of("hall_core.hall_number")
        cw = spans_of("hall_core._count_witnesses")
        out["hall_core.hall_number.calls"] = len(hn)
        out["hall_core.hall_number.self_s"] = self_s(hn)
        out["hall_core.hall_number.nonzero_frac"] = (
            sum(1 for r in hn if r[6]) / len(hn) if hn else 0.0
        )
        for p in PRIMES:
            at_p = [r for r in hn if r[5] == p]
            out[f"hall_core.hall_number.s.p{p}"] = incl(at_p)
            out[f"hall_core.hall_number.calls.p{p}"] = len(at_p)
        out["hall_core.count_witnesses.calls"] = len(cw)
        out["hall_core.count_witnesses.self_s"] = self_s(cw)
        out["hall_core.prune_frac"] = 1.0 - len(cw) / len(hn) if hn else 0.0
        nodes = summed("gf.echelon_supersets", "hallq.hall_core._count_witnesses")[3]
        cw_s = incl(cw)
        out["hall_core.nodes_per_s"] = nodes / cw_s if cw_s else 0.0

        hp = spans_of("hall_core.hall_product")
        out["hall_core.hall_product.calls"] = len(hp)
        out["hall_core.hall_product.s"] = incl(hp)
        for short, attr in (("module_data", "_module_data"), ("side_spec", "_side_spec")):
            info = cache(f"hallq.hall_core.{attr}")
            out[f"hall_core.{short}.hits"] = info.hits
            out[f"hall_core.{short}.misses"] = info.misses

        calls, _, slf, _ = summed("hom_decomp.hom_dim_raw")
        out["hom_decomp.hom_dim_raw.calls"] = calls
        out["hom_decomp.hom_dim_raw.self_s"] = slf
        dec = spans_of("hom_decomp.decompose")
        out["hom_decomp.decompose.calls"] = len(dec)
        out["hom_decomp.decompose.s"] = incl(dec)
        out["hom_decomp.hom_table.misses"] = cache("hallq.hom_decomp.hom_table").misses
        out["hom_decomp.hom_table.s"] = incl(spans_of("hom_decomp.hom_table"))

        info = cache("hallq.quiver_rep.multisets_with_dims")
        out["quiver_rep.multisets_with_dims.hits"] = info.hits
        out["quiver_rep.multisets_with_dims.misses"] = info.misses
        calls, total, _, _ = summed("quiver_rep.rep_of_multiset")
        out["quiver_rep.rep_of_multiset.calls"] = calls
        out["quiver_rep.rep_of_multiset.s"] = total

        fits = spans_of("hall_poly.interpolate_hall_poly")
        fit_ids = ids_of("hall_poly.interpolate_hall_poly")
        out["hall_poly.interpolate_hall_poly.calls"] = len(fits)
        out["hall_poly.interpolate_hall_poly.self_s"] = self_s(fits)
        out["hall_poly.hall_numbers_per_fit"] = (
            sum(1 for r in hn if r[3] in fit_ids) / len(fits) if fits else 0.0
        )

        br = spans_of("lie.bracket")
        br_ids = ids_of("lie.bracket")
        ms = [1000.0 * (r[2] - r[1]) for r in br]
        out["lie.bracket.calls"] = len(br)
        out["lie.bracket.s"] = incl(br)
        out["lie.bracket.p50_ms"] = quantile(ms, 0.5) if ms else 0.0
        out["lie.bracket.p90_ms"] = quantile(ms, 0.9) if ms else 0.0
        out["lie.bracket.retries"] = sum(
            1 for r in fits if r[7] == "InterpolationError" and r[3] in br_ids
        )
        out["lie.build_bracket_table.s"] = incl(spans_of("lie.build_bracket_table"))
        out["lie.verify_lie_axioms.s"] = incl(spans_of("lie.verify_lie_axioms"))

        main = spans_of("cli.main")
        out["cli.main.s"] = incl(main)
        out["cli.report.self_s"] = self_s(main)
        return out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)
