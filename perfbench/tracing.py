"""Spans and counts around taulab's public functions, for the traced run.

The tracer wraps functions from outside the program.  A wrapper is put
wherever a caller looks the name up: in every taulab module that holds the
function (``taulab.proofs.unpair`` as well as ``taulab.codec.unpair``) and,
for methods, on the class.  Spans (name, parent, start, end) are kept in
flat arrays and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.

``codec.unpair`` runs millions of times per proof search, so it is counted
but gets no span: its time stays in its caller's self time.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from taulab import codec, constructions, fol, proofs, theories, tpl

CHECK_KINDS = ("ok", "empty", "malformed", "malformed_ref", "missing_formula",
               "unjustified", "budget", "conclusion", "bad_target")


class Tracer:
    """Counts and spans of the wrapped functions while installed; use it as
    a context manager around the calls to trace."""

    def __init__(self):
        self.origin = perf_counter()
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []       # open span ids, innermost last
        self._covered: list[float] = []  # child time inside each open span
        self._runs: list[int] = []       # child machine steps inside each open Machine.run
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_run_depth = 0
        self._patches: list = []
        self._installed: list = []
        self._plan()

    # -- wrappers

    def _span(self, name, fn, enter=None, leave=None):
        nid = len(self.names)
        self.names.append(name)
        open_, covered = self._open, self._covered
        calls, self_s = self.calls, self.self_s
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            token = enter(args) if enter else None
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(open_[-1] if open_ else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            open_.append(sid)
            covered.append(0.0)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                open_.pop()
                inner = covered.pop()
                if covered:
                    covered[-1] += t1 - t0
                span_start[sid] = t0
                span_end[sid] = t1
                calls[name] += 1
                self_s[name] += t1 - t0 - inner
                if leave:
                    leave(args, result, token)

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _plan(self):
        counts = self.counts

        def add(key, amount):
            counts[key] += amount

        def run_enter(args):
            self._runs.append(0)
            self.max_run_depth = max(self.max_run_depth, len(self._runs))
            return args[0].steps

        def run_leave(args, _result, before):
            steps = args[0].steps - before
            inner = self._runs.pop()
            counts["tpl.steps.own"] += steps - inner
            counts["tpl.steps.charged"] += inner
            if self._runs:
                self._runs[-1] += steps
            else:
                counts["tpl.steps.top"] += steps

        def kind(_args, result, _token):
            if result is not None:
                counts["proofs.check_proof.result." + result.kind] += 1

        spanned = [
            (codec, "nat_to_decimal",
             lambda a, r, t: add("codec.decimal.digits", len(r or ""))),
            (codec, "decimal_to_nat",
             lambda a, r, t: add("codec.decimal.digits", len(a[0]))),
            (tpl, "parse_program",
             lambda a, r, t: add("tpl.parse_program.chars", len(a[0]))),
            (proofs, "code_to_proof",
             lambda a, r, t: add("proofs.code_to_proof.decoded", r is not None)),
            (proofs, "check_proof", kind),
            (proofs, "check_coded_proof", None),
            (fol, "parse_formula",
             lambda a, r, t: add("fol.parse_formula.chars", len(a[0]))),
            (fol, "format_formula", None),
            (theories, "enumerate_axioms", None),
            (theories, "axiom_member_S", None),
            (theories, "segment_axiom_index", None),
            (theories, "order_truth", None),
            (constructions, "plant_axiom", None),
            (constructions, "rosser_pair", None),
            (constructions, "henkin_complete", None),
        ]
        for module, attr, leave in spanned:
            original = getattr(module, attr)
            name = f"{module.__name__.removeprefix('taulab.')}.{attr}"
            self._patches.append((original, self._span(name, original, leave=leave)))
        self._patches.append((codec.unpair, self._count("codec.unpair", codec.unpair)))

        run = tpl.Machine.__dict__["run"]
        self._methods = [
            (tpl.Machine, "run",
             self._span("tpl.run", run, enter=run_enter, leave=run_leave)),
            (proofs.EnumeratorIndexed, "materialize",
             self._span("proofs.materialize", proofs.EnumeratorIndexed.__dict__["materialize"],
                        leave=lambda a, r, t: add("proofs.materialize.steps", r[1] if r else 0))),
        ]

    # -- installing

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "taulab" or key.startswith("taulab.")]
        for original, wrapper in self._patches:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, key, value))
                        setattr(module, key, wrapper)
        for cls, attr, wrapper in self._methods:
            self._installed.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        for holder, key, value in reversed(self._installed):
            setattr(holder, key, value)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results

    def metrics(self, cache_hits: int, cache_misses: int, overhead: float) -> dict:
        """The per-layer metrics, as name -> (value, unit)."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        decimal_s = self_s["codec.nat_to_decimal"] + self_s["codec.decimal_to_nat"]
        m = {
            "codec.unpair.calls": (calls["codec.unpair"], "count"),
            "codec.decimal.self_s": (decimal_s, "s"),
            "codec.decimal.digits_per_s": (rate(counts["codec.decimal.digits"], decimal_s), "1/s"),
            "tpl.steps_per_s": (rate(counts["tpl.steps.own"], self_s["tpl.run"]), "1/s"),
            "tpl.run.calls": (calls["tpl.run"], "count"),
            "tpl.run.max_depth": (self.max_run_depth, "count"),
            "tpl.steps.own": (counts["tpl.steps.own"], "count"),
            "tpl.steps.charged": (counts["tpl.steps.charged"], "count"),
            "tpl.run.self_s": (self_s["tpl.run"], "s"),
            "tpl.parse_program.self_s": (self_s["tpl.parse_program"], "s"),
            "tpl.parse_program.chars_per_s": (
                rate(counts["tpl.parse_program.chars"], self_s["tpl.parse_program"]), "1/s"),
            "tpl.program_from_code.hits": (cache_hits, "count"),
            "tpl.program_from_code.misses": (cache_misses, "count"),
            "proofs.code_to_proof.calls": (calls["proofs.code_to_proof"], "count"),
            "proofs.code_to_proof.decoded": (counts["proofs.code_to_proof.decoded"], "count"),
            "proofs.code_to_proof.yield": (
                rate(counts["proofs.code_to_proof.decoded"], calls["proofs.code_to_proof"]),
                "ratio"),
            "proofs.code_to_proof.self_s": (self_s["proofs.code_to_proof"], "s"),
            "proofs.check_proof.calls": (calls["proofs.check_proof"], "count"),
            "proofs.check_proof.self_s": (self_s["proofs.check_proof"], "s"),
        }
        for kind in CHECK_KINDS:
            key = "proofs.check_proof.result." + kind
            m[key] = (counts[key], "count")
        m.update({
            "proofs.check_coded_proof.calls": (calls["proofs.check_coded_proof"], "count"),
            "proofs.check_coded_proof.self_s": (self_s["proofs.check_coded_proof"], "s"),
            "proofs.materialize.calls": (calls["proofs.materialize"], "count"),
            "proofs.materialize.steps": (counts["proofs.materialize.steps"], "count"),
            "proofs.materialize.self_s": (self_s["proofs.materialize"], "s"),
            "fol.parse_formula.calls": (calls["fol.parse_formula"], "count"),
            "fol.parse_formula.self_s": (self_s["fol.parse_formula"], "s"),
            "fol.parse_formula.chars_per_s": (
                rate(counts["fol.parse_formula.chars"], self_s["fol.parse_formula"]), "1/s"),
            "fol.format_formula.self_s": (self_s["fol.format_formula"], "s"),
            "theories.enumerate_axioms.self_s": (self_s["theories.enumerate_axioms"], "s"),
            "theories.axiom_member_S.self_s": (self_s["theories.axiom_member_S"], "s"),
            "theories.segment_axiom_index.self_s": (self_s["theories.segment_axiom_index"], "s"),
            "theories.order_truth.calls": (calls["theories.order_truth"], "count"),
            "theories.order_truth.self_s": (self_s["theories.order_truth"], "s"),
            "theories.order_truth.per_s": (
                rate(calls["theories.order_truth"], self_s["theories.order_truth"]), "1/s"),
            "constructions.build.self_s": (
                self_s["constructions.plant_axiom"] + self_s["constructions.rosser_pair"], "s"),
            "constructions.henkin_complete.self_s": (self_s["constructions.henkin_complete"], "s"),
            "trace.overhead": (overhead, "ratio"),
        })
        return m

    def write_spans(self, path):
        """All spans as gzip'd tab-separated lines, times from tracer start."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as out:
            out.write("span\tname\tparent\tstart_s\tend_s\n")
            names, origin = self.names, self.origin
            for sid, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                out.write(f"{sid}\t{names[nid]}\t{parent}\t{start - origin:.9f}\t{end - origin:.9f}\n")
