"""Spans and work counts at orbimorse's layer entry points, recorded from
outside the package.

``Tracer.installed()`` replaces each entry point below by a wrapper that
records a span (name, start, end, parent span, solve id) and, for some, a
count of the work its arguments or result imply.  A function is replaced in
every orbimorse module namespace that holds it, because several are
imported by name (``morse_datum`` imports ``verify_complex``,
``chain_complex`` imports ``homology_at``); a method is replaced on its
class.  Nested calls therefore show up as child spans.  Spans stay in memory
until the run writes them out.  Nothing under ``src/`` changes, and the
originals are put back when the block ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("flow_numerics", "stabilization", "morse_datum", "chain_complex",
          "exact_linalg", "simplicial_oracle", "cli")


def _snf_cells(work, args, kwargs, result):
    matrix = args[0]
    work["exact_linalg.smith_normal_form.cells"] += matrix.rows * matrix.cols


def _matmul_mults(work, args, kwargs, result):
    left, right = args
    work["exact_linalg.matmul.mults"] += left.rows * left.cols * right.cols


def _orbit_work(work, args, kwargs, result):
    tols = args[0].tolerances
    extra = kwargs.get("extra_seeds", args[1] if len(args) > 1 else None)
    work["seeds"] += (tols.seed_count * len(tols.seed_radii)
                      + (0 if extra is None else len(extra)))
    work["flow_numerics.lifts"] += sum(len(o.points) for o in result)
    work["flow_numerics.orbits"] += len(result)


def _flow_pairs(work, args, kwargs, result):
    work["flow_numerics.flow_pairs"] += len(result.flows)


def _boundaries(work, args, kwargs, result):
    work["boundaries"] += len(args[0].generators)


# (module, attribute or Class.method, metric prefix, work counter)
ENTRY_POINTS = (
    ("flow_numerics", "check_surface", "flow_numerics.check_surface", None),
    ("flow_numerics", "find_critical_orbits",
     "flow_numerics.find_critical_orbits", _orbit_work),
    ("flow_numerics", "stabilize_all", "flow_numerics.stabilize_all", None),
    ("flow_numerics", "FlowLineCounter.__init__",
     "flow_numerics.FlowLineCounter.init", None),
    ("flow_numerics", "FlowLineCounter.count",
     "flow_numerics.FlowLineCounter.count", None),
    ("flow_numerics", "quotient_to_datum", "flow_numerics.quotient_to_datum",
     _flow_pairs),
    ("stabilization", "stabilize_point", "stabilization.stabilize_point", None),
    ("morse_datum", "validate", "morse_datum.validate", None),
    ("morse_datum", "coinvariant_complex", "morse_datum.coinvariant_complex",
     None),
    ("morse_datum", "invariant_complex", "morse_datum.invariant_complex", None),
    ("morse_datum", "ratio_identity_check", "morse_datum.ratio_identity_check",
     None),
    ("morse_datum", "orbifold_euler", "morse_datum.orbifold_euler", None),
    ("chain_complex", "verify_complex", "chain_complex.verify_complex", None),
    ("chain_complex", "homology", "chain_complex.homology", _boundaries),
    ("exact_linalg", "smith_normal_form", "exact_linalg.smith_normal_form",
     _snf_cells),
    ("exact_linalg", "IntegerMatrix.__matmul__", "exact_linalg.matmul",
     _matmul_mults),
    ("exact_linalg", "rank", "exact_linalg.rank", None),
    ("exact_linalg", "homology_at", "exact_linalg.homology_at", None),
    ("simplicial_oracle", "SimplicialComplex.chain_complex",
     "simplicial_oracle.SimplicialComplex.chain_complex", None),
    ("simplicial_oracle", "simplicial_homology",
     "simplicial_oracle.simplicial_homology", None),
    ("cli", "datum_from_json", "cli.datum_from_json", None),
    ("cli", "datum_to_json", "cli.datum_to_json", None),
)

SOLVE = "solve"


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Span and work-count recorder for one traced run."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index, solve id]
        self.work = Counter()
        self._stack = []
        self._solve_id = None

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self._solve_id])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, count_work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count_work is not None:
                count_work(self.work, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def solve(self, solve_id):
        """Root span of one solve; every entry-point span nests under it."""
        self._solve_id = solve_id
        index = self._open(SOLVE)
        try:
            yield
        finally:
            self._close(index)
            self._solve_id = None

    @contextmanager
    def installed(self):
        namespaces = [m for n, m in sys.modules.items()
                      if n == "orbimorse" or n.startswith("orbimorse.")]
        restore = []
        try:
            for module_name, attr, name, count_work in ENTRY_POINTS:
                module = sys.modules[f"orbimorse.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original, count_work))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, count_work)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            restore.append((namespace, key, original))
                            setattr(namespace, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}.

        Self time is a span's duration minus its children's.  Shares are
        taken over the summed duration of the solve spans; time in program
        code outside the wrapped entry points and in the benchmark's own
        checks is the solve spans' self time, reported as
        ``unwrapped.self_share``.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        inclusive = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[index]
            inclusive[name] += end - start
        solve_s = inclusive[SOLVE]

        out = {}
        for _, _, name, _ in ENTRY_POINTS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for key in ("exact_linalg.smith_normal_form.cells",
                    "exact_linalg.matmul.mults", "flow_numerics.lifts",
                    "flow_numerics.orbits", "flow_numerics.flow_pairs"):
            out[key] = (self.work[key], "count")
        out["flow_numerics.newton_yield"] = (
            _ratio(self.work["flow_numerics.lifts"], self.work["seeds"]), "ratio")
        out["chain_complex.d2_checks_per_complex"] = (
            _ratio(calls["exact_linalg.matmul"], calls["chain_complex.homology"]),
            "ratio")
        out["exact_linalg.snf_per_boundary"] = (
            _ratio(calls["exact_linalg.smith_normal_form"],
                   self.work["boundaries"]), "ratio")
        out["flow_numerics.FlowLineCounter.count.share"] = (
            _ratio(inclusive["flow_numerics.FlowLineCounter.count"], solve_s),
            "ratio")
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_s.items()
                             if k.startswith(layer + "."))
            out[f"{layer}.self_share"] = (_ratio(layer_self, solve_s), "ratio")
        out["unwrapped.self_share"] = (_ratio(self_s[SOLVE], solve_s), "ratio")
        return out

    def to_json(self):
        return {"fields": ["name", "start", "end", "parent", "solve"],
                "spans": self.spans}
