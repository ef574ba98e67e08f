"""Spans around the public boundaries of each chiralva layer.

The benchmark never edits the program: it replaces selected module-level
functions by timing wrappers, in every chiralva namespace that holds them
(`cli`, `equivalence` and `chiral` bind names at import time).  Only
boundaries called at most about 1e5 times in a pass are wrapped, so never
`jacobi_instance` or the `Poly` methods; `exact` is measured by cProfile
instead (see `profile_shares`).

Spans live in memory as (id, parent id, name, start, end) tuples and are
written out once, when the run ends.  The two basis compositions run some
1e5 times per pass, so their spans are kept as (parent id, name) aggregates
of call count and time instead of one record each.
"""

from __future__ import annotations

import cProfile
import gzip
import pstats
import re
import sys
import time
from collections import defaultdict

# (module, function, span name)
BOUNDARIES = (
    ("chiralva.serialize", "load_path", "serialize.load_path"),
    ("chiralva.vertex", "check_all_va", "vertex.check_all_va"),
    ("chiralva.vertex", "check_truncation", "vertex.check_truncation"),
    ("chiralva.vertex", "check_d_derivative", "vertex.check_d_derivative"),
    ("chiralva.vertex", "check_skew_symmetry", "vertex.check_skew_symmetry"),
    ("chiralva.vertex", "check_jacobi", "vertex.check_jacobi"),
    ("chiralva.vertex", "_locality_witness", "vertex.locality_certificate"),
    ("chiralva.vertex", "_associativity_witness", "vertex.associativity_certificate"),
    ("chiralva.chiral", "check_all_chiral", "chiral.check_all_chiral"),
    ("chiralva.chiral", "check_dmodule_morphism", "chiral.check_dmodule_morphism"),
    ("chiralva.chiral", "check_chiral_skew", "chiral.check_chiral_skew"),
    ("chiralva.chiral", "check_chiral_jacobi", "chiral.check_chiral_jacobi"),
    ("chiralva.chiral", "_compose_left_basis", "chiral.compose_left_basis"),
    ("chiralva.chiral", "_compose_right_basis", "chiral.compose_right_basis"),
    ("chiralva.chiral", "compose_left", "chiral.compose_left"),
    ("chiralva.chiral", "compose_right", "chiral.compose_right"),
    ("chiralva.equivalence", "roundtrip_check", "equivalence.roundtrip_check"),
    ("chiralva.formal", "expand", "formal.expand"),
    ("chiralva.formal", "check_identity", "formal.check_identity"),
    ("chiralva.formal", "fundamental_delta_property", "formal.fundamental_delta_property"),
    ("chiralva.deltaparse", "parse_expression", "deltaparse.parse_expression"),
)

SUITES = ("vertex.check_all_va", "chiral.check_all_chiral")
COMPOSE_BASIS = ("chiral.compose_left_basis", "chiral.compose_right_basis")
AGGREGATED = COMPOSE_BASIS
CHIRAL_CHECKS = ("chiral.check_dmodule_morphism", "chiral.check_chiral_skew",
                 "chiral.check_chiral_jacobi", "chiral.compose_left", "chiral.compose_right")

_INSTANCES = re.compile(r"\((\d+) instances\)")
_TRIPLES = re.compile(r"\((\d+) generator triples\)")


def _box_keys(box) -> int:
    n = 1
    for lo, hi in box.bounds:
        n *= hi - lo + 1
    return n


class Tracer:
    """Span recorder with per-name inclusive time, self time and call counts.

    Inclusive time counts only the outermost span of a name, so the
    recursive `formal.expand` is not counted twice; calls count every span.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.aggregates: dict = defaultdict(lambda: [0, 0.0])  # (parent id, name) -> [calls, s]
        self.stack: list[list] = []  # [id, name, start, child time]
        self.depth = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)  # instances, triples, box keys, suite runs
        self.cache_entries_max = 0
        self.memo_seen: dict = {}  # (id(A), args) -> None, reset per command
        self.memo_objects: dict = {}  # keeps A alive so its id is not reused
        self.memo_hits = 0
        self.command = None
        self._next_id = 1
        self._installed: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self.stack.append(frame)
        self.depth[name] += 1
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        sid, name, start, child = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.depth[name] -= 1
        if self.depth[name] == 0:
            self.incl[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent_id = parent[0] if parent else 0
        if name in AGGREGATED:
            agg = self.aggregates[(parent_id, name)]
            agg[0] += 1
            agg[1] += dur
        else:
            self.spans.append((sid, parent_id, name, start, end))

    def command_span(self, kind: str, fn, *args):
        """Run one CLI command inside a `cli.main` span."""
        self.command = kind
        self.memo_seen.clear()
        self.memo_objects.clear()
        frame = self.open("cli.main")
        try:
            return fn(*args)
        finally:
            self.close(frame)
            self.command = None

    def _observe(self, name: str, args, result) -> None:
        if name == "vertex.check_jacobi":
            m = _INSTANCES.search(result.window)
            self.counts["vertex.check_jacobi.instances"] += int(m.group(1)) if m else 0
        elif name == "chiral.check_chiral_jacobi":
            m = _TRIPLES.search(result.window)
            self.counts["chiral.check_chiral_jacobi.triples"] += int(m.group(1)) if m else 0
        elif name in ("formal.check_identity", "formal.fundamental_delta_property"):
            box = args[2] if name == "formal.check_identity" else args[1]
            self.counts["formal.box_keys"] += _box_keys(box)
        if name in SUITES and self.command == "roundtrip":
            self.counts["equivalence.suite_runs_in_roundtrip"] += 1
        if name in CHIRAL_CHECKS:
            self.cache_entries_max = max(self.cache_entries_max, len(args[0]._cache))

    def _memo(self, name: str, args) -> None:
        A = args[0]
        key = (name, id(A), args[1:])
        if key in self.memo_seen:
            self.memo_hits += 1
        else:
            self.memo_seen[key] = None
            self.memo_objects[id(A)] = A

    def wrap(self, name: str, fn):
        tracer = self
        observe = name in SUITES or name in CHIRAL_CHECKS or name in (
            "vertex.check_jacobi", "formal.check_identity", "formal.fundamental_delta_property")
        memo = name in COMPOSE_BASIS

        def traced(*args, **kwargs):
            if memo:
                tracer._memo(name, args)
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if observe:
                tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Replace each boundary function in every chiralva namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "chiralva" or n.startswith("chiralva.")) and m is not None]
        for module_name, attr, span in BOUNDARIES:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
            fh.write("aggregate\tparent\tname\tcalls\ttotal_s\n")
            for (parent, name), (calls, total) in sorted(self.aggregates.items()):
                fh.write(f"aggregate\t{parent}\t{name}\t{calls}\t{total:.9f}\n")


def profile_shares(run) -> tuple[float, float]:
    """Run `run()` under cProfile; return the shares of self time spent in
    chiralva/exact.py and in the stdlib fractions.py (profiler-attributed)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    total = poly = frac = 0.0
    for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in stats.items():
        total += tt
        if filename.endswith("chiralva/exact.py"):
            poly += tt
        elif filename.endswith("/fractions.py"):
            frac += tt
    return (poly / total, frac / total) if total else (0.0, 0.0)
