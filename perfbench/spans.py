"""In-process tracing for the benchmark's traced run.

``Tracer.install`` wraps the public functions of every ``cyclemill`` module
and the public ``Tournament`` methods, and rebinds each wrapped function
wherever a module imported it by name (``packer.hamiltonian_path`` is
``classic.hamiltonian_path``).  Every call then records a span: name, start,
end and parent.  Spans stay in memory until the run writes them out.

Left unwrapped: the constant-time accessors ``Tournament.arc``, ``out_mask``
and ``in_mask`` and the helpers ``core.bits`` and ``core.mask_of``.  They run
millions of times inside the kernels, so a span per call would cost more than
the work it measures.  ``packer.pack`` reaches its moves through the
``_MOVES`` tuple, which holds the original functions, so the move metrics come
from the benchmark's own direct calls of each move.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

import cyclemill

MODULES = ("core", "trn", "classic", "matching", "surgery", "packer", "oracle", "gen", "claims", "cli")
UNWRAPPED = {"core.bits", "core.mask_of"}
TOURNAMENT_METHODS = (
    "induced",
    "strong_components",
    "is_q_cycle_free",
    "min_out_degree",
    "out_degree",
    "arcs_between",
    "dominates",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.stack: list[int] = []
        self.loads_bytes = 0
        self.cycles_enumerated = 0
        self.cap_overflows = 0
        self.patterns = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.roots.append(self.stack[0] if self.stack else sid)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _observe(self, sid: int, args, result) -> None:
        """Count the work of spans under the ``bench.pass`` root."""
        name = self.names[sid]
        if self.names[self.roots[sid]] != "bench.pass":
            return
        if name == "trn.loads":
            self.loads_bytes += len(args[0])
        elif name == "oracle.enumerate_q_cycles":
            cycles, overflow = result
            self.cycles_enumerated += len(cycles)
            self.cap_overflows += bool(overflow)
        elif name == "oracle.counterexample_search":
            lo, hi = result.spec.n_range
            if result.spec.mode == "exhaustive":
                self.patterns += sum(1 << (n * (n - 1) // 2) for n in range(lo, hi + 1))

    def _wrap(self, name: str, fn):
        observed = name in ("trn.loads", "oracle.enumerate_q_cycles", "oracle.counterexample_search")
        per_command = name == "cli.main"  # one span name per CLI command

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(f"cli.{args[0][0]}" if per_command and args and args[0] else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observed:
                self._observe(sid, args, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"cyclemill.{m}") for m in MODULES]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                    or name in UNWRAPPED
                ):
                    continue
                replaced[id(obj)] = (obj, self._wrap(name, obj))
        for mod in modules + [cyclemill]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(mod, attr, replaced[id(obj)][1])
        tournament = cyclemill.core.Tournament
        self._set(tournament, "__init__", self._wrap("core.Tournament", tournament.__init__))
        for attr in TOURNAMENT_METHODS:
            self._set(tournament, attr, self._wrap(f"core.{attr}", getattr(tournament, attr)))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def aggregate(self, root_name: str) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name, over the spans
        under every root span called ``root_name``.  Inclusive time counts
        only the outermost span of a name, so recursion is not counted twice."""
        roots = self._roots(root_name)
        child_time = defaultdict(float)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            if self.roots[i] not in roots:
                continue
            dur = self.ends[i] - self.starts[i]
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += dur - child_time[i]
            if not self._inside_same_name(i):
                entry["s"] += dur
        return stats

    def _roots(self, root_name: str) -> set[int]:
        return {i for i, n in enumerate(self.names) if n == root_name and self.parents[i] == -1}

    def _inside_same_name(self, i: int) -> bool:
        name = self.names[i]
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def child_seconds(self, root_name: str, parent: str, child: str) -> float:
        """Time of ``child`` spans directly under ``parent`` spans."""
        total = 0.0
        roots = self._roots(root_name)
        for i, name in enumerate(self.names):
            p = self.parents[i]
            if name == child and p >= 0 and self.names[p] == parent and self.roots[i] in roots:
                total += self.ends[i] - self.starts[i]
        return total

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            {"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p}
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]
        path.write_text(json.dumps(spans))
