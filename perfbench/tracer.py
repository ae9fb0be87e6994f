"""Per-layer tracing of gordankit from outside the package.

The tracer replaces a layer's boundary functions with timing wrappers.
Each wrapped function belongs to a *group*, named after the layer metric
it feeds (``engine.search_feasible``, ``infimum.exact``, ...).  Rules:

* A function is replaced where it is defined *and* wherever a gordankit
  module bound the same object by name (``from .infimum import
  batch_infimum``), so calls through either name are traced.
* Only the outermost call of a group is recorded; a nested call of the same
  group (recursion, or ``batch_infimum`` calling ``batch_real_infimum``)
  runs unwrapped, so nothing is counted twice.
* A name that no longer exists is reported as absent instead of failing.

Spans (group, start, end, parent) are kept in memory and written out at the
end of the run.  A span's self time is its duration minus the duration of
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Group:
    """One traced layer: the functions it covers and what it counts."""

    name: str
    targets: tuple  # "module:qualname", module relative to the package
    on_return: Optional[Callable] = None  # (group, entry token, result) -> None
    on_enter: Optional[Callable] = None  # () -> entry token
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=dict)
    depth: int = 0

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _count_outcome(group, token, result):
    group.add(type(result).__name__, 1)


def _count_exact(group, token, result):
    if getattr(result, "exact", True) is False:
        group.add("inexact", 1)


def _count_batch(group, token, result):
    values, flags = result
    group.add("items", len(values))
    group.add("flagged", int(flags.sum()))


def _count_eval(group, token, result):
    group.add("points", int(result.shape[1]))


def _count_rows(group, token, result):
    group.add("points", len(result))


def _count_levelset(group, token, result):
    group.add("bisection_steps", int(result.iterations))


def _count_samples(group, token, result):
    group.add("samples_checked", int(result.samples_checked))


def _count_warm_hit(group, searches_at_entry, result):
    # A level test is a warm hit when it ran no engine search of its own.
    if group.on_enter() == searches_at_entry:
        group.add("warm_hits", 1)


class Tracer:
    """Installs the wrappers and accumulates spans and counts."""

    def __init__(self, package: str = "gordankit"):
        self.package = package
        groups = [
            Group("quadratics.eval_members", ("quadratics:QuadraticFamily.eval_members",),
                  _count_eval),
            Group("infimum.exact", ("infimum:quadratic_infimum", "infimum:quadratic_infimum_raw"),
                  _count_exact),
            Group("infimum.batch", ("infimum:batch_infimum", "infimum:batch_real_infimum",
                                    "infimum:batch_orthant_infimum"), _count_batch),
            Group("engine.decide", ("engine:decide_alternative",), _count_outcome),
            Group("engine.search_feasible", ("engine:_search_feasible",)),
            Group("engine.search_certificate", ("engine:_search_certificate",)),
            Group("engine.refine_weight", ("engine:_refine_weight",)),
            Group("engine.yuan", ("engine:yuan_alternative", "engine:yuan_pencil_max")),
            Group("qp.slater", ("qp:slater_check",)),
            Group("qp.solve_levelset", ("qp:solve_levelset",), _count_levelset),
            Group("qp.level_test", ("qp:_test_level",), _count_warm_hit, self.engine_searches),
            Group("qp.fritz_john", ("qp:fritz_john_search",)),
            Group("qp.kkt_check", ("qp:kkt_check",)),
            Group("qp.sample_feasible", ("qp:sample_feasible",), _count_rows),
            Group("conjugate.sup_min", ("conjugate:conjugate_sup_min",)),
            Group("conjugate.brute", ("conjugate:brute_conjugate_sup",)),
            Group("conjugate.exact", ("conjugate:conjugate_quadratic",)),
            Group("zmatrix.infsup_falsify", ("zmatrix:infsup_falsify",), _count_samples),
            Group("sampling.halton", ("sampling:halton_points",)),
            Group("sampling.lattice", ("sampling:simplex_lattice_array",), _count_rows),
            Group("cli.load_problem", ("cli:load_problem",)),
            Group("cli.dumps", ("cli:dumps",)),
            Group("cli", ("cli:main",)),
        ]
        self.groups = {g.name: g for g in groups}
        self.absent: list = []
        self.enabled = False
        self.spans: list = []  # (group name, start_ns, end_ns, parent span index)
        self._stack: list = []  # [span index, child_ns] per open span

    def engine_searches(self) -> int:
        return (self.groups["engine.search_feasible"].calls
                + self.groups["engine.search_certificate"].calls)

    def _resolve(self, target: str):
        mod_name, qualname = target.split(":")
        owner = importlib.import_module(f"{self.package}.{mod_name}")
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, getattr(owner, parts[-1])

    def install(self) -> None:
        """Wrap every target; tracing starts disabled until ``enabled`` is set."""
        resolved = []
        for group in self.groups.values():
            for target in group.targets:
                try:
                    resolved.append((group, *self._resolve(target)))
                except (ImportError, AttributeError):
                    self.absent.append(target)
        # Listed only now, so that modules first imported while resolving
        # have their bindings wrapped too.
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(self.package + "."))]
        for group, owner, original in resolved:
            wrapper = self._wrap(group, original)
            # A method has one binding, on its class; a function may be
            # bound in several modules, always including its own.
            owners = [owner] if isinstance(owner, type) else [owner, *modules]
            for mod in owners:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def _wrap(self, group: Group, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or group.depth:
                return fn(*args, **kwargs)
            group.depth += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            frame = [index, 0]
            tracer._stack.append(frame)
            token = group.on_enter() if group.on_enter is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                group.depth -= 1
                duration = end - start
                group.calls += 1
                group.total_ns += duration
                group.self_ns += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (group.name, start, end, parent)
            if group.on_return is not None:
                group.on_return(group, token, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[name, start - t0, end - t0, parent] for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["group", "start_ns", "end_ns", "parent"], "spans": rows}, fh)
