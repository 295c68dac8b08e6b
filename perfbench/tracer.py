"""In-memory span tracer over the rankmetric layers (one layer per module).

``Tracer.install`` replaces each public function, and each public method of
each public class, defined in a layer module by a wrapper, in every
rankmetric module namespace that holds it, so calls made through the
program's own imports are traced as well.  Nothing in the program changes.

A call of an ordinary function records one span: name, layer, start, end,
parent span and task id.  Calls of hot functions (field arithmetic, rank
kernels, codeword iteration) would cost one span each in inner loops, so
they are aggregated instead: call count, self time and errors per
(parent span, function).  Worker processes started by ``--jobs`` are not
traced; their time is self time of ``oracle.max_list_size``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("ff", "matfq", "linpoly", "codes", "bounds", "witness", "oracle", "cli", "acceptance")

HOT_CLASSES = ("ff.Field", "ff.BaseField", "matfq.MatrixFq")
HOT_FUNCTIONS = frozenset({
    "oracle.rank_leq", "oracle.pack_word", "oracle.unpack_word",
    "matfq.rank", "matfq.rref", "matfq.rank_of_vector", "matfq.gf2_rank_ints",
    "ff.expand_to_matrix", "ff.vector_from_matrix", "ff.base_field", "ff.frobenius",
    "linpoly.evaluate",
})
# Entry points of a rank evaluation; a call nested in another one is not counted again.
RANK_FUNCTIONS = frozenset({"matfq.rank", "matfq.rank_of_vector", "matfq.gf2_rank_ints", "oracle.rank_leq"})


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    name: str
    layer: str
    task: int
    parent: int | None  # sid of the nearest enclosing span
    start: float
    end: float
    hot_s: float  # time of hot calls made directly from this span
    under_hot: bool  # ran inside a hot call, whose self time already excludes it
    failed: bool


def self_times(spans: list[Span], hot: dict) -> dict[str, float]:
    """Self time per layer.

    A span's self time is its duration minus its child spans and its direct
    hot calls; a hot call's self time was recorded net of its own children.
    The layer totals add up to the summed duration of the root spans.
    """
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None and not s.under_hot:
            children[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += (s.end - s.start) - children[s.sid] - s.hot_s
    for (_parent, name), (_calls, self_s, _errors) in hot.items():
        out[name.split(".", 1)[0]] += self_s
    return dict(out)


class Tracer:
    def __init__(self) -> None:
        self.task: int | None = None  # tracing is on while a task runs
        self.spans: list[Span] = []
        self.hot: dict[tuple[int | None, str], list] = {}
        self.rank_evals: dict[tuple[str, str], list] = {}  # (caller layer, rank layer) -> [count, seconds]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # frames: [span sid, span layer, is hot, child seconds, in rank]
        self._next_sid = 0
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {
            "oracle.max_list_size": self._on_max_list,
            "oracle.list_codewords": self._on_list,
            "oracle.ball_volume_bruteforce": self._on_ball,
            "matfq.grassmannian_enumerate": self._on_grassmannian,
            "witness.verify_certificate": self._on_verify_certificate,
        }

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        replaced: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._set(mod, attr, replaced[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_methods(self, cls, layer: str) -> None:
        hot = f"{layer}.{cls.__name__}" in HOT_CLASSES
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, name, layer, hot)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name, layer, hot))

    def _wrap(self, fn, name: str, layer: str, hot: bool = False):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                return it if tracer.task is None else tracer._iterate(it, name, layer)
        elif hot or name in HOT_FUNCTIONS:
            def wrapper(*args, **kwargs):
                if tracer.task is None or not tracer._stack:
                    return fn(*args, **kwargs)
                return tracer._hot(fn, name, layer, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                if tracer.task is None:
                    return fn(*args, **kwargs)
                return tracer._span(fn, name, layer, args, kwargs)
        return functools.update_wrapper(wrapper, fn)

    # -- recording ----------------------------------------------------------

    def _span(self, fn, name, layer, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self._next_sid
        self._next_sid += 1
        frame = [sid, layer, False, 0.0, bool(parent and parent[4])]
        stack.append(frame)
        failed = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            under_hot = bool(parent and parent[2])
            if under_hot:
                parent[3] += end - start
            self.spans.append(Span(
                sid, name, layer, self.task, parent[0] if parent else None,
                start, end, frame[3], under_hot, failed,
            ))
        hook = self._hooks.get(name)
        if hook is not None:
            hook(args, result, end - start)
        return result

    def _hot(self, fn, name, layer, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        is_rank = name in RANK_FUNCTIONS
        frame = [parent[0], parent[1], True, 0.0, parent[4] or is_rank]
        stack.append(frame)
        failed = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except BaseException:
            failed = True
            raise
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            parent[3] += dur
            agg = self.hot.get((parent[0], name))
            if agg is None:
                agg = self.hot[(parent[0], name)] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += dur - frame[3]
            agg[2] += failed
            if is_rank and not parent[4]:
                ev = self.rank_evals.setdefault((parent[1], layer), [0, 0.0])
                ev[0] += 1
                ev[1] += dur

    def _iterate(self, it, name, layer):
        """Time each step of a generator as a hot call and count what it yields."""
        step = it.__next__
        while True:
            try:
                item = self._hot(step, name, layer, (), {}) if self._stack else step()
            except StopIteration:
                return
            self.counters[f"{name}.yields"] += 1
            yield item

    # -- result hooks for the per-layer counts ------------------------------

    def _on_max_list(self, args, result, seconds):
        code = args[0]
        self.counters["oracle.scanned"] += result.scanned
        self.counters["oracle.max_s"] += seconds
        self.counters["oracle.cosets"] += code.field.order ** (code.n - code.k)

    def _on_list(self, args, result, seconds):
        self.counters["oracle.list_hits"] += result.size
        self.counters["oracle.list_tested"] += args[0].cardinality

    def _on_ball(self, args, result, seconds):
        m, n, q = args[:3]
        self.counters["oracle.ball_matrices"] += q ** (m * n)
        self.counters["oracle.ball_s"] += seconds

    def _on_grassmannian(self, args, result, seconds):
        self.counters["matfq.subspaces_enumerated"] += len(result)

    def _on_verify_certificate(self, args, result, seconds):
        self.counters["witness.codewords_certified"] += args[0].total_size

    # -- summaries ----------------------------------------------------------

    def calls_by_name(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for s in self.spans:
            calls[s.name] += 1
        for (_parent, name), (count, _self_s, _errors) in self.hot.items():
            calls[name] += count
        return dict(calls)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors per layer."""
        stats = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for s in self.spans:
            stats[s.layer]["calls"] += 1
            stats[s.layer]["errors"] += s.failed
        for (_parent, name), (count, _self_s, errors) in self.hot.items():
            layer = name.split(".", 1)[0]
            stats[layer]["calls"] += count
            stats[layer]["errors"] += errors
        for layer, seconds in self_times(self.spans, self.hot).items():
            stats[layer]["self_s"] = seconds
        return stats

    def to_jsonable(self) -> dict:
        return {
            "span_fields": list(Span.__dataclass_fields__),
            "spans": [
                [s.sid, s.name, s.layer, s.task, s.parent, s.start, s.end, s.hot_s, s.under_hot, s.failed]
                for s in self.spans
            ],
            "hot": [[parent, name, *agg] for (parent, name), agg in self.hot.items()],
            "rank_evals": [[caller, layer, *ev] for (caller, layer), ev in self.rank_evals.items()],
            "counters": dict(self.counters),
        }
