"""Spans and counters recorded from outside hamrc.

``Tracer.patch`` replaces selected hamrc functions by timing wrappers at
every module attribute that holds them, since hamrc modules look
functions up in their own namespaces (``hamrc.synth.canonicalize`` as
well as ``hamrc.schedule.canonicalize``).  ``Tracer.restore`` puts the
originals back.  Spans stay in memory until ``write_jsonl``.

Every span belongs to a bucket, a layer of hamrc named ``<module>.<what>``.
A span's self time is its duration minus the time its child spans cover,
so the self times of all buckets add up to the duration of the outermost
spans.  Counter bookkeeping runs inside a child span of bucket
``trace.self_s``, so it is not charged to the layer being counted.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Iterator

PLANNING = "bounds.plan_s"


class Tracer:
    """In-memory spans, per-bucket self times and named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[Any]] = []  # [span id, bucket, name, start, child time]
        self._ids = itertools.count()
        self._planning = 0
        self._patched: list[tuple[object, str, Callable]] = []

    # ------------------------------------------------------------------
    # spans

    def _open(self, bucket: str, name: str) -> None:
        if bucket == PLANNING:
            self._planning += 1
        self._stack.append([next(self._ids), bucket, name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, bucket, name, start, child = self._stack.pop()
        if bucket == PLANNING:
            self._planning -= 1
        duration = end - start
        self.self_s[bucket] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, bucket: str, name: str) -> Iterator[None]:
        self._open(bucket, name)
        try:
            yield
        finally:
            self._close()

    def wrap(
        self,
        fn: Callable,
        bucket: str,
        count: Callable | None = None,
        calls: tuple[str, ...] = (),
        planning_calls: tuple[str, ...] = (),
    ) -> Callable:
        """``fn`` inside a span of ``bucket``.

        Each call adds one to the ``calls`` counters, and to the
        ``planning_calls`` counters while a planning span is open.
        ``count(tracer, args, kwargs, result)`` runs after ``fn`` and
        returns the result to hand back.
        """
        name = f"{fn.__module__}.{fn.__qualname__}"

        def traced(*args, **kwargs):
            for key in calls:
                self.counts[key] += 1
            if self._planning:
                for key in planning_calls:
                    self.counts[key] += 1
            with self.span(bucket, name):
                result = fn(*args, **kwargs)
                if count is not None:
                    with self.span("trace.self_s", "count"):
                        result = count(self, args, kwargs, result)
                return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # patching

    def patch(self, fn: Callable, bucket: str, **how) -> None:
        """Replace ``fn`` at every ``hamrc`` module attribute that holds it.

        ``how`` takes the keyword arguments of :meth:`wrap`.
        """
        traced = self.wrap(fn, bucket, **how)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hamrc" and not mod_name.startswith("hamrc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, traced)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{fn.__qualname__} is not reachable from any hamrc module")

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


# ----------------------------------------------------------------------
# what is traced in hamrc


def _tally(key: str, size: Callable) -> Callable:
    def count(tracer: Tracer, args, kwargs, result):
        tracer.counts[key] += size(args, result)
        return result

    return count


def _count_eval(tracer: Tracer, args, kwargs, result):
    instructions = args[0].instructions
    layers = [ins.cache_key() for ins in instructions if hasattr(ins, "cache_key")]
    tracer.counts["schedule.eval_ins"] += len(instructions)
    tracer.counts["schedule.eval_locals"] += len(layers)
    tracer.counts["schedule.eval_layers"] += len(set(layers))
    return result


def _count_canon(tracer: Tracer, args, kwargs, result):
    tracer.counts["schedule.canon_in"] += len(args[0].instructions)
    tracer.counts["schedule.canon_out"] += len(result.instructions)
    return result


def _count_frames(tracer: Tracer, args, kwargs, result):
    frames = result[1]
    tracer.counts["decouple.frames"] += len(frames.frames)
    tracer.counts["decouple.depth"] += frames.depth
    return result


def _trace_measure(tracer: Tracer, args, kwargs, measure):
    return tracer.wrap(measure, PLANNING, calls=("bounds.measure_calls",))


def instrument(tracer: Tracer) -> None:
    """Patch the public functions of every hamrc layer into ``tracer``.

    Buckets follow the defining module, except that step planning
    (``plan_for_model``, ``plan_steps``, ``chained_rate`` and the
    empirical measure) is booked to ``bounds.plan_s`` wherever it lives.
    """
    from hamrc import bounds, cli, decouple, dense, hamio, routing, schedule, synth

    tracer.patch(cli.main, "cli.self_s")
    for fn in (hamio.parse_hamfile, hamio.parse_schedule):
        tracer.patch(fn, "hamio.self_s", count=_tally("hamio.bytes", lambda a, r: len(a[0])))
    for fn in (hamio.serialize_schedule, hamio.format_report):
        tracer.patch(fn, "hamio.self_s", count=_tally("hamio.bytes", lambda a, r: len(r)))

    tracer.patch(synth.step_model, "synth.model_s")
    tracer.patch(synth.emit_step, "synth.emit_s",
                 count=_tally("synth.emitted", lambda a, r: len(r[0])))
    for fn in (synth.compile_schedule, synth.compile_cnot, synth._repeat_steps):
        tracer.patch(fn, "synth.self_s")

    tracer.patch(synth.plan_for_model, PLANNING,
                 count=_tally("synth.factors", lambda a, r: len(a[0].factors)))
    tracer.patch(synth._make_measure, PLANNING, count=_trace_measure)
    for fn in (bounds.plan_steps, bounds.chained_rate):
        tracer.patch(fn, PLANNING)

    tracer.patch(decouple.isolate_principal, "decouple.self_s", count=_count_frames)
    for fn in (decouple.pair_step_model, decouple.expand_step_model, decouple.compile_on_pair):
        tracer.patch(fn, "decouple.self_s")

    tracer.patch(routing.route, "routing.self_s",
                 count=_tally("routing.segments", lambda a, r: 2 * len(r) - 3))
    tracer.patch(routing.compile_remote, "routing.self_s")

    tracer.patch(schedule.evaluate_schedule, "schedule.eval_s",
                 count=_count_eval, calls=("schedule.eval_calls",))
    tracer.patch(schedule.canonicalize, "schedule.canon_s", count=_count_canon)

    planning = {dense.operator_norm: ("bounds.norms",),
                dense.dense_of_expansion: ("bounds.dense_builds",)}
    for fn in (dense.dense_of_expansion, dense.operator_norm, dense.expm_hermitian, dense.distance):
        tracer.patch(fn, "dense.self_s", calls=("dense.calls",), planning_calls=planning.get(fn, ()))
