"""Per-layer spans recorded from outside the package.

Each public function named in ``SPAN_TARGETS`` is replaced, in every
``nlspsa_ik`` module that holds a reference to it, by a wrapper that records
one span per call: name, start, end and the index of the enclosing span.
Spans are kept in flat arrays while the traced passes run and written out
once at the end. A span's self time is its duration minus the durations of
its direct children; calls are nested on one thread, so children never
overlap.

The per-step helpers in ``nlspsa_ik.optimizer`` (``spsa_gradient``,
``take_step``, ``saturate``, ``clamp_to_limits``, ``sample_perturbation``,
``step_gain``, ``perturbation_gain``) are deliberately not traced: only tests
call them, the ``solve_many`` engine does not. Add them here once the engine
calls them.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np
from nlspsa_ik.objective import LossEvaluator


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _rows(args, result) -> int:
    return len(result)


# (module, attribute, span name, size counted per call).
# ``LossEvaluator.evaluate_many`` is a method and is patched on the class.
SPAN_TARGETS = (
    ("nlspsa_ik.cli", "main", "cli.main", None),
    ("nlspsa_ik.scenarios", "builtin", "scenarios.builtin", None),
    ("nlspsa_ik.optimizer", "solve_many", "optimizer.solve_many", None),
    ("nlspsa_ik.baseline", "pso_solve", "baseline.pso_solve", None),
    ("nlspsa_ik.kinematics", "forward_kinematics", "kinematics.forward_kinematics", None),
    ("nlspsa_ik.artifacts", "write_trace_csv", "artifacts.write_trace_csv", _file_bytes),
    ("nlspsa_ik.artifacts", "write_sweep_csv", "artifacts.write_sweep_csv", _file_bytes),
    ("nlspsa_ik.artifacts", "write_compare_csv", "artifacts.write_compare_csv", _file_bytes),
    ("nlspsa_ik.artifacts", "write_json", "artifacts.write_json", _file_bytes),
)
EVALUATE_MANY = "objective.evaluate_many"
ARTIFACT_WRITERS = tuple(t[2] for t in SPAN_TARGETS if t[0] == "nlspsa_ik.artifacts")


class SpanRecorder:
    """Spans in flat arrays: name id, parent index (-1 for a root), start,
    end, and a size counted at the boundary (rows evaluated, bytes written;
    0 where the target has no size)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._open: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, size=None):
        """``fn`` recording one span per call; ``size(args, result)``, if
        given, is evaluated after the span has ended."""
        nid = self.name_index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        sizes = self.size
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            sizes.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if size is not None:
                sizes[idx] = size(args, result)
            return result

        return traced

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "size": np.array(self.size, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def _rebind(original, replacement, undo: list) -> None:
    """Point every ``nlspsa_ik`` module attribute bound to ``original`` at
    ``replacement``, recording what to restore in ``undo``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "nlspsa_ik" and not mod_name.startswith("nlspsa_ik."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)


@contextmanager
def traced(recorder: SpanRecorder):
    """Record spans for every target while the block runs."""
    undo: list = []
    try:
        for mod_name, attr, span_name, size in SPAN_TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            _rebind(original, recorder.wrap(span_name, original, size), undo)
        original = LossEvaluator.evaluate_many
        undo.append((LossEvaluator, "evaluate_many", original))
        LossEvaluator.evaluate_many = recorder.wrap(EVALUATE_MANY, original, _rows)
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


class SpanTable:
    """Calls, busy time, self time and summed size per span name."""

    def __init__(self, recorder: SpanRecorder):
        a = recorder.arrays()
        self.names = list(recorder.names)
        name_id, parent = a["name_id"], a["parent"]
        n_names = len(self.names)
        duration = a["end"] - a["start"]
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=duration.size
        )
        self_time = duration - child_time
        self._calls = np.bincount(name_id, minlength=n_names)
        self._busy = np.bincount(name_id, weights=duration, minlength=n_names)
        self._self = np.bincount(name_id, weights=self_time, minlength=n_names)
        self._size = np.bincount(name_id, weights=a["size"], minlength=n_names)
        parent_name = np.full(parent.size, -1)
        parent_name[nested] = name_id[parent[nested]]
        self._name_id, self._parent_name = name_id, parent_name
        self.total_self_s = float(self_time.sum())

    def _get(self, per_name: np.ndarray, name: str) -> float:
        return float(per_name[self.names.index(name)]) if name in self.names else 0.0

    def calls(self, name: str) -> int:
        return int(self._get(self._calls, name))

    def busy_s(self, name: str) -> float:
        return self._get(self._busy, name)

    def self_s(self, name: str) -> float:
        return self._get(self._self, name)

    def size(self, name: str) -> int:
        return int(self._get(self._size, name))

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` whose enclosing span is a ``parent_name`` span."""
        if name not in self.names or parent_name not in self.names:
            return 0
        return int(np.count_nonzero(
            (self._name_id == self.names.index(name))
            & (self._parent_name == self.names.index(parent_name))
        ))
