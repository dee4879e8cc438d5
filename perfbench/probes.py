"""Timers wrapped around popref from outside: a stage clock and a span tracer.

Both work by replacing module attributes, so popref itself is unchanged.

* :class:`StageClock` wraps the calls ``run_experiment`` makes once per
  experiment (world build, split generation, encoding, training, tuning,
  evaluation, report writing), and counts the per-item calls in
  :data:`TICKED`, reading the timer every :data:`TICK_EVERY` of them.  It
  adds one timer read per few milliseconds of work and is always on.
* :class:`Tracer` records a span (name, start, end, parent) around every
  call into the public functions and methods listed in :data:`TRACED`, plus
  counts taken at the same boundaries.  It is on only in traced runs, whose
  end-to-end times are not reported.
"""

import os
import time

import numpy as np

# harness attribute -> stage.  encode_split runs once per split and
# accumulates; train and train_pipeline are the two models' training calls.
STAGES = {
    "build_synthetic_world": "world",
    "generate_splits": "data",
    "encode_split": "encode",
    "train": "train",
    "train_pipeline": "train",
    "tune_thresholds": "tune",
    "evaluate": "evaluate",
    "write_report_bundle": "report",
}


# Per-item calls that tick the stage clock: the training step, prediction
# (the pop probe, tuning and evaluation), encoding and generation of one act.
TICKED = {
    "pop_model": ["PopTrainable.loss_and_grads", "predict"],
    "pipeline_model": ["PipelineTrainable.loss_and_grads",
                       "similarity_profile"],
    "embeddings": ["encode_act"],
    "datagen": ["validate_act"],
}
# Ticked calls per part: a part is then 1-15 ms of work.
TICK_EVERY = 32


class StageClock:
    """Seconds per stage of one experiment, its parts, and when training began.

    The clock cuts an experiment into *parts*: it marks the time at the
    start and end of every stage and at every :data:`TICK_EVERY`-th ticked
    call, and :meth:`parts` gives the time between consecutive marks, each
    labelled with its stage (``rest`` outside every stage).  Experiments on
    one manifest make the same calls in the same order, so part ``i`` of
    each is the same work.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.train_started_at: float | None = None  # time.monotonic()
        self._marks: list[float] = []
        self._labels: list[str] = []
        self._stage = "rest"
        self._calls = 0

    def install(self, modules: dict) -> None:
        """Wrap harness's stages and the ticked calls; ``modules`` maps
        short name to module."""
        harness = modules["harness"]
        for attr, stage in STAGES.items():
            setattr(harness, attr, self._timed(stage, getattr(harness, attr)))
        for short, names in TICKED.items():
            module = modules[short]
            for name in names:
                _replace(modules, module, name,
                         self._ticking(_lookup(module, name)))

    def mark(self, label: str) -> None:
        """Start a part labelled ``label`` now."""
        self._marks.append(time.perf_counter())
        self._labels.append(label)

    def parts(self) -> list[tuple[str, float]]:
        """(stage, seconds) of each part, from the first mark to the last."""
        marks = self._marks
        return [(self._labels[i], marks[i + 1] - marks[i])
                for i in range(len(marks) - 1)]

    def _ticking(self, fn):
        def ticking(*args, **kwargs):
            self._calls += 1
            if self._calls % TICK_EVERY == 0:
                self.mark(self._stage)
            return fn(*args, **kwargs)

        return ticking

    def _timed(self, stage, fn):
        def timed(*args, **kwargs):
            if stage == "train" and self.train_started_at is None:
                self.train_started_at = time.monotonic()
            outer = self._stage
            self._stage = stage
            self.mark(stage)
            start = self._marks[-1]
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark(outer)
                self._stage = outer
                elapsed = self._marks[-1] - start
                self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed

        return timed


# Module -> public functions and methods traced in it.  Per-item helpers
# that run many times per act (datagen.matches, Rng draws, Prediction
# constructors, pop_model.loss) are left out to keep the overhead small.
# harness._protest_rate is the per-epoch validation probe.
TRACED = {
    "harness": ["run_experiment", "encode_split", "evaluate", "_protest_rate",
                "write_report_bundle"],
    "embeddings": ["build_synthetic_world", "encode_act"],
    "datagen": ["generate_splits", "dataset_stats"],
    "training": ["train"],
    "pop_model": ["init_params", "forward", "backward", "predict",
                  "PopTrainable.loss_and_grads"],
    "pipeline_model": ["train_pipeline", "extract_pairs", "hinge_grads",
                       "PipelineTrainable.loss_and_grads", "similarity_profile",
                       "pipeline_predict", "tune_thresholds"],
    "checkpoint": ["pop_record", "pipeline_record", "save_checkpoint"],
}

INSPECT = "trace.inspect"  # the tracer's own counting; excluded from self times
TOUCH_SAMPLE = 8  # inspect the gradients of every 8th training step


class Tracer:
    """In-memory spans around calls into popref's layers.

    A span is ``(name, start, end, parent)`` with ``parent`` the index of
    the enclosing span (-1 at the top); all spans of one process belong to
    one experiment, identified by ``run_id``.  Counting done by the tracer
    itself runs inside ``trace.inspect`` spans, so it never inflates the self
    time of the layer being measured.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []
        self.counts = {
            "steps": 0,
            "hinge_active": 0,
            "touched_entries": 0,
            "gradient_entries": 0,
            "acts_generated": 0,
            "checkpoint_bytes": 0,
        }

    def install(self, modules: dict) -> None:
        """Wrap every name in :data:`TRACED`; ``modules`` maps short name to module."""
        inspectors = {
            "PopTrainable.loss_and_grads": self._inspect_step,
            "PipelineTrainable.loss_and_grads": self._inspect_step,
            "generate_splits": self._inspect_splits,
            "save_checkpoint": self._inspect_checkpoint,
        }
        for short, names in TRACED.items():
            module = modules[short]
            for name in names:
                wrapped = self._wrap(f"{short}.{name}", _lookup(module, name),
                                     inspectors.get(name))
                _replace(modules, module, name, wrapped)

    def _wrap(self, name, fn, inspect):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if inspect is not None:
                begin = clock()
                inspect(args, result)
                spans.append((INSPECT, begin, clock(), parent))
            return result

        return traced

    def _inspect_step(self, args, result):
        value, grads = result
        counts = self.counts
        counts["steps"] += 1
        counts["hinge_active"] += value > 0.0
        if counts["steps"] % TOUCH_SAMPLE:
            return
        for grad in grads.values():
            if grad.ndim == 2:
                touched = int(np.count_nonzero(grad.any(axis=0)))
                counts["touched_entries"] += touched * grad.shape[0]
                counts["gradient_entries"] += grad.size

    def _inspect_splits(self, args, result):
        self.counts["acts_generated"] += sum(len(acts) for acts in result.values())

    def _inspect_checkpoint(self, args, result):
        self.counts["checkpoint_bytes"] += os.path.getsize(args[1])

    def summary(self) -> dict:
        """Per span name: calls, total and self milliseconds."""
        table = _span_table(self.spans)
        out = {}
        for name, rows in table["by_name"].items():
            out[name] = {
                "calls": int(rows.size),
                "total_ms": float(table["dur"][rows].sum() * 1e3),
                "self_ms": float(table["self"][rows].sum() * 1e3),
            }
        return out

    def layer_metrics(self, report: dict) -> dict[str, float]:
        """The per-layer metrics of one traced experiment (see README.md)."""
        table = _span_table(self.spans)
        dur, self_time, parent = table["dur"], table["self"], table["parent"]

        def rows(name):
            return table["by_name"].get(name, np.zeros(0, dtype=np.int64))

        def total_ms(name):
            return float(dur[rows(name)].sum() * 1e3)

        def mean_us(name):
            r = rows(name)
            return float(dur[r].mean() * 1e6) if r.size else 0.0

        def pct_us(name, q):
            r = rows(name)
            return float(np.percentile(dur[r], q) * 1e6) if r.size else 0.0

        counts = self.counts
        metrics = {
            "pop_model.forward_us_p50": pct_us("pop_model.forward", 50),
            "pop_model.forward_us_p99": pct_us("pop_model.forward", 99),
            "pop_model.backward_us_p50": pct_us("pop_model.backward", 50),
            "pop_model.backward_us_p99": pct_us("pop_model.backward", 99),
            "pop_model.forward_calls": float(rows("pop_model.forward").size),
            "pop_model.predict_us_per_act": mean_us("pop_model.predict"),
            "harness.evaluate_ms": total_ms("harness.evaluate"),
            "harness.probe_ms": total_ms("harness._protest_rate"),
            "pipeline_model.hinge_us": mean_us("pipeline_model.hinge_grads"),
            "pipeline_model.similarity_profile_us_per_act":
                mean_us("pipeline_model.similarity_profile"),
            "pipeline_model.tune_ms": total_ms("pipeline_model.tune_thresholds"),
            "pipeline_model.predict_us_per_act":
                mean_us("pipeline_model.pipeline_predict"),
            "datagen.generate_ms": total_ms("datagen.generate_splits"),
            "datagen.acts_generated": float(counts["acts_generated"]),
            "embeddings.world_build_ms":
                total_ms("embeddings.build_synthetic_world"),
            "embeddings.encode_us_per_act": mean_us("embeddings.encode_act"),
            "checkpoint.record_ms": total_ms("checkpoint.pop_record")
            + total_ms("checkpoint.pipeline_record"),
            "checkpoint.save_ms": total_ms("checkpoint.save_checkpoint"),
            "checkpoint.bytes": float(counts["checkpoint_bytes"]),
            "harness.report_write_ms": float(
                self_time[rows("harness.write_report_bundle")].sum() * 1e3),
        }
        acts = counts["acts_generated"]
        metrics["datagen.gen_us_per_act"] = (
            metrics["datagen.generate_ms"] * 1e3 / acts if acts else 0.0)
        is_pipeline = rows("pipeline_model.hinge_grads").size > 0
        metrics["pipeline_model.hinge_active_ratio"] = (
            counts["hinge_active"] / counts["steps"]
            if is_pipeline and counts["steps"] else 0.0)

        # Training: the step is train's span less the validation probe and
        # the tracer's counting; the update is train's self time (the step
        # less loss_and_grads), i.e. the momentum update and loop overhead.
        updates = int(report.get("train", {}).get("updates", 0))
        train_rows = rows("training.train")
        metrics["training.updates"] = float(updates)
        if updates and train_rows.size:
            excluded = np.isin(parent, train_rows) & np.isin(
                table["names"], ["harness._protest_rate", INSPECT])
            step_s = dur[train_rows].sum() - dur[excluded].sum()
            metrics["training.step_us"] = float(step_s / updates * 1e6)
            metrics["training.update_us"] = float(
                self_time[train_rows].sum() / updates * 1e6)
        else:
            metrics["training.step_us"] = 0.0
            metrics["training.update_us"] = 0.0
        metrics["training.touched_col_share"] = (
            counts["touched_entries"] / counts["gradient_entries"]
            if counts["gradient_entries"] else 0.0)
        return metrics


def _lookup(module, name):
    target = module
    for part in name.split("."):
        target = getattr(target, part)
    return target


def _replace(modules: dict, module, name: str, wrapped) -> None:
    """Put ``wrapped`` in place of ``module.name`` (or of a ``Class.method``)."""
    if "." in name:
        cls_name, meth = name.split(".")
        setattr(getattr(module, cls_name), meth, wrapped)
    else:
        _rebind(modules.values(), getattr(module, name), wrapped)


def _rebind(modules, original, wrapped) -> None:
    """Point every module-level reference to ``original`` at ``wrapped``.

    popref modules import each other's functions by name, so a call from
    harness into training.train goes through harness's own binding.
    """
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _span_table(spans) -> dict:
    """Spans as arrays, with each span's self time (duration less children)."""
    names = np.array([s[0] for s in spans], dtype=object)
    start = np.array([s[1] for s in spans], dtype=np.float64)
    end = np.array([s[2] for s in spans], dtype=np.float64)
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    dur = end - start
    child_time = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    by_name: dict[str, list[int]] = {}
    for index, name in enumerate(names):
        by_name.setdefault(name, []).append(index)
    return {
        "names": names,
        "dur": dur,
        "self": dur - child_time,
        "parent": parent,
        "by_name": {k: np.array(v, dtype=np.int64) for k, v in by_name.items()},
    }
