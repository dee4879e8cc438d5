"""Evaluation metrics, manifest parsing, and end-to-end experiment runs.

Accuracy is itemized by gold category: successful acts (Pointing), missing-
referent anomalies (MissRef), and multiple-referent anomalies (MultRef),
with Total as the count-weighted aggregate — plus a full confusion table of
gold category against predicted outcome.  Percentages are stored at full
precision and rounded only for display; a category absent from the test set
reports None rather than a fake zero.

An experiment manifest is a flat key-value file (dotted keys, ``key =
value`` lines).  :func:`run_experiment` drives world construction, dataset
generation, encoding, training, threshold tuning (pipeline only), and
evaluation from the manifest alone; identical manifests reproduce reports
byte-identically, with timestamps quarantined in a separate metadata file.
:func:`build_model` and :func:`fit` are its path from settings to a trained
model, shared with the CLI's ``train`` and the image-shuffle control.
"""

import datetime
import json
import math
import os
import traceback
import typing
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .checkpoint import MODELS, pipeline_record, pop_record, save_checkpoint
from .datagen import (
    GENERATORS,
    GOLD_CATEGORIES,
    MISS,
    MULT,
    POINT,
    PROTEST,
    DatasetSpec,
    dataset_stats,
    generate_splits,
    gold_arrays,
    scored,
)
from .embeddings import EncodedSplit, Inputs, WorldConfig, build_synthetic_world, encode_split
from .errors import ConfigError, ContractViolation, ParseError, PopRefError
from .numerics import Rng, derive_seed
from .pipeline_model import (
    PipelineConfig,
    PipelineParams,
    Thresholds,
    pipeline_predict_batch,
    train_pipeline,
    tune_thresholds,
)
from .pop_model import PopConfig, PopParams, PopTrainable, init_params, predict_batch
from .training import TrainConfig, TrainLog, train

PREDICTED_BUCKETS = ("point_correct", "point_wrong", "protest")

# Fixed per-model pass counts; the pointing network's one-hot variant needs
# more than twice as many passes to learn word forms from scratch.
DEFAULT_EPOCHS = {"pop": 14, "trpop": 36, "pipeline": 10}

MODEL_KINDS = tuple(MODELS)
TASKS = tuple(GENERATORS)


def _percentage(correct: int, n: int) -> float | None:
    return None if n == 0 else 100.0 * correct / n


@dataclass
class Metrics:
    """Itemized accuracies, all read off one confusion table: gold category
    -> predicted bucket -> acts.  A point is in ``point_correct`` only at
    the gold index, so an anomaly's right answers are its protests."""

    confusion: dict[str, dict[str, int]] = field(default_factory=lambda: {
        cat: dict.fromkeys(PREDICTED_BUCKETS, 0) for cat in GOLD_CATEGORIES})

    @property
    def counts(self) -> dict[str, dict[str, int]]:
        """Per gold category: right answers and acts."""
        return {
            cat: {"correct": row["point_correct"] + (row["protest"] if cat != POINT else 0),
                  "n": sum(row.values())}
            for cat, row in self.confusion.items()
        }

    @property
    def n_total(self) -> int:
        return sum(c["n"] for c in self.counts.values())

    @property
    def total(self) -> float | None:
        return _percentage(sum(c["correct"] for c in self.counts.values()), self.n_total)

    @property
    def pointing(self) -> float | None:
        return _percentage(**self.counts[POINT])

    @property
    def missref(self) -> float | None:
        return _percentage(**self.counts[MISS])

    @property
    def multref(self) -> float | None:
        return _percentage(**self.counts[MULT])

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "pointing": self.pointing,
            "missref": self.missref,
            "multref": self.multref,
            "counts": self.counts,
            "confusion": {cat: dict(row) for cat, row in self.confusion.items()},
        }

    def to_text(self) -> str:
        def fmt(value: float | None) -> str:
            return "--" if value is None else f"{value:.1f}"

        n = {cat: count["n"] for cat, count in self.counts.items()}
        lines = [
            "        Total  Pointing  MissRef  MultRef",
            f"acc %   {fmt(self.total):>5}  {fmt(self.pointing):>8}  "
            f"{fmt(self.missref):>7}  {fmt(self.multref):>7}",
            f"n       {self.n_total:>5}  {n[POINT]:>8}  {n[MISS]:>7}  {n[MULT]:>7}",
        ]
        return "\n".join(lines)


def evaluate(predict_acts, acts) -> Metrics:
    """Score a batch predictor over gold-bearing acts (a split or a list).

    ``predict_acts`` maps ``acts`` to an int array of choices, one per act:
    the index of the candidate it points at, or
    :data:`~popref.datagen.PROTEST`.  It is called here, so the time it
    takes is the evaluation's (wrap a one-act predictor with
    :func:`per_act`).  Each answer is scored by
    :func:`~popref.datagen.scored` and tallied into one confusion table.
    The result is independent of act order.
    """
    if isinstance(acts, EncodedSplit):
        right, rows = acts.gold_arrays
    else:
        acts = list(acts)
        right, rows = gold_arrays([act.gold for act in acts])
    choices = np.asarray(predict_acts(acts))
    if choices.shape != (len(acts),):
        raise ContractViolation(
            f"a predictor gave answers of shape {choices.shape} for {len(acts)} acts")
    # Columns in PREDICTED_BUCKETS order: point_correct, point_wrong, protest.
    columns = np.where(choices == PROTEST, 2, np.where(scored(choices, right), 0, 1))
    table = np.bincount(3 * rows + columns, minlength=9).reshape(3, 3).tolist()
    return Metrics({cat: dict(zip(PREDICTED_BUCKETS, row))
                    for cat, row in zip(GOLD_CATEGORIES, table)})


def per_act(predictor):
    """The batch form of a one-act predictor (act -> choice), for
    :func:`evaluate`."""
    return lambda acts: np.fromiter(map(predictor, acts), np.intp, len(acts))


def parse_kv_file(path) -> dict[str, str]:
    """Read a flat ``key = value`` config file ('#' starts a comment)."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", line=lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError("empty key", line=lineno)
            if key in out:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            out[key] = value
    return out


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")


def _as_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from None


def _as_float(value: str, key: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
    return number


# A config field's type picks the caster of its manifest value.
_CASTERS = {int: _as_int, float: _as_float, bool: _as_bool,
            str: lambda value, key: value}


def _settings(section: str, cls) -> dict[str, tuple[str, Callable]]:
    """``section.field`` -> (field, caster) for every field of config class
    ``cls`` that has a default.  A field without one (``d_query``,
    ``d_cand``) comes from the data, never from a manifest key."""
    types = typing.get_type_hints(cls)
    table = {}
    for f in fields(cls):
        kind = types[f.name]
        if kind not in _CASTERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no manifest caster for {kind!r}")
        if f.default is not MISSING:
            table[f"{section}.{f.name}"] = (f.name, _CASTERS[kind])
    return table


KNOWN_MANIFEST_KEYS = {
    "task", "model", "world.seed", "encoding.normalize_blocks",
    "diagnostic.val_sample",
}.union(_settings("world", WorldConfig), _settings("data", DatasetSpec),
        _settings("train", TrainConfig),
        *(_settings("model", config_cls) for config_cls, _ in MODELS.values()))


def validate_manifest_keys(manifest: dict[str, str]) -> None:
    unknown = sorted(set(manifest) - KNOWN_MANIFEST_KEYS)
    if unknown:
        raise ConfigError(f"unknown manifest keys: {', '.join(unknown)}")


def _build_from(manifest: dict[str, str], section: str, cls, **fixed):
    """``cls`` from the manifest's ``section.*`` keys.  ``fixed`` supplies
    the fields without a default or replaces a default; a key present in the
    manifest overrides it."""
    values = dict(fixed)
    for key, (name, caster) in _settings(section, cls).items():
        if key in manifest:
            values[name] = caster(manifest[key], key)
    return cls(**values)


def build_world_config(manifest: dict[str, str]) -> tuple[WorldConfig, int]:
    config = _build_from(manifest, "world", WorldConfig)
    seed = _as_int(manifest.get("world.seed", "0"), "world.seed")
    return config, seed


def build_dataset_spec(manifest: dict[str, str]) -> DatasetSpec:
    return _build_from(manifest, "data", DatasetSpec)


def build_train_config(manifest: dict[str, str], default_epochs: int) -> TrainConfig:
    return _build_from(manifest, "train", TrainConfig, epochs=default_epochs)


def build_inputs(manifest: dict[str, str], model: str, task: str) -> Inputs:
    """The validated inputs of a ``model`` run on ``task``: the manifest's
    ``world.*`` and ``encoding.normalize_blocks`` keys, and one-hot inputs
    for ``trpop`` only."""
    world_config, world_seed = build_world_config(manifest)
    inputs = Inputs(
        task=task,
        encoding="one-hot" if model == "trpop" else "dense",
        normalize_blocks=_as_bool(
            manifest.get("encoding.normalize_blocks", "false"),
            "encoding.normalize_blocks",
        ),
        world_config=world_config,
        world_seed=world_seed,
    )
    inputs.validate()
    return inputs


def build_model(manifest: dict[str, str], model: str, d_query: int,
                d_cand: int) -> PopConfig | PipelineConfig:
    """The validated config of ``model`` over the given input dims, from the
    manifest's ``model.*`` keys (absent keys take the config defaults; a key
    of another model is a :class:`ConfigError`)."""
    config_cls = MODELS[model][0]
    foreign = sorted({key for key in manifest if key.startswith("model.")}
                     - set(_settings("model", config_cls)))
    if foreign:
        raise ConfigError(f"manifest keys {', '.join(foreign)} are not settings "
                          f"of model {model!r}")
    config = _build_from(manifest, "model", config_cls,
                         d_query=d_query, d_cand=d_cand)
    config.validate()
    return config


def infer_task(acts) -> str:
    return "object-attr" if acts[0].query.attribute is not None else "object-only"


def _protest_rate(params, acts) -> float:
    protests = np.count_nonzero(predict_batch(params, acts) == PROTEST)
    return protests / len(acts) if acts else 0.0


@dataclass
class Fitted:
    """A trained model, its loss log, and the inputs it was trained on (its
    checkpoint's ``extra``)."""

    model: str
    params: PopParams | PipelineParams
    log: TrainLog
    inputs: Inputs
    protest_rates: list[float] = field(default_factory=list)

    def record(self, thresholds: Thresholds | None = None) -> dict:
        extra = asdict(self.inputs)
        if self.model == "pipeline":
            return pipeline_record(self.params, thresholds, extra=extra)
        return pop_record(self.params, kind=self.model, extra=extra)


def fit(manifest: dict[str, str], model: str, config, encoded_train,
        inputs: Inputs, probe=()) -> Fitted:
    """Initialise ``model`` from its config (see :func:`build_model`) and
    train it on the acts encoded as ``inputs`` says (see
    :func:`build_inputs`), under the manifest's ``train.*`` settings.

    The pointing networks draw their initial weights from
    ``derive_seed(train.seed, "init", model)``; the pipeline's come from
    ``"pipeline-init"`` inside :func:`train_pipeline`.  With ``probe`` set, a
    pointing network's protest rate on those acts is recorded after every
    epoch: a cheap view of the bounded anomaly score competing against
    unbounded similarities early in training.
    """
    train_config = build_train_config(manifest, DEFAULT_EPOCHS[model])
    if model == "pipeline":
        params, log = train_pipeline(encoded_train, config, train_config)
        return Fitted(model, params, log, inputs)

    params = init_params(
        config, Rng(derive_seed(train_config.seed, "init", model))
    )
    protest_rates: list[float] = []

    def on_epoch(epoch: int, mean_loss: float, trainable) -> None:
        if probe:
            protest_rates.append(_protest_rate(trainable.params, probe))

    log = train(PopTrainable(params, encoded_train), train_config,
                epoch_callback=on_epoch)
    return Fitted(model, params, log, inputs, protest_rates)


def run_experiment(manifest: dict[str, str], out_dir=None) -> dict:
    """Drive one full experiment from a manifest; returns the report dict.

    Stages: world -> data -> encode -> init -> train -> tune (pipeline only)
    -> evaluate -> report.  Any stage failure produces a partial report with
    ``status: failed`` and the failing stage named.  With ``out_dir`` set,
    writes ``report.json`` (deterministic bytes), ``meta.json`` (timestamp),
    and ``checkpoint.json``.  A failure that is not a :class:`PopRefError`
    is a programming error, not bad input: ``meta.json`` then also records
    its stage and traceback.
    """
    report: dict = {"status": "ok"}
    checkpoint = None
    meta: dict = {}
    stage = "manifest"
    try:
        validate_manifest_keys(manifest)
        model = manifest.get("model", "pop")
        if model not in MODEL_KINDS:
            raise ConfigError(
                f"unknown model {model!r}; expected one of {MODEL_KINDS}"
            )
        inputs = build_inputs(manifest, model, manifest.get("task", "object-only"))
        spec = build_dataset_spec(manifest)
        for key, count in (("n_train", spec.n_train), ("n_test", spec.n_test)):
            if count < 1:
                raise ConfigError(f"key 'data.{key}': expected >= 1, got {count}")
        if model == "pipeline" and spec.n_val < 1:
            raise ConfigError(f"key 'data.n_val': expected >= 1 for the pipeline, "
                              f"whose thresholds are tuned on it, got {spec.n_val}")
        train_config = build_train_config(manifest, DEFAULT_EPOCHS[model])
        val_sample = _as_int(
            manifest.get("diagnostic.val_sample", "500"), "diagnostic.val_sample"
        )
        if val_sample < 0:
            raise ConfigError(f"key 'diagnostic.val_sample': expected >= 0, got {val_sample}")
        report["manifest"] = dict(manifest)
        report["task"] = inputs.task
        report["model"] = model
        report["world"] = {"config": asdict(inputs.world_config),
                           "seed": inputs.world_seed}
        report["data"] = asdict(spec)
        report["train"] = {"config": asdict(train_config)}

        stage = "world"
        world = build_synthetic_world(inputs.world_config, inputs.world_seed)

        stage = "data"
        splits = generate_splits(world, spec, inputs.task)
        report["dataset_stats"] = asdict(
            dataset_stats(splits["train"], splits["test"])
        )

        stage = "encode"
        report["encoding"] = inputs.encoding
        encoded = {
            name: encode_split(world, acts, inputs.encoding, inputs.normalize_blocks)
            for name, acts in splits.items()
        }
        stage = "init"
        config = build_model(manifest, model, encoded["train"].d_query,
                             encoded["train"].d_cand)

        stage = "train"
        probe = encoded["val"][:val_sample] if val_sample > 0 else []
        fitted = fit(manifest, model, config, encoded["train"], inputs, probe)
        params = fitted.params
        report["train"].update(
            {"epoch_losses": fitted.log.epoch_losses,
             "updates": fitted.log.updates}
        )
        thresholds = None
        if model == "pipeline":
            stage = "tune"
            thresholds = tune_thresholds(params, encoded["val"])
            report["thresholds"] = asdict(thresholds)
            predict_acts = partial(pipeline_predict_batch, params, thresholds)
        else:
            if probe:
                report["diagnostics"] = {"val_protest_rate": fitted.protest_rates}
            predict_acts = partial(predict_batch, params)
        stage = "evaluate"
        metrics = evaluate(predict_acts, encoded["test"])
        checkpoint = fitted.record(thresholds)

        stage = "report"
        report["metrics"] = metrics.to_dict()
    except Exception as exc:  # noqa: BLE001 - partial reports name the stage
        report["status"] = "failed"
        report["stage"] = stage
        report["error"] = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, PopRefError):
            meta = {"stage": stage, "traceback": traceback.format_exc()}

    if out_dir is not None:
        write_report_bundle(report, out_dir, checkpoint, meta)
    return report


def report_to_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, no timestamps."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def write_report_bundle(report: dict, out_dir, checkpoint: dict | None = None,
                        meta: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    meta = {"timestamp": datetime.datetime.now().isoformat(), **(meta or {})}
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    if checkpoint is not None:
        save_checkpoint(checkpoint, os.path.join(out_dir, "checkpoint.json"))
