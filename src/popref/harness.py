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
from dataclasses import dataclass, field

from .checkpoint import MODELS, pipeline_record, pop_record, save_checkpoint
from .datagen import (
    ANOMALY,
    MISS,
    MULT,
    POINT,
    DatasetSpec,
    dataset_stats,
    generate_splits,
)
from .embeddings import WorldConfig, build_synthetic_world, encode_act
from .errors import ConfigError, ParseError
from .numerics import Rng, derive_seed
from .pipeline_model import (
    PipelineConfig,
    PipelineParams,
    Thresholds,
    pipeline_predict,
    train_pipeline,
    tune_thresholds,
)
from .pop_model import PopConfig, PopParams, PopTrainable, init_params, predict
from .training import TrainConfig, TrainLog, train

GOLD_CATEGORIES = (POINT, MISS, MULT)
PREDICTED_BUCKETS = ("point_correct", "point_wrong", "protest")

# Fixed per-model pass counts; the pointing network's one-hot variant needs
# more than twice as many passes to learn word forms from scratch.
DEFAULT_EPOCHS = {"pop": 14, "trpop": 36, "pipeline": 10}

MODEL_KINDS = tuple(MODELS)
TASKS = ("object-only", "object-attr")


@dataclass
class CategoryCount:
    correct: int = 0
    n: int = 0

    @property
    def percentage(self) -> float | None:
        return None if self.n == 0 else 100.0 * self.correct / self.n


@dataclass
class Metrics:
    """Itemized accuracies with raw counts and the full confusion table."""

    counts: dict[str, CategoryCount] = field(
        default_factory=lambda: {cat: CategoryCount() for cat in GOLD_CATEGORIES}
    )
    confusion: dict[str, dict[str, int]] = field(
        default_factory=lambda: {
            cat: {bucket: 0 for bucket in PREDICTED_BUCKETS}
            for cat in GOLD_CATEGORIES
        }
    )

    @property
    def n_total(self) -> int:
        return sum(c.n for c in self.counts.values())

    @property
    def total(self) -> float | None:
        n = self.n_total
        if n == 0:
            return None
        return 100.0 * sum(c.correct for c in self.counts.values()) / n

    @property
    def pointing(self) -> float | None:
        return self.counts[POINT].percentage

    @property
    def missref(self) -> float | None:
        return self.counts[MISS].percentage

    @property
    def multref(self) -> float | None:
        return self.counts[MULT].percentage

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "pointing": self.pointing,
            "missref": self.missref,
            "multref": self.multref,
            "counts": {
                cat: {"correct": c.correct, "n": c.n}
                for cat, c in self.counts.items()
            },
            "confusion": {cat: dict(row) for cat, row in self.confusion.items()},
        }

    def to_text(self) -> str:
        def fmt(value: float | None) -> str:
            return "--" if value is None else f"{value:.1f}"

        lines = [
            "        Total  Pointing  MissRef  MultRef",
            f"acc %   {fmt(self.total):>5}  {fmt(self.pointing):>8}  "
            f"{fmt(self.missref):>7}  {fmt(self.multref):>7}",
            f"n       {self.n_total:>5}  {self.counts[POINT].n:>8}  "
            f"{self.counts[MISS].n:>7}  {self.counts[MULT].n:>7}",
        ]
        return "\n".join(lines)


def evaluate(predictor, acts) -> Metrics:
    """Score a predictor (a callable act -> Prediction) over gold-bearing acts.

    A prediction is correct iff it points at the gold index, or protests on
    an anomalous act.  The result is independent of act order.
    """
    metrics = Metrics()
    for act in acts:
        gold = act.gold
        category = POINT if gold.kind == POINT else gold.anomaly_kind
        prediction = predictor(act)
        if prediction.is_protest:
            correct = gold.kind == ANOMALY
            metrics.confusion[category]["protest"] += 1
        else:
            correct = gold.kind == POINT and prediction.index == gold.index
            bucket = "point_correct" if correct else "point_wrong"
            metrics.confusion[category][bucket] += 1
        cell = metrics.counts[category]
        cell.n += 1
        cell.correct += int(correct)
    return metrics


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


_WORLD_KEYS = {
    "world.n_classes": ("n_classes", _as_int),
    "world.images_per_class": ("images_per_class", _as_int),
    "world.n_attributes": ("n_attributes", _as_int),
    "world.d_img": ("d_img", _as_int),
    "world.d_word": ("d_word", _as_int),
    "world.sigma": ("sigma", _as_float),
    "world.sigma_word": ("sigma_word", _as_float),
    "world.attrs_per_object": ("attrs_per_object", _as_int),
}

_DATA_KEYS = {
    "data.min_len": ("min_len", _as_int),
    "data.max_len": ("max_len", _as_int),
    "data.p_miss": ("p_miss", _as_float),
    "data.p_mult": ("p_mult", _as_float),
    "data.n_train": ("n_train", _as_int),
    "data.n_val": ("n_val", _as_int),
    "data.n_test": ("n_test", _as_int),
    "data.seed": ("seed", _as_int),
}

_TRAIN_KEYS = {
    "train.lr0": ("lr0", _as_float),
    "train.momentum": ("momentum", _as_float),
    "train.decay": ("decay", _as_float),
    "train.epochs": ("epochs", _as_int),
    "train.seed": ("seed", _as_int),
    "train.shuffle_each_epoch": ("shuffle_each_epoch", _as_bool),
}

def _as_str(value: str, key: str) -> str:
    return value


_POP_KEYS = {
    "model.d_ent": ("d_ent", _as_int),
    "model.n_sensors": ("n_sensors", _as_int),
    "model.contrast": ("contrast", _as_str),
    "model.score_squash": ("score_squash", _as_str),
    "model.sensor_nonlinearity": ("sensor_nonlinearity", _as_bool),
    "model.use_bias": ("use_bias", _as_bool),
}

_PIPELINE_KEYS = {
    "model.d_shared": ("d_shared", _as_int),
    "model.margin": ("margin", _as_float),
}

_OTHER_KEYS = {
    "task", "model", "world.seed", "encoding.normalize_blocks",
    "diagnostic.val_sample",
}

KNOWN_MANIFEST_KEYS = (
    set(_WORLD_KEYS) | set(_DATA_KEYS) | set(_TRAIN_KEYS) | set(_POP_KEYS)
    | set(_PIPELINE_KEYS) | _OTHER_KEYS
)


def validate_manifest_keys(manifest: dict[str, str]) -> None:
    unknown = sorted(set(manifest) - KNOWN_MANIFEST_KEYS)
    if unknown:
        raise ConfigError(f"unknown manifest keys: {', '.join(unknown)}")


def _build_from(manifest: dict[str, str], table: dict, cls, **fixed):
    fields_ = dict(fixed)
    for key, (name, caster) in table.items():
        if key in manifest:
            fields_[name] = caster(manifest[key], key)
    return cls(**fields_)


def build_world_config(manifest: dict[str, str]) -> tuple[WorldConfig, int]:
    config = _build_from(manifest, _WORLD_KEYS, WorldConfig)
    seed = _as_int(manifest.get("world.seed", "0"), "world.seed")
    return config, seed


def build_dataset_spec(manifest: dict[str, str]) -> DatasetSpec:
    return _build_from(manifest, _DATA_KEYS, DatasetSpec)


def build_train_config(manifest: dict[str, str], default_epochs: int) -> TrainConfig:
    config = _build_from(manifest, _TRAIN_KEYS, TrainConfig)
    if "train.epochs" not in manifest:
        config = TrainConfig(**{**config.to_dict(), "epochs": default_epochs})
    return config


def build_encoding(manifest: dict[str, str], model: str) -> tuple[str, bool]:
    """(encoding mode, normalize_blocks): one-hot inputs for ``trpop`` only."""
    normalize_blocks = _as_bool(
        manifest.get("encoding.normalize_blocks", "false"),
        "encoding.normalize_blocks",
    )
    return ("one-hot" if model == "trpop" else "dense"), normalize_blocks


def build_model(manifest: dict[str, str], model: str, d_query: int,
                d_cand: int) -> PopConfig | PipelineConfig:
    """The validated config of ``model`` over the given input dims, from the
    manifest's ``model.*`` keys (absent keys take the config defaults)."""
    if model == "pipeline":
        config = _build_from(manifest, _PIPELINE_KEYS, PipelineConfig,
                             d_query=d_query, d_cand=d_cand)
    else:
        config = _build_from(manifest, _POP_KEYS, PopConfig,
                             d_query=d_query, d_cand=d_cand)
    config.validate()
    return config


def infer_task(acts) -> str:
    return "object-attr" if acts[0].query.attribute is not None else "object-only"


def encode_split(world, acts, mode: str, normalize_blocks: bool = False,
                 allow_unknown: bool = False):
    return [
        encode_act(act, world, mode, allow_unknown=allow_unknown,
                   normalize_blocks=normalize_blocks)
        for act in acts
    ]


def _protest_rate(params, acts) -> float:
    protests = sum(1 for act in acts if predict(params, act).is_protest)
    return protests / len(acts) if acts else 0.0


@dataclass
class Fitted:
    """A trained model, its loss log, and the ``extra`` its checkpoint carries."""

    model: str
    params: PopParams | PipelineParams
    log: TrainLog
    extra: dict
    protest_rates: list[float] = field(default_factory=list)

    def record(self, thresholds: Thresholds | None = None) -> dict:
        if self.model == "pipeline":
            return pipeline_record(self.params, thresholds, extra=self.extra)
        return pop_record(self.params, kind=self.model, extra=self.extra)


def fit(manifest: dict[str, str], model: str, config, encoded_train, task: str,
        probe=()) -> Fitted:
    """Initialise ``model`` from its config (see :func:`build_model`) and
    train it on the encoded acts under the manifest's ``train.*`` settings.

    The pointing networks draw their initial weights from
    ``derive_seed(train.seed, "init", model)``; the pipeline's come from
    ``"pipeline-init"`` inside :func:`train_pipeline`.  With ``probe`` set, a
    pointing network's protest rate on those acts is recorded after every
    epoch: a cheap view of the bounded anomaly score competing against
    unbounded similarities early in training.
    """
    train_config = build_train_config(manifest, DEFAULT_EPOCHS[model])
    world_config, world_seed = build_world_config(manifest)
    mode, normalize_blocks = build_encoding(manifest, model)
    extra = {
        "task": task,
        "encoding": mode,
        "normalize_blocks": normalize_blocks,
        "world_config": world_config.to_dict(),
        "world_seed": world_seed,
    }
    if model == "pipeline":
        params, log = train_pipeline(encoded_train, config, train_config)
        return Fitted(model, params, log, extra)

    params = init_params(
        config, Rng(derive_seed(train_config.seed, "init", model))
    )
    protest_rates: list[float] = []

    def on_epoch(epoch: int, mean_loss: float, trainable) -> None:
        if probe:
            protest_rates.append(_protest_rate(trainable.params, probe))

    log = train(PopTrainable(params), encoded_train, train_config,
                epoch_callback=on_epoch)
    return Fitted(model, params, log, extra, protest_rates)


def run_experiment(manifest: dict[str, str], out_dir=None) -> dict:
    """Drive one full experiment from a manifest; returns the report dict.

    Stages: world -> data -> encode -> init -> train -> tune (pipeline only)
    -> evaluate -> report.  Any stage failure produces a partial report with
    ``status: failed`` and the failing stage named.  With ``out_dir`` set,
    writes ``report.json`` (deterministic bytes), ``meta.json`` (timestamp),
    and ``checkpoint.json``.
    """
    report: dict = {"status": "ok"}
    checkpoint = None
    stage = "manifest"
    try:
        validate_manifest_keys(manifest)
        task = manifest.get("task", "object-only")
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
        model = manifest.get("model", "pop")
        if model not in MODEL_KINDS:
            raise ConfigError(
                f"unknown model {model!r}; expected one of {MODEL_KINDS}"
            )
        world_config, world_seed = build_world_config(manifest)
        spec = build_dataset_spec(manifest)
        train_config = build_train_config(manifest, DEFAULT_EPOCHS[model])
        mode, normalize_blocks = build_encoding(manifest, model)
        val_sample = _as_int(
            manifest.get("diagnostic.val_sample", "500"), "diagnostic.val_sample"
        )
        report["manifest"] = dict(manifest)
        report["task"] = task
        report["model"] = model
        report["world"] = {"config": world_config.to_dict(), "seed": world_seed}
        report["data"] = spec.to_dict()
        report["train"] = {"config": train_config.to_dict()}

        stage = "world"
        world = build_synthetic_world(world_config, world_seed)

        stage = "data"
        splits = generate_splits(world, spec, task)
        report["dataset_stats"] = dataset_stats(
            splits["train"], splits["test"]
        ).to_dict()

        stage = "encode"
        report["encoding"] = mode
        encoded = {
            name: encode_split(world, acts, mode, normalize_blocks)
            for name, acts in splits.items()
        }
        sample = encoded["train"][0] if encoded["train"] else encoded["test"][0]

        stage = "init"
        config = build_model(manifest, model, sample.query_vec.size,
                             sample.candidate_vecs[0].size)

        stage = "train"
        probe = encoded["val"][:val_sample] if val_sample > 0 else []
        fitted = fit(manifest, model, config, encoded["train"], task, probe)
        params = fitted.params
        report["train"].update(
            {"epoch_losses": fitted.log.epoch_losses,
             "updates": fitted.log.updates}
        )
        thresholds = None
        if model == "pipeline":
            stage = "tune"
            thresholds = tune_thresholds(params, encoded["val"])
            report["thresholds"] = thresholds.to_dict()
            stage = "evaluate"
            metrics = evaluate(
                lambda act: pipeline_predict(params, thresholds, act),
                encoded["test"],
            )
        else:
            if probe:
                report["diagnostics"] = {"val_protest_rate": fitted.protest_rates}
            stage = "evaluate"
            metrics = evaluate(lambda act: predict(params, act), encoded["test"])
        checkpoint = fitted.record(thresholds)

        stage = "report"
        report["metrics"] = metrics.to_dict()
    except Exception as exc:  # noqa: BLE001 - partial reports name the stage
        report["status"] = "failed"
        report["stage"] = stage
        report["error"] = f"{type(exc).__name__}: {exc}"

    if out_dir is not None:
        write_report_bundle(report, out_dir, checkpoint)
    return report


def report_to_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, no timestamps."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def write_report_bundle(report: dict, out_dir, checkpoint: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))
    meta = {"timestamp": datetime.datetime.now().isoformat()}
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    if checkpoint is not None:
        save_checkpoint(checkpoint, os.path.join(out_dir, "checkpoint.json"))
