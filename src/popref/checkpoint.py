"""Exact save/load of trained parameters in a self-describing JSON container.

One format serves every model kind; records are tagged so loaders can
dispatch.  Arrays are stored as nested lists of Python floats: JSON emits
each float via its shortest round-tripping decimal representation, so a
save/load cycle reproduces every entry bit for bit.  The container also
carries whatever context is needed to re-run evaluation from the file alone:
the run's :class:`~popref.embeddings.Inputs` (its ``extra``) and the tuned
thresholds.

:data:`MODELS` maps each kind to its config and params classes; one record
body and one restore body serve them all, and the arrays are whatever the
params class's ``shapes`` table names.
"""

import json
from dataclasses import asdict

import numpy as np

from .embeddings import Inputs
from .errors import ParseError, checked
from .pipeline_model import PipelineConfig, PipelineParams, Thresholds
from .pop_model import PopConfig, PopParams

# kind -> (config class, params class)
MODELS = {
    "pop": (PopConfig, PopParams),
    "trpop": (PopConfig, PopParams),
    "pipeline": (PipelineConfig, PipelineParams),
}
ALL_KINDS = tuple(MODELS)


def _check_kind(kind, params_cls) -> None:
    kinds = [k for k, (_, cls) in MODELS.items() if cls is params_cls]
    if kind not in kinds:
        raise ParseError(f"expected a {' or '.join(kinds)} checkpoint, got {kind!r}")


def _record(kind: str, params, extra: dict | None,
            thresholds: Thresholds | None = None) -> dict:
    _check_kind(kind, type(params))
    record = {
        "kind": kind,
        "config": asdict(params.config),
        "arrays": {name: arr.tolist() for name, arr in params.named_arrays().items()},
        "extra": extra or {},
    }
    if thresholds is not None:
        record["thresholds"] = asdict(thresholds)
    return record


def pop_record(params: PopParams, kind: str = "pop", extra: dict | None = None) -> dict:
    return _record(kind, params, extra)


def pipeline_record(
    params: PipelineParams,
    thresholds: Thresholds | None = None,
    extra: dict | None = None,
) -> dict:
    return _record("pipeline", params, extra, thresholds)


def save_checkpoint(record: dict, path) -> None:
    if record.get("kind") not in ALL_KINDS:
        raise ParseError(f"checkpoint kind must be one of {ALL_KINDS}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid checkpoint JSON: {exc.msg}") from None
    if not isinstance(record, dict) or record.get("kind") not in ALL_KINDS:
        raise ParseError(
            f"checkpoint must be an object tagged with kind in {ALL_KINDS}"
        )
    for key in ("config", "arrays"):
        if key not in record:
            raise ParseError(f"checkpoint missing {key!r}")
    unknown = sorted(set(record) - {"kind", "config", "arrays", "extra", "thresholds"})
    if unknown:
        raise ParseError(f"checkpoint has unknown keys {unknown}")
    return record


def _validated(cls, record: dict, key: str):
    """``record[key]`` checked into config class ``cls`` and validated; an
    absent key is a :class:`ParseError`."""
    value = checked(cls, record.get(key), f"checkpoint {key}")
    value.validate()
    return value


def _restore(record: dict):
    """(params, thresholds or None) of a loaded record of a checked kind."""
    config_cls, params_cls = MODELS[record["kind"]]
    config = _validated(config_cls, record, "config")
    shapes, stored = params_cls.shapes(config), record["arrays"]
    if not isinstance(stored, dict):
        raise ParseError(f"checkpoint arrays must be an object, got {stored!r:.40}")
    if stored.keys() != shapes.keys():
        raise ParseError(f"checkpoint arrays {sorted(stored)} are not the "
                         f"{sorted(shapes)} of its config's model")
    arrays = {}
    for name in shapes:
        try:
            arrays[name] = np.array(stored[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise ParseError(f"checkpoint array {name!r} is not numeric") from None
    params = params_cls(config=config, **arrays)
    params.validate()
    thresholds = None
    if "thresholds" in record:
        thresholds = _validated(Thresholds, record, "thresholds")
    return params, thresholds


def restore_inputs(record: dict) -> Inputs:
    """The :class:`~popref.embeddings.Inputs` a record's ``extra`` carries,
    checked like ``config``: every field is required."""
    return _validated(Inputs, record, "extra")


def restore_pop(record: dict) -> PopParams:
    _check_kind(record["kind"], PopParams)
    return _restore(record)[0]


def restore_pipeline(record: dict) -> tuple[PipelineParams, Thresholds | None]:
    _check_kind(record["kind"], PipelineParams)
    return _restore(record)
