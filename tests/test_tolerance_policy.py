"""The tolerance policy: training may round differently, within 1e-10.

``pop_model.forward`` runs the network in its reassociated, batched form,
``sims = C @ (entity_map.T @ query_vec)``, and ``backward`` follows it, so a
training step sums in another order than the per-act pass first written.
That pass is kept verbatim below as the exact-order reference (its trace
class renamed), the way ``test_column_momentum`` keeps the flat-buffer
trainer.  On the seed-1 ``pop`` and ``trpop`` bench train splits (the
manifests ``test_reference_bytes`` pins), every act's loss and every
gradient must be within ``rel_error`` 1e-10 of the reference, at the
initial weights and again after one epoch of training.

Inference keeps its bits; only training rounds differently.  The pins in
``test_reference_bytes`` hold the bytes this order gives.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from popref.datagen import generate_splits
from popref.embeddings import build_synthetic_world, encode_split
from popref.errors import NumericError
from popref.harness import (
    DEFAULT_EPOCHS,
    build_dataset_spec,
    build_inputs,
    build_model,
    build_train_config,
)
from popref.numerics import Rng, derive_seed, outer, rel_error
from popref.pop_model import NONLINEARITIES, PopParams, PopTrainable, init_params
from popref.training import ColumnSparse, train
from test_reference_bytes import MANIFESTS, SEED

TOLERANCE = 1e-10


@dataclass
class ExactOrderTrace:
    """Every intermediate of one forward pass, cached for exact backprop."""

    query_in: np.ndarray
    query_cols: np.ndarray | None  # an indicator query's columns; None if dense
    candidates_in: np.ndarray  # n x d_cand
    entity_vecs: np.ndarray    # n x d_ent
    query_vec: np.ndarray
    sims: np.ndarray
    sharpened: np.ndarray
    cum_sim: float
    cardinality: float
    sensor_pre: np.ndarray
    sensors: np.ndarray
    anomaly_raw: float
    anomaly_score: float
    logits: np.ndarray
    probs: np.ndarray
    log_norm: float            # log of the softmax normaliser, logsumexp(logits)


def exact_order_forward(params: PopParams, query_in: np.ndarray, candidates: np.ndarray,
                        act_id: str = "<unnamed>",
                        query_cols: np.ndarray | None = None) -> ExactOrderTrace:
    """Run the network over one act's query and n x d_cand candidates, of
    dimensions the caller checked; returns the full trace.  Given the
    columns where a 0/1 query is 1, it reads only those query-map columns."""
    cfg = params.config
    n = candidates.shape[0]

    entity_vecs = candidates @ params.entity_map.T
    if query_cols is None:
        query_vec = params.query_map @ query_in
    else:
        query_vec = params.query_map[:, query_cols] @ query_in[query_cols]
    if cfg.use_bias:
        entity_vecs = entity_vecs + params.entity_bias
        query_vec = query_vec + params.query_bias

    sims = entity_vecs @ query_vec

    contrast, _ = NONLINEARITIES[cfg.contrast]
    squash, _ = NONLINEARITIES[cfg.score_squash]

    sharpened = contrast(sims)
    cum_sim = float(sharpened.sum())
    cardinality = float(n)
    pooled = np.array([cum_sim, cardinality])

    sensor_pre = params.sensor_in @ pooled
    if cfg.use_bias:
        sensor_pre = sensor_pre + params.sensor_in_bias
    sensors = contrast(sensor_pre) if cfg.sensor_nonlinearity else sensor_pre.copy()

    anomaly_raw = float((params.sensor_out @ sensors)[0])
    if cfg.use_bias:
        anomaly_raw += float(params.sensor_out_bias[0])
    anomaly_score = float(squash(anomaly_raw))

    # A saturated squash can hide a non-finite raw score, which backward
    # would turn into NaN updates.
    if not math.isfinite(anomaly_raw):
        raise NumericError(f"act {act_id!r}: non-finite anomaly score {anomaly_raw}")
    logits = np.concatenate([sims, [anomaly_score]])
    if not np.isfinite(logits).all():
        raise NumericError(f"act {act_id!r}: non-finite logits {logits}")
    # Softmax and its log-normaliser from one max-shifted exp.
    top = logits.max()
    exps = np.exp(logits - top)
    total = exps.sum()
    return ExactOrderTrace(
        query_in=query_in,
        query_cols=query_cols,
        candidates_in=candidates,
        entity_vecs=entity_vecs,
        query_vec=query_vec,
        sims=sims,
        sharpened=sharpened,
        cum_sim=cum_sim,
        cardinality=cardinality,
        sensor_pre=sensor_pre,
        sensors=sensors,
        anomaly_raw=anomaly_raw,
        anomaly_score=anomaly_score,
        logits=logits,
        probs=exps / total,
        log_norm=float(top) + math.log(float(total)),
    )


def exact_order_backward(params: PopParams, trace: ExactOrderTrace,
                         target: int) -> dict[str, np.ndarray]:
    """Exact gradient of :func:`loss` for every learned array.

    The query-map gradient is ``outer(dquery_vec, query_in)``.  When
    :func:`forward` was given the query's columns it comes as a
    :class:`ColumnSparse` over them; every other gradient is a dense array.

    The chain runs softmax -> logits, then splits: the protest logit descends
    through the score squash, the sensor combiner, the sensor bank, and the
    pooled pair into the sharpened profile, while the pointing logits reach
    the similarity profile directly.  Both contributions are summed at the
    profile before flowing into the entity and query maps.
    """
    cfg = params.config
    n = trace.sims.shape[0]

    _, dcontrast = NONLINEARITIES[cfg.contrast]
    _, dsquash = NONLINEARITIES[cfg.score_squash]

    dlogits = trace.probs.copy()
    dlogits[target] -= 1.0

    # Anomaly pathway.
    danomaly_score = float(dlogits[n])
    danomaly_raw = danomaly_score * float(dsquash(trace.anomaly_raw))
    d_sensor_out = danomaly_raw * trace.sensors[np.newaxis, :]
    dsensors = danomaly_raw * params.sensor_out[0]
    if cfg.sensor_nonlinearity:
        dsensor_pre = dsensors * dcontrast(trace.sensor_pre)
    else:
        dsensor_pre = dsensors
    pooled = np.array([trace.cum_sim, trace.cardinality])
    d_sensor_in = outer(dsensor_pre, pooled)
    dcum_sim = float(dsensor_pre @ params.sensor_in[:, 0])
    dsims_via_anomaly = dcum_sim * dcontrast(trace.sims)

    # Both paths meet at the similarity profile.
    dsims = dlogits[:n] + dsims_via_anomaly

    dquery_vec = trace.entity_vecs.T @ dsims
    dentity_vecs = outer(dsims, trace.query_vec)

    query_in, cols = trace.query_in, trace.query_cols
    if cols is None:
        dquery_map = outer(dquery_vec, query_in)
    else:
        dquery_map = ColumnSparse(cols, outer(dquery_vec, query_in[cols]),
                                  query_in.size)

    grads = {
        "entity_map": dentity_vecs.T @ trace.candidates_in,
        "query_map": dquery_map,
        "sensor_in": d_sensor_in,
        "sensor_out": d_sensor_out,
    }
    if cfg.use_bias:
        grads["entity_bias"] = dentity_vecs.sum(axis=0)
        grads["query_bias"] = dquery_vec
        grads["sensor_in_bias"] = dsensor_pre
        grads["sensor_out_bias"] = np.array([danomaly_raw])
    return grads


def _worst_errors(trainable: PopTrainable, hot: bool) -> dict[str, float]:
    """The largest ``rel_error`` against the exact order over every act of
    the trainable's split, for the loss and for each gradient; ``hot`` says
    whether the split's queries are 0/1, read by their columns."""
    params, split = trainable.params, trainable.split
    worst: dict[str, float] = {}
    for i in range(len(trainable)):
        value, grads = trainable.loss_and_grads(i)
        act = split[i]
        target = int(split.gold_cells[i])
        trace = exact_order_forward(params, act.query_vec, act.candidates, act.act_id,
                                    np.flatnonzero(act.query_vec) if hot else None)
        errors = {"loss": rel_error(value, trace.log_norm - trace.logits[target])}
        for name, grad in exact_order_backward(params, trace, target).items():
            assert type(grads[name]) is type(grad), name
            errors[name] = rel_error(np.asarray(grads[name]), np.asarray(grad))
        for name, error in errors.items():
            worst[name] = max(worst.get(name, 0.0), error)
    return worst


@pytest.mark.parametrize("workload", ["pop-objonly", "trpop-objonly"])
def test_training_is_within_the_tolerance_of_the_exact_order(workload):
    manifest = dict(MANIFESTS[workload])
    for key in ("world.seed", "data.seed", "train.seed"):
        manifest[key] = str(SEED)
    model = manifest["model"]
    inputs = build_inputs(manifest, model, manifest["task"])
    # Each split draws from its own child seed, so the train split alone is
    # the bench's train split.
    spec = dataclasses.replace(build_dataset_spec(manifest), n_val=0, n_test=0)
    world = build_synthetic_world(inputs.world_config, inputs.world_seed)
    split = encode_split(world, generate_splits(world, spec, inputs.task)["train"],
                         inputs.encoding, inputs.normalize_blocks)
    config = build_model(manifest, model, split.d_query, split.d_cand)
    train_config = build_train_config(manifest, DEFAULT_EPOCHS[model])
    trainable = PopTrainable(
        init_params(config, Rng(derive_seed(train_config.seed, "init", model))), split)
    hot = model == "trpop"  # one-hot queries

    initial = _worst_errors(trainable, hot)
    train(trainable, dataclasses.replace(train_config, epochs=1))
    trained = _worst_errors(trainable, hot)
    for stage, worst in (("initial", initial), ("after one epoch", trained)):
        assert set(worst) == {"loss", *trainable.parameter_arrays()}
        assert max(worst.values()) <= TOLERANCE, (stage, worst)
