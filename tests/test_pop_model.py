"""Tests for the pointing network: forward semantics, gradients, prediction."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from popref.datagen import PROTEST, Gold
from popref.embeddings import EncodedAct, EncodedSplit
from popref.errors import ConfigError, ContractViolation, NumericError
from popref.numerics import Rng, derive_seed
from popref.embeddings import WorldConfig, build_synthetic_world, encode_split
from popref.datagen import DatasetSpec, generate_splits
from popref.pop_model import (
    CHUNK,
    NONLINEARITIES,
    PopConfig,
    PopParams,
    PopTrainable,
    backward,
    chunk_logits,
    forward,
    gradcheck_pop,
    init_params,
    loss,
    predict,
    predict_batch,
)
import popref
from popref import pipeline_model, pop_model
from popref.harness import report_to_json, run_experiment
from popref.pipeline_model import (
    PipelineConfig,
    Thresholds,
    init_pipeline_params,
    pipeline_predict_batch,
)
from popref.training import ColumnSparse, TrainConfig, train


def _zero_params(config: PopConfig) -> PopParams:
    params = PopParams(
        config=config,
        entity_map=np.zeros((config.d_ent, config.d_cand)),
        query_map=np.zeros((config.d_ent, config.d_query)),
        sensor_in=np.zeros((config.n_sensors, 2)),
        sensor_out=np.zeros((1, config.n_sensors)),
    )
    if config.use_bias:
        params.entity_bias = np.zeros(config.d_ent)
        params.query_bias = np.zeros(config.d_ent)
        params.sensor_in_bias = np.zeros(config.n_sensors)
        params.sensor_out_bias = np.zeros(1)
    return params


def _scalar_params(sensor_in, sensor_out, n_sensors=2) -> PopParams:
    """1-D maps that pass values through: sims become the raw candidate values."""
    config = PopConfig(d_query=1, d_cand=1, d_ent=1, n_sensors=n_sensors)
    return PopParams(
        config=config,
        entity_map=np.array([[1.0]]),
        query_map=np.array([[1.0]]),
        sensor_in=np.asarray(sensor_in, dtype=np.float64),
        sensor_out=np.asarray(sensor_out, dtype=np.float64),
    )


def _act(query, candidates, gold=None, act_id="t-0") -> EncodedAct:
    return EncodedAct(
        query_vec=np.asarray(query, dtype=np.float64),
        candidates=np.array(candidates, dtype=np.float64),
        gold=gold or Gold.point(0),
        act_id=act_id,
    )


def _forward(params, act):
    """:func:`forward` over a hand-made act."""
    return forward(params, act.query_vec, act.candidates, act.act_id)


# ---------------------------------------------------------------------------
# Configuration and parameters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d_query": 0, "d_cand": 2},
        {"d_query": 2, "d_cand": 0},
        {"d_query": 2, "d_cand": 2, "d_ent": 0},
        {"d_query": 2, "d_cand": 2, "n_sensors": 0},
        {"d_query": 2, "d_cand": 2, "contrast": "swish"},
        {"d_query": 2, "d_cand": 2, "score_squash": "softplus"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        PopConfig(**kwargs).validate()


def test_init_params_shapes_and_determinism():
    config = PopConfig(d_query=3, d_cand=4, d_ent=5, n_sensors=6)
    params = init_params(config, Rng(1))
    assert params.entity_map.shape == (5, 4)
    assert params.query_map.shape == (5, 3)
    assert params.sensor_in.shape == (6, 2)
    assert params.sensor_out.shape == (1, 6)
    assert params.entity_bias is None
    again = init_params(config, Rng(1))
    for name, arr in params.named_arrays().items():
        np.testing.assert_array_equal(arr, again.named_arrays()[name])


# sha256 of trpop's initial arrays on the default object-only world (one-hot
# queries over 200 objects, 64-float image candidates), concatenated in table
# order as little-endian float64; recorded from the per-draw Glorot draw.
TRPOP_INIT_SHA256 = {
    1: "1ab6d22ea3ebeab0d09d67538e3fcf8571b12347e2ef16bcf2585b379e9cec9b",
    7919: "9d47084aacb975cfac0aeb09b9bb1d2968adae234f8b03c8d7ff7bad961f88bd",
}


@pytest.mark.parametrize("seed", sorted(TRPOP_INIT_SHA256))
def test_trpop_initial_params_are_pinned(seed):
    params = init_params(PopConfig(d_query=200, d_cand=64),
                         Rng(derive_seed(seed, "init", "trpop")))
    digest = hashlib.sha256()
    for arr in params.named_arrays().values():
        digest.update(arr.astype("<f8").tobytes())
    assert digest.hexdigest() == TRPOP_INIT_SHA256[seed]


def test_init_params_biases_start_at_zero():
    config = PopConfig(d_query=2, d_cand=2, d_ent=3, n_sensors=2, use_bias=True)
    params = init_params(config, Rng(0))
    np.testing.assert_array_equal(params.entity_bias, np.zeros(3))
    np.testing.assert_array_equal(params.sensor_out_bias, np.zeros(1))
    assert set(params.named_arrays()) == {
        "entity_map", "query_map", "sensor_in", "sensor_out",
        "entity_bias", "query_bias", "sensor_in_bias", "sensor_out_bias",
    }


def test_params_validate_catches_shape_and_nonfinite():
    config = PopConfig(d_query=2, d_cand=2, d_ent=3, n_sensors=2)
    params = init_params(config, Rng(0))
    params.validate()
    params.sensor_out = np.zeros((2, 2))
    with pytest.raises(ContractViolation):
        params.validate()
    params = init_params(config, Rng(0))
    params.entity_map[0, 0] = np.nan
    with pytest.raises(ContractViolation):
        params.validate()


def test_params_copy_is_deep():
    config = PopConfig(d_query=2, d_cand=2, d_ent=3, n_sensors=2)
    params = init_params(config, Rng(0))
    clone = params.copy()
    clone.entity_map[0, 0] += 1.0
    assert params.entity_map[0, 0] != clone.entity_map[0, 0]


# ---------------------------------------------------------------------------
# Forward-pass semantics
# ---------------------------------------------------------------------------


def test_zero_params_forward_oracle():
    """With every parameter at zero the output is fully hand-computable."""
    config = PopConfig(d_query=2, d_cand=2, d_ent=3, n_sensors=2)
    params = _zero_params(config)
    act = _act([0.3, -0.7], [[1.0, 2.0], [0.5, -0.5], [3.0, 0.0]])
    trace = _forward(params, act)

    np.testing.assert_array_equal(trace.sims, np.zeros(3))
    assert trace.anomaly_score == pytest.approx(0.5)
    np.testing.assert_allclose(trace.logits, [0.0, 0.0, 0.0, 0.5])

    z = 3.0 + math.exp(0.5)
    expected = np.array([1.0, 1.0, 1.0, math.exp(0.5)]) / z
    np.testing.assert_allclose(trace.probs, expected, rtol=1e-12)
    np.testing.assert_allclose(
        trace.probs, [0.215113, 0.215113, 0.215113, 0.354661], atol=1e-6
    )

    assert loss(trace, 0) == pytest.approx(math.log(z))
    assert loss(trace, 3) == pytest.approx(math.log(z) - 0.5)  # the protest cell


def test_scalar_toy_trace_every_stage():
    """1-D maps expose each stage of the anomaly pathway to hand computation."""
    params = _scalar_params(sensor_in=[[1.0, 0.0], [0.0, 1.0]], sensor_out=[[1.0, 1.0]])
    act = _act([1.0], [[2.0], [6.0], [0.0]])
    trace = _forward(params, act)

    np.testing.assert_allclose(trace.sims, [2.0, 6.0, 0.0])
    np.testing.assert_allclose(trace.sharpened, [2.0, 6.0, 0.0])
    assert trace.cum_sim == pytest.approx(8.0)
    assert trace.cardinality == 3.0
    np.testing.assert_allclose(trace.sensor_pre, [8.0, 3.0])
    np.testing.assert_allclose(trace.sensors, [8.0, 3.0])
    assert trace.anomaly_raw == pytest.approx(11.0)
    sig11 = 1.0 / (1.0 + math.exp(-11.0))
    assert trace.anomaly_score == pytest.approx(sig11, rel=1e-12)

    exps = [math.exp(v) for v in (2.0, 6.0, 0.0, sig11)]
    np.testing.assert_allclose(trace.probs, np.array(exps) / sum(exps), rtol=1e-12)
    assert loss(trace, 1) == pytest.approx(
        math.log(sum(exps)) - 6.0, rel=1e-12
    )


def test_contrast_sharpening_zeroes_negative_sims():
    params = _scalar_params(sensor_in=[[1.0, 0.0], [0.0, 1.0]], sensor_out=[[1.0, 1.0]])
    act = _act([1.0], [[-3.0], [5.0]])
    trace = _forward(params, act)
    np.testing.assert_allclose(trace.sims, [-3.0, 5.0])
    np.testing.assert_allclose(trace.sharpened, [0.0, 5.0])
    assert trace.cum_sim == pytest.approx(5.0)


def test_sensor_nonlinearity_toggle():
    act = _act([1.0], [[2.0], [6.0], [0.0]])
    base = _scalar_params(sensor_in=[[-1.0, 0.0], [0.0, 1.0]], sensor_out=[[1.0, 1.0]])
    with_nl = _forward(base, act)
    np.testing.assert_allclose(with_nl.sensor_pre, [-8.0, 3.0])
    np.testing.assert_allclose(with_nl.sensors, [0.0, 3.0])

    linear = PopParams(
        config=PopConfig(d_query=1, d_cand=1, d_ent=1, n_sensors=2,
                         sensor_nonlinearity=False),
        entity_map=base.entity_map,
        query_map=base.query_map,
        sensor_in=base.sensor_in,
        sensor_out=base.sensor_out,
    )
    without_nl = _forward(linear, act)
    np.testing.assert_allclose(without_nl.sensors, [-8.0, 3.0])
    assert without_nl.anomaly_raw == pytest.approx(-5.0)


def _direct_trace(params, act):
    """Recompute the forward pass from the layer formulas, independently."""
    cfg = params.config
    contrast, _ = NONLINEARITIES[cfg.contrast]
    squash, _ = NONLINEARITIES[cfg.score_squash]
    C = act.candidates
    ent = C @ params.entity_map.T
    q = params.query_map @ np.asarray(act.query_vec)
    if cfg.use_bias:
        ent = ent + params.entity_bias
        q = q + params.query_bias
    sims = ent @ q
    pooled = np.array([contrast(sims).sum(), float(len(act.candidates))])
    pre = params.sensor_in @ pooled
    if cfg.use_bias:
        pre = pre + params.sensor_in_bias
    cells = contrast(pre) if cfg.sensor_nonlinearity else pre
    raw = float((params.sensor_out @ cells)[0])
    if cfg.use_bias:
        raw += float(params.sensor_out_bias[0])
    score = float(squash(raw))
    logits = np.concatenate([sims, [score]])
    exps = np.exp(logits - logits.max())
    return sims, score, logits, exps / exps.sum()


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("sensor_nl", [False, True])
@pytest.mark.parametrize("contrast", ["relu", "tanh"])
def test_forward_matches_direct_recomputation(use_bias, sensor_nl, contrast):
    rng = Rng(314)
    config = PopConfig(
        d_query=3, d_cand=4, d_ent=5, n_sensors=3,
        contrast=contrast, sensor_nonlinearity=sensor_nl, use_bias=use_bias,
    )
    for _ in range(10):
        params = init_params(config, rng.fork())
        if use_bias:
            params.entity_bias = rng.normals(5, sigma=0.1)
            params.query_bias = rng.normals(5, sigma=0.1)
            params.sensor_in_bias = rng.normals(3, sigma=0.1)
            params.sensor_out_bias = rng.normals(1, sigma=0.1)
        n = 2 + rng.randrange(4)
        act = _act(rng.normals(3), [rng.normals(4) for _ in range(n)])
        trace = _forward(params, act)
        sims, score, logits, probs = _direct_trace(params, act)
        np.testing.assert_allclose(trace.sims, sims, rtol=1e-12)
        assert trace.anomaly_score == pytest.approx(score, rel=1e-12)
        np.testing.assert_allclose(trace.logits, logits, rtol=1e-12)
        np.testing.assert_allclose(trace.probs, probs, rtol=1e-10)


def test_trainable_rejects_wrong_dimensions():
    config = PopConfig(d_query=2, d_cand=3, d_ent=2, n_sensors=2)
    params = _zero_params(config)
    with pytest.raises(ContractViolation, match="act 't-0'"):
        PopTrainable(params, EncodedSplit.of([_act([1.0], [[1.0, 2.0, 3.0]])]))
    with pytest.raises(ContractViolation, match="act 't-0'"):
        PopTrainable(params, EncodedSplit.of([_act([1.0, 2.0], [[1.0, 2.0]])]))


def test_split_rejects_an_empty_or_flat_lineup():
    empty = EncodedAct(query_vec=np.ones(2), candidates=np.zeros((0, 3)),
                       gold=Gold.miss())
    with pytest.raises(ContractViolation, match="lineup"):
        EncodedSplit.of([empty])
    flat = EncodedAct(query_vec=np.ones(2), candidates=np.ones(3), gold=Gold.miss())
    with pytest.raises(ContractViolation, match="lineup"):
        EncodedSplit.of([flat])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_logits_raise_instead_of_pointing(bad):
    params = init_params(PopConfig(d_query=2, d_cand=3, d_ent=4, n_sensors=2), Rng(1))
    act = _act([1.0, -1.0], [[1.0, 0.0, 0.5], [bad, 0.0, 1.0]], act_id="t-nan")
    with pytest.raises(NumericError, match="t-nan"):
        predict(params, act)


def test_variable_length_with_one_parameter_set():
    config = PopConfig(d_query=3, d_cand=4, d_ent=6, n_sensors=4)
    params = init_params(config, Rng(5))
    rng = Rng(6)
    for n in range(2, 9):
        act = _act(rng.normals(3), [rng.normals(4) for _ in range(n)])
        trace = _forward(params, act)
        assert trace.logits.shape == (n + 1,)
        assert trace.probs.shape == (n + 1,)
        assert trace.probs.sum() == pytest.approx(1.0)


def test_forward_probs_against_direct_computation():
    # Zero sensors give a protest score of sigmoid(0) = 0.5.
    params = _scalar_params(sensor_in=np.zeros((2, 2)), sensor_out=np.zeros((1, 2)))
    trace = _forward(params, _act([1.0], [[2.0], [6.0], [0.0]]))
    np.testing.assert_array_equal(trace.logits, [2.0, 6.0, 0.0, 0.5])
    exps = [math.exp(x) for x in trace.logits]
    np.testing.assert_allclose(trace.probs, np.array(exps) / sum(exps), rtol=1e-12)
    assert trace.probs.sum() == pytest.approx(1.0)
    assert trace.log_norm == pytest.approx(math.log(sum(exps)), rel=1e-12)


def test_forward_probs_shift_invariance_and_stability():
    # 1-D maps, identity contrast and squash, and one linear sensor weighing
    # cum_sim by 1/4: the logits are four candidate values and their mean,
    # so shifting every candidate shifts every logit.
    params = PopParams(
        config=PopConfig(d_query=1, d_cand=1, d_ent=1, n_sensors=1,
                         contrast="identity", score_squash="identity",
                         sensor_nonlinearity=False),
        entity_map=np.array([[1.0]]),
        query_map=np.array([[1.0]]),
        sensor_in=np.array([[0.25, 0.0]]),
        sensor_out=np.array([[1.0]]),
    )
    values = np.array([0.3, -1.2, 2.2, 0.5])
    base = _forward(params, _act([1.0], values[:, np.newaxis]))
    shifted = _forward(params, _act([1.0], values[:, np.newaxis] + 100.0))
    np.testing.assert_allclose(shifted.logits, base.logits + 100.0, rtol=1e-12)
    np.testing.assert_allclose(shifted.probs, base.probs, rtol=1e-12)

    big = _forward(params, _act([1.0], [[1000.0]] * 4))
    np.testing.assert_array_equal(big.logits, [1000.0] * 5)
    np.testing.assert_allclose(big.probs, [0.2] * 5)
    assert loss(big, 4) == pytest.approx(math.log(5.0))


def test_loss_is_the_max_shifted_logsumexp_bit_for_bit():
    rng = Rng(4242)
    config = PopConfig(d_query=3, d_cand=4, d_ent=5, n_sensors=3)
    for _ in range(20):
        params = init_params(config, rng.fork())
        n = 2 + rng.randrange(4)
        trace = _forward(params, _act(rng.normals(3, sigma=5.0),
                                     [rng.normals(4) for _ in range(n)]))
        top = float(np.max(trace.logits))
        log_norm = top + math.log(float(np.exp(trace.logits - top).sum()))
        for target in (0, n - 1, n):
            assert loss(trace, target) == log_norm - float(trace.logits[target])


# ---------------------------------------------------------------------------
# Permutation equivariance
# ---------------------------------------------------------------------------


def test_permutation_equivariance():
    rng = Rng(2718)
    config = PopConfig(d_query=3, d_cand=4, d_ent=5, n_sensors=3)
    for _ in range(100):
        params = init_params(config, rng.fork())
        n = 2 + rng.randrange(4)
        query = rng.normals(3)
        candidates = [rng.normals(4) for _ in range(n)]
        perm = rng.sample(range(n), n)

        base = _forward(params, _act(query, candidates))
        moved = _forward(params, _act(query, [candidates[p] for p in perm]))

        np.testing.assert_allclose(moved.sims, base.sims[perm], atol=1e-9)
        assert moved.anomaly_score == pytest.approx(base.anomaly_score, abs=1e-9)
        np.testing.assert_allclose(moved.probs[:n], base.probs[perm], atol=1e-9)
        assert moved.probs[n] == pytest.approx(base.probs[n], abs=1e-9)

        base_pred = predict(params, _act(query, candidates))
        moved_pred = predict(params, _act(query, [candidates[p] for p in perm]))
        if base_pred == PROTEST:
            assert moved_pred == PROTEST
        else:
            assert perm[moved_pred] == base_pred


def test_permutation_invariant_loss():
    rng = Rng(99)
    config = PopConfig(d_query=2, d_cand=3, d_ent=4, n_sensors=2)
    params = init_params(config, rng.fork())
    query = rng.normals(2)
    candidates = [rng.normals(3) for _ in range(4)]
    perm = [2, 0, 3, 1]
    base = loss(_forward(params, _act(query, candidates)), 2)
    moved = loss(
        _forward(params, _act(query, [candidates[p] for p in perm])),
        perm.index(2),
    )
    assert moved == pytest.approx(base, abs=1e-9)
    base_miss = loss(_forward(params, _act(query, candidates)), 4)
    moved_miss = loss(
        _forward(params, _act(query, [candidates[p] for p in perm])), 4
    )
    assert moved_miss == pytest.approx(base_miss, abs=1e-9)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def test_predict_points_at_best_candidate():
    params = _scalar_params(sensor_in=np.zeros((2, 2)), sensor_out=np.zeros((1, 2)))
    assert predict(params, _act([1.0], [[2.0], [6.0], [0.0]])) == 1


def test_predict_protests_when_all_sims_low():
    params = _scalar_params(sensor_in=np.zeros((2, 2)), sensor_out=np.zeros((1, 2)))
    assert predict(params, _act([1.0], [[-1.0], [-2.0]])) == PROTEST


def test_predict_breaks_ties_toward_lowest_index():
    params = _scalar_params(sensor_in=np.zeros((2, 2)), sensor_out=np.zeros((1, 2)))
    assert predict(params, _act([1.0], [[2.0], [2.0]])) == 0
    # Zero sensors score sigmoid(0) = 0.5: a tie with the best candidate
    # points, since the protest cell comes last.
    assert predict(params, _act([1.0], [[0.5], [0.2]])) == 0
    choices = predict_batch(params, EncodedSplit.of([_act([1.0], [[0.2], [0.5001]]),
                                                     _act([1.0], [[0.2], [0.4999]])]))
    assert choices.tolist() == [1, PROTEST]


# ---------------------------------------------------------------------------
# Batched inference against the per-act forward pass
# ---------------------------------------------------------------------------

_PAIRS = [(c, q) for c in NONLINEARITIES for q in NONLINEARITIES]
_SPLIT_SIZES = (1, 31, 32, 33, 65)


def _random_split(rng: Rng, config: PopConfig, size: int, query_kind: str):
    acts = []
    for i in range(size):
        if query_kind == "dense":
            query = rng.normals(config.d_query)
        else:
            query = np.zeros(config.d_query)
            hot = 1 if query_kind == "one-hot" else 2
            query[rng.sample(range(config.d_query), hot)] = 1.0
        n = 1 + rng.randrange(6)  # lengths mix within every chunk
        acts.append(_act(query, [rng.normals(config.d_cand) for _ in range(n)],
                         act_id=f"b-{i}"))
    return EncodedSplit.of(acts)


def _reference_choice(trace) -> int:
    """The argmax over forward's output distribution, as a choice."""
    best = int(np.argmax(trace.probs))
    n = trace.sims.shape[0]
    return PROTEST if best == n else best


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("query_kind", ["dense", "one-hot", "two-hot"])
def test_batch_path_matches_forward(use_bias, query_kind):
    rng = Rng(4242 + 7 * use_bias + len(query_kind))
    for trial, (contrast, squash) in enumerate(_PAIRS):
        config = PopConfig(d_query=3 + rng.randrange(4), d_cand=2 + rng.randrange(4),
                           d_ent=2 + rng.randrange(5), n_sensors=1 + rng.randrange(4),
                           contrast=contrast, score_squash=squash,
                           sensor_nonlinearity=bool(rng.randrange(2)),
                           use_bias=use_bias)
        params = init_params(config, rng.fork())
        for array in params.named_arrays().values():
            array += rng.normals(array.size).reshape(array.shape) * 0.5
        acts = _random_split(rng, config, _SPLIT_SIZES[trial % len(_SPLIT_SIZES)],
                             query_kind)
        traces = [_forward(params, act) for act in acts]

        sims, scores, lengths = chunk_logits(params, acts)
        assert lengths.tolist() == [len(act.candidates) for act in acts]
        np.testing.assert_allclose(sims, np.concatenate([t.sims for t in traces]),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(scores, [t.anomaly_score for t in traces],
                                   rtol=0, atol=1e-9)
        expected = [_reference_choice(t) for t in traces]
        choices = predict_batch(params, acts)
        assert choices.dtype == np.intp and choices.tolist() == expected
        assert [predict(params, act) for act in acts] == expected


_TOY_WORLD = {"world.n_classes": "12", "world.images_per_class": "3",
              "world.n_attributes": "10", "world.d_img": "16", "world.d_word": "8",
              "world.attrs_per_object": "4", "world.seed": "5"}
_TOY_RUNS = {
    "pop": {"task": "object-only", "model.d_ent": "12", "model.n_sensors": "5"},
    "trpop": {"task": "object-only", "model.d_ent": "12", "model.n_sensors": "5"},
    "pipeline": {"task": "object-attr", "model.d_shared": "10"},
}
# One toy manifest per model: every stage runs in well under a second.
_TOY_MANIFESTS = {
    model: {**_TOY_WORLD, **settings, "model": model, "data.n_train": "40",
            "data.n_val": "140", "data.n_test": "150", "train.epochs": "1"}
    for model, settings in _TOY_RUNS.items()
}


def test_batch_path_splits_into_chunks_of_CHUNK_acts(monkeypatch):
    assert CHUNK == 64
    config = PopConfig(d_query=3, d_cand=4, d_ent=5, n_sensors=3, use_bias=True)
    params = init_params(config, Rng(11))
    acts = _random_split(Rng(12), config, 2 * CHUNK + 1, "dense")
    whole = predict_batch(params, acts).tolist()
    assert len(whole) == len(acts)
    assert whole == [c for lo in range(0, len(acts), 7)
                     for c in predict_batch(params, acts[lo:lo + 7]).tolist()]
    empty = predict_batch(params, EncodedSplit.of([]))
    assert empty.dtype == np.intp and empty.shape == (0,)

    # Predictions, the protest probe, tuned thresholds and every report byte
    # are the same at any chunk size.
    pipe_config = PipelineConfig(d_query=3, d_cand=4, d_shared=5)
    pipe_params = init_pipeline_params(pipe_config, Rng(13))
    pipe_acts = _random_split(Rng(14), PopConfig(d_query=3, d_cand=4),
                              2 * CHUNK + 1, "dense")
    thresholds = Thresholds(min_similarity=-0.2, min_gap=0.05)
    outcomes = []
    for size in (1, 7, CHUNK):
        monkeypatch.setattr(pop_model, "CHUNK", size)
        monkeypatch.setattr(pipeline_model, "CHUNK", size)
        reports = {model: report_to_json(run_experiment(manifest))
                   for model, manifest in _TOY_MANIFESTS.items()}
        outcomes.append((predict_batch(params, acts).tolist(), reports,
                         pipeline_predict_batch(pipe_params, thresholds,
                                                pipe_acts).tolist()))
    assert outcomes[0][0] == whole
    assert all('"status": "ok"' in report for report in outcomes[0][1].values())
    assert {c == PROTEST for c in outcomes[0][2]} == {True, False}
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


_RUN_TOYS = """
import json, sys
from popref.harness import run_experiment
for model, manifest in json.loads(sys.argv[2]).items():
    run_experiment(manifest, out_dir=f"{sys.argv[1]}/{model}")
"""


def test_blas_threads_do_not_move_a_report(tmp_path):
    path = [str(Path(popref.__file__).resolve().parents[1])]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(path)}
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", _RUN_TOYS, str(out),
                        json.dumps(_TOY_MANIFESTS)], env=env, check=True, timeout=120)
        reports.append({model: (out / model / "report.json").read_bytes()
                        for model in _TOY_MANIFESTS})
    assert all(b'"status": "ok"' in report for report in reports[0].values())
    assert reports[1] == reports[0]


def _bad_acts():
    good = [1.0, 2.0, 3.0]
    return {
        "empty": (ContractViolation, EncodedAct(query_vec=np.ones(2),
                                                candidates=np.zeros((0, 3)),
                                                gold=Gold.miss(), act_id="bad")),
        "query-dim": (ContractViolation, _act([1.0, 2.0, 3.0], [good], act_id="bad")),
        "candidate-dim": (ContractViolation, _act([1.0, 2.0], [[1.0, 2.0]], act_id="bad")),
        "nan": (NumericError, _act([1.0, 2.0], [good, [math.nan, 0.0, 1.0]], act_id="bad")),
        "inf": (NumericError, _act([math.inf, 2.0], [good], act_id="bad")),
    }


@pytest.mark.parametrize("kind", sorted(_bad_acts()))
def test_batch_path_names_a_bad_act_mid_chunk(kind):
    error, bad = _bad_acts()[kind]
    params = init_params(PopConfig(d_query=2, d_cand=3, d_ent=4, n_sensors=2), Rng(1))
    rng = Rng(2)
    acts = [_act(rng.normals(2), [rng.normals(3) for _ in range(2 + i % 3)],
                 act_id=f"good-{i}") for i in range(CHUNK + 8)]
    acts[CHUNK + 3] = bad  # the middle of the second chunk
    with pytest.raises(error, match="act 'bad'"):
        predict_batch(params, EncodedSplit.of(acts))
    # The training step: checked once per split, or named by forward.
    with pytest.raises(error, match="act 'bad'"), np.errstate(invalid="ignore"):
        train(PopTrainable(params, EncodedSplit.of([bad])), TrainConfig(epochs=1))


@pytest.mark.parametrize("task", ["object-only", "object-attr"])
@pytest.mark.parametrize("normalize_blocks", [False, True])
def test_hot_query_slice_equals_the_dense_product_bit_for_bit(task, normalize_blocks):
    world = build_synthetic_world(WorldConfig(), 0)
    acts = generate_splits(world, DatasetSpec(n_train=60, n_val=0, n_test=0, seed=3),
                           task)["train"]
    encoded = encode_split(world, acts, "one-hot", normalize_blocks)
    assert {int(np.count_nonzero(e.query_vec)) for e in encoded} == \
        {1 if task == "object-only" else 2}
    config = PopConfig(d_query=encoded.d_query, d_cand=encoded.d_cand)
    rng = Rng(17)
    for _ in range(5):
        params = init_params(config, rng.fork())
        params.query_map *= 1.0 + 9.0 * rng.random()
        for act in encoded:
            trace = _forward(params, act)
            assert trace.query_cols.size < trace.query_in.size
            assert np.array_equal(trace.query_vec, params.query_map @ trace.query_in)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_gradcheck_random_configurations():
    report = gradcheck_pop(trials=20)
    assert report.passed, report.failures
    assert report.trials == 20
    assert report.max_rel_error < report.tolerance
    assert report.failures == []


def test_gradcheck_covers_every_nonlinearity_pair_and_query_kind():
    # 48 trials cycle 16 (contrast, squash) pairs x dense/one-hot/two-hot.
    report = gradcheck_pop(trials=48, seed=4242)
    assert report.passed, report.failures
    assert report.max_rel_error < 1e-6


@pytest.mark.parametrize("hot", [[3], [1, 4]])
def test_hot_query_gradient_is_column_sparse_and_exact(hot):
    config = PopConfig(d_query=6, d_cand=3, d_ent=4, n_sensors=2, use_bias=True)
    params = init_params(config, Rng(8))
    query = np.zeros(6)
    query[hot] = 1.0
    rng = Rng(9)
    act = _act(query, [rng.normals(3) for _ in range(3)], gold=Gold.point(2))
    trace = _forward(params, act)
    grads = backward(params, trace, 2)
    sparse = grads["query_map"]
    assert isinstance(sparse, ColumnSparse)
    np.testing.assert_array_equal(sparse.cols, hot)
    # query_bias's gradient is dquery_vec itself.
    dense = np.outer(grads["query_bias"], trace.query_in)
    assert np.array_equal(sparse.toarray(), dense)
    assert np.array_equal(np.asarray(sparse), dense)
    assert (sparse.shape, sparse.ndim, sparse.size) == \
        (dense.shape, dense.ndim, dense.size)
    np.testing.assert_array_equal(sparse.any(axis=0), dense.any(axis=0))


def test_dense_query_gradient_stays_dense():
    params = init_params(PopConfig(d_query=2, d_cand=3, d_ent=4, n_sensors=2), Rng(2))
    act = _act([0.5, -1.5], [[1.0, 0.0, 0.5], [0.2, 0.3, 1.0]])
    grads = backward(params, _forward(params, act), 0)
    assert type(grads["query_map"]) is np.ndarray


def test_gradcheck_is_deterministic():
    a = gradcheck_pop(trials=5, seed=777)
    b = gradcheck_pop(trials=5, seed=777)
    assert a.max_rel_error == b.max_rel_error


def test_backward_grad_shapes_match_arrays():
    config = PopConfig(d_query=2, d_cand=3, d_ent=4, n_sensors=2, use_bias=True)
    params = init_params(config, Rng(3))
    act = _act(Rng(4).normals(2), [Rng(5).normals(3) for _ in range(3)],
               gold=Gold.point(1))
    trace = _forward(params, act)
    grads = backward(params, trace, 1)
    arrays = params.named_arrays()
    assert set(grads) == set(arrays)
    for name in arrays:
        assert grads[name].shape == arrays[name].shape


def test_trainable_adapter_reports_loss_and_ids():
    config = PopConfig(d_query=2, d_cand=2, d_ent=3, n_sensors=2)
    act = _act([0.5, -0.5], [[1.0, 0.0], [0.0, 1.0]], gold=Gold.point(0),
               act_id="train-000042")
    trainable = PopTrainable(init_params(config, Rng(1)), EncodedSplit.of([act]))
    assert len(trainable) == 1
    value, grads = trainable.loss_and_grads(0)
    assert math.isfinite(value)
    assert value > 0.0
    assert set(grads) == set(trainable.parameter_arrays())
    assert trainable.example_id(0) == "train-000042"
