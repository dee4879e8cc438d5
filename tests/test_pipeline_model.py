"""Tests for the max-margin pipeline: triples, hinge, thresholds, tuning."""

import logging
import math

import numpy as np
import pytest

from popref.datagen import PROTEST, DatasetSpec, Gold, generate_splits
from popref.embeddings import EncodedAct, EncodedSplit, encode_split
from popref.errors import ConfigError, ContractViolation, NumericError
from popref.numerics import Rng
from popref.pipeline_model import (
    GAP_GRID,
    MISS_GRID,
    PipelineConfig,
    PipelineParams,
    PipelineTrainable,
    Thresholds,
    extract_pairs,
    gradcheck_pipeline,
    hinge_grads,
    _cosine,
    init_pipeline_params,
    pipeline_predict,
    pipeline_predict_batch,
    protest_profiles,
    similarity_profile,
    train_pipeline,
    tune_thresholds,
)
from popref.pop_model import CHUNK
from popref.training import TrainConfig, gradcheck


def _identity_params(dim=2, margin=0.5) -> PipelineParams:
    config = PipelineConfig(d_query=dim, d_cand=dim, d_shared=dim, margin=margin)
    return PipelineParams(
        config=config, query_map=np.eye(dim), object_map=np.eye(dim)
    )


def _unit_at(cosine: float) -> np.ndarray:
    """Unit 2-vector whose cosine against [1, 0] equals ``cosine``."""
    return np.array([cosine, math.sqrt(1.0 - cosine * cosine)])


def _act(sims, gold, act_id="p-0") -> EncodedAct:
    """Act whose identity-map similarity profile is exactly ``sims``."""
    return EncodedAct(
        query_vec=np.array([1.0, 0.0]),
        candidates=np.array([_unit_at(s) for s in sims]),
        gold=gold,
        act_id=act_id,
    )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_grids_are_the_documented_lattices():
    assert len(MISS_GRID) == 41
    assert MISS_GRID[0] == -1.0
    assert MISS_GRID[-1] == 1.0
    assert MISS_GRID[22] == pytest.approx(0.1)
    assert len(GAP_GRID) == 51
    assert GAP_GRID[0] == 0.0
    assert GAP_GRID[-1] == 0.5
    assert GAP_GRID[5] == pytest.approx(0.05)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d_query": 0, "d_cand": 2},
        {"d_query": 2, "d_cand": 2, "d_shared": 0},
        {"d_query": 2, "d_cand": 2, "margin": 0.0},
        {"d_query": 2, "d_cand": 2, "margin": -1.0},
    ],
)
def test_pipeline_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        PipelineConfig(**kwargs).validate()


def test_thresholds_validate_cosine_range():
    Thresholds(min_similarity=0.1, min_gap=0.05).validate()
    with pytest.raises(ConfigError):
        Thresholds(min_similarity=1.5, min_gap=0.0).validate()
    with pytest.raises(ConfigError):
        Thresholds(min_similarity=0.0, min_gap=-1.1).validate()


def test_init_pipeline_params_deterministic():
    config = PipelineConfig(d_query=3, d_cand=4, d_shared=5)
    a = init_pipeline_params(config, Rng(2))
    b = init_pipeline_params(config, Rng(2))
    np.testing.assert_array_equal(a.query_map, b.query_map)
    np.testing.assert_array_equal(a.object_map, b.object_map)
    assert a.query_map.shape == (5, 3)
    assert a.object_map.shape == (5, 4)
    a.validate()
    a.object_map = np.zeros((1, 1))
    with pytest.raises(ContractViolation):
        a.validate()


# ---------------------------------------------------------------------------
# Triple extraction
# ---------------------------------------------------------------------------


def test_extract_pairs_from_success_acts_only():
    acts = [
        _act([0.9, 0.1, 0.2], Gold.point(1), "a"),
        _act([0.1, 0.2], Gold.miss(), "b"),
        _act([0.9, 0.9], Gold.mult(), "c"),
        _act([0.8], Gold.point(0), "d"),  # no in-act negatives available
    ]
    split = EncodedSplit.of(acts)
    triples = extract_pairs(split)
    # (act, positive row, negative row): act a's candidates are table rows 0-2.
    assert triples.tolist() == [[0, 1, 0], [0, 1, 2]]
    query, positive, negative0 = (split.queries[0], split.table[1], split.table[0])
    np.testing.assert_array_equal(query, acts[0].query_vec)
    np.testing.assert_array_equal(positive, acts[0].candidates[1])
    np.testing.assert_array_equal(negative0, acts[0].candidates[0])
    np.testing.assert_array_equal(split.table[triples[1, 2]], acts[0].candidates[2])


def test_extract_pairs_match_the_per_act_triples(small_world):
    """An object-only split, whose candidates are rows of the world's image
    table, against triples gathered act by act from its golds."""
    acts = generate_splits(small_world, DatasetSpec(n_train=50, n_val=0, n_test=0,
                                                    seed=4), "object-only")["train"]
    split = encode_split(small_world, acts, "dense")
    expected = [
        [i, split.rows[split.offsets[i] + gold.index], row]
        for i, gold in enumerate(split.golds) if gold.kind == "point"
        for k, row in enumerate(split.rows[split.offsets[i]:split.offsets[i + 1]])
        if k != gold.index
    ]
    assert len(expected) > 50
    assert extract_pairs(split).tolist() == expected


# ---------------------------------------------------------------------------
# Hinge loss and gradients
# ---------------------------------------------------------------------------


def test_hinge_loss_hand_values():
    params = _identity_params()
    query = np.array([1.0, 0.0])
    aligned = np.array([2.0, 0.0])      # cosine 1 regardless of scale
    orthogonal = np.array([0.0, 3.0])   # cosine 0

    # Positive orthogonal, negative aligned: 0.5 - 0 + 1 = 1.5.
    assert hinge_grads(query, orthogonal, aligned, params)[0] == pytest.approx(1.5)
    # Positive aligned, negative orthogonal: max(0, 0.5 - 1 + 0) = 0.
    assert hinge_grads(query, aligned, orthogonal, params)[0] == 0.0
    # Positive equals negative: exactly the margin.
    assert hinge_grads(query, aligned, aligned, params)[0] == pytest.approx(0.5)


def test_cosine_is_scale_invariant():
    params = _identity_params()
    act = _act([0.9, 0.3], Gold.point(0))
    scaled = EncodedAct(
        query_vec=act.query_vec * 7.0,
        candidates=act.candidates * 0.01,
        gold=act.gold,
        act_id=act.act_id,
    )
    np.testing.assert_allclose(
        similarity_profile(params, act),
        similarity_profile(params, scaled),
        atol=1e-12,
    )


def test_zero_norm_cosine_warns_and_returns_zero(caplog):
    params = _identity_params()
    query = np.array([1.0, 0.0])
    zero = np.array([0.0, 0.0])
    aligned = np.array([1.0, 0.0])
    with caplog.at_level(logging.WARNING, logger="popref.pipeline_model"):
        value = hinge_grads(query, zero, aligned, params)[0]
    assert value == pytest.approx(0.5 - 0.0 + 1.0)
    assert any("zero-norm" in r.message for r in caplog.records)


def test_hinge_grads_zero_when_margin_satisfied():
    params = _identity_params()
    query = np.array([1.0, 0.0])
    value, grads = hinge_grads(
        query, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), params
    )
    assert value == 0.0
    assert grads == {}  # a name left out is an exact zero gradient


def test_hinge_grads_match_loss_value():
    rng = Rng(55)
    config = PipelineConfig(d_query=3, d_cand=3, d_shared=4)
    params = init_pipeline_params(config, rng.fork())
    query, positive, negative = rng.normals(3), rng.normals(3), rng.normals(3)
    value, _ = hinge_grads(query, positive, negative, params)

    def cosine(candidate):
        a, b = params.query_map @ query, params.object_map @ candidate
        return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

    assert value == pytest.approx(
        max(0.0, config.margin - cosine(positive) + cosine(negative)))


def test_gradcheck_pipeline():
    report = gradcheck_pipeline(trials=10)
    assert report.passed, report.failures
    assert report.trials == 10
    assert report.max_rel_error < report.tolerance


def test_gradcheck_reads_a_left_out_gradient_as_zero():
    """Cosines 0.7 and -0.7 leave the margin of 0.5 a slack of 0.9: the hinge
    is flat all around, its gradient dict is empty, and the finite
    differences read exactly the zeros that gradcheck fills in."""
    act = _act([0.7, -0.7], Gold.point(0))
    trainable = PipelineTrainable(_identity_params(), EncodedSplit.of([act]))
    assert trainable.loss_and_grads(0) == (0.0, {})
    report = gradcheck(lambda trial: (trainable, ""), trials=1)
    assert report.passed, report.failures
    assert report.max_rel_error == 0.0


# ---------------------------------------------------------------------------
# Prediction rules
# ---------------------------------------------------------------------------


def test_predict_floor_rule():
    params = _identity_params()
    act = _act([0.05, 0.08], Gold.miss())
    pred = pipeline_predict(
        params, Thresholds(min_similarity=0.1, min_gap=0.0), act
    )
    assert pred == PROTEST


def test_predict_gap_rule():
    params = _identity_params()
    act = _act([0.90, 0.88], Gold.mult())
    pred = pipeline_predict(
        params, Thresholds(min_similarity=0.1, min_gap=0.05), act
    )
    assert pred == PROTEST


def test_predict_points_when_clear():
    params = _identity_params()
    act = _act([0.90, 0.30], Gold.point(0))
    pred = pipeline_predict(
        params, Thresholds(min_similarity=0.1, min_gap=0.05), act
    )
    assert pred != PROTEST
    assert pred == 0


def test_predict_boundaries_are_strict():
    params = _identity_params()
    # Max similarity exactly at the floor is NOT below it -> no protest.
    act = _act([0.1, 0.0], Gold.point(0))
    assert pipeline_predict(
        params, Thresholds(min_similarity=0.1, min_gap=0.0), act
    ) != PROTEST
    # Gap exactly at min_gap is NOT below it -> no protest.
    act = _act([0.5, 0.4], Gold.point(0))
    assert pipeline_predict(
        params, Thresholds(min_similarity=0.0, min_gap=0.1), act
    ) != PROTEST


def test_predict_single_candidate_skips_gap_rule():
    params = _identity_params()
    lone = _act([0.9], Gold.point(0))
    pred = pipeline_predict(
        params, Thresholds(min_similarity=0.1, min_gap=0.5), lone
    )
    assert pred != PROTEST
    low = _act([0.05], Gold.miss())
    assert pipeline_predict(
        params, Thresholds(min_similarity=0.1, min_gap=0.5), low
    ) == PROTEST


def test_predict_tie_breaks_toward_lowest_index():
    params = _identity_params()
    act = _act([0.7, 0.7], Gold.point(0))
    pred = pipeline_predict(
        params, Thresholds(min_similarity=0.0, min_gap=0.0), act
    )
    assert pred == 0


def test_raising_thresholds_only_adds_protests():
    params = _identity_params()
    rng = Rng(31)
    acts = [
        _act(sorted([rng.uniform(-0.9, 0.9) for _ in range(3)], reverse=True),
             Gold.point(0), f"m-{i}")
        for i in range(60)
    ]
    for lo, hi in ((0.0, 0.3), (-0.5, 0.5)):
        low_protests = {
            act.act_id
            for act in acts
            if pipeline_predict(params, Thresholds(lo, 0.0), act) == PROTEST
        }
        high_protests = {
            act.act_id
            for act in acts
            if pipeline_predict(params, Thresholds(hi, 0.0), act) == PROTEST
        }
        assert low_protests <= high_protests
    for lo, hi in ((0.0, 0.2), (0.1, 0.4)):
        low_protests = {
            act.act_id
            for act in acts
            if pipeline_predict(params, Thresholds(-1.0, lo), act) == PROTEST
        }
        high_protests = {
            act.act_id
            for act in acts
            if pipeline_predict(params, Thresholds(-1.0, hi), act) == PROTEST
        }
        assert low_protests <= high_protests


# ---------------------------------------------------------------------------
# Threshold tuning
# ---------------------------------------------------------------------------


def test_tuning_with_no_anomalies_keeps_smallest_thresholds():
    params = _identity_params()
    acts = [
        _act([0.9, 0.2, 0.1], Gold.point(0), f"v-{i}") for i in range(20)
    ]
    thresholds = tune_thresholds(params, EncodedSplit.of(acts))
    assert thresholds == Thresholds(min_similarity=-1.0, min_gap=0.0)


def test_tuning_finds_separating_floor():
    params = _identity_params()
    # The gap profiles overlap (0.6 vs 0.7, both beyond the grid), so only
    # the similarity floor can separate the two populations.
    acts = [_act([0.9, 0.3], Gold.point(0), f"s-{i}") for i in range(10)]
    acts += [_act([0.2, -0.5], Gold.miss(), f"m-{i}") for i in range(10)]
    thresholds = tune_thresholds(params, EncodedSplit.of(acts))
    # Any floor in (0.2, 0.9] separates perfectly; the scan keeps the
    # smallest grid value that does, and the gap threshold stays at zero.
    assert thresholds.min_similarity == pytest.approx(0.25)
    assert thresholds.min_gap == 0.0


def test_tuning_finds_separating_gap():
    params = _identity_params()
    acts = [_act([0.9, 0.5], Gold.point(0), f"s-{i}") for i in range(10)]
    acts += [_act([0.9, 0.88], Gold.mult(), f"d-{i}") for i in range(10)]
    thresholds = tune_thresholds(params, EncodedSplit.of(acts))
    assert thresholds.min_similarity == -1.0
    assert thresholds.min_gap == pytest.approx(0.03)


def test_tuning_results_lie_on_the_grids():
    params = _identity_params()
    rng = Rng(17)
    acts = []
    for i in range(30):
        sims = sorted((rng.uniform(-0.8, 0.9) for _ in range(3)), reverse=True)
        gold = Gold.point(0) if i % 3 else Gold.miss()
        acts.append(_act(sims, gold, f"g-{i}"))
    thresholds = tune_thresholds(params, EncodedSplit.of(acts))
    assert thresholds.min_similarity in MISS_GRID
    assert thresholds.min_gap in GAP_GRID


def test_tuning_rejects_empty_validation():
    with pytest.raises(ConfigError):
        tune_thresholds(_identity_params(), EncodedSplit.of([]))


def test_tuning_handles_single_candidate_acts():
    params = _identity_params()
    acts = [_act([0.9], Gold.point(0), "one-0"),
            _act([0.1], Gold.miss(), "one-1")]
    thresholds = tune_thresholds(params, EncodedSplit.of(acts))
    pred = pipeline_predict(params, thresholds, acts[0])
    assert pred != PROTEST
    assert pipeline_predict(params, thresholds, acts[1]) == PROTEST


# ---------------------------------------------------------------------------
# Batched profiles against per-candidate cosines
# ---------------------------------------------------------------------------


def _random_acts(rng, config, size):
    """Acts of 1-7 candidates, so every chunk mixes lengths and lone candidates."""
    return EncodedSplit.of([
        EncodedAct(
            query_vec=rng.normals(config.d_query),
            candidates=np.array([rng.normals(config.d_cand)
                                 for _ in range(1 + rng.randrange(7))]),
            gold=Gold.point(0),
            act_id=f"r-{i}",
        )
        for i in range(size)
    ])


def _cosine_of(u, v):
    return _cosine(u, v, float(np.linalg.norm(u)), float(np.linalg.norm(v)))


@pytest.mark.parametrize("size", [1, 31, 32, 33, 65])
def test_batched_profiles_match_per_candidate_cosines(size):
    rng = Rng(900 + size)
    config = PipelineConfig(d_query=2 + rng.randrange(5), d_cand=2 + rng.randrange(5),
                            d_shared=2 + rng.randrange(6))
    params = init_pipeline_params(config, rng.fork())
    acts = _random_acts(rng, config, size)
    expected = [
        np.array([_cosine_of(params.query_map @ act.query_vec,
                             params.object_map @ vec)
                  for vec in act.candidates])
        for act in acts
    ]
    for act, cosines in zip(acts, expected):
        np.testing.assert_allclose(similarity_profile(params, act), cosines,
                                   rtol=0, atol=1e-12)

    max_sims, gaps, best = protest_profiles(params, acts)
    np.testing.assert_allclose(max_sims, [c.max() for c in expected], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        gaps, [np.inf if c.size == 1 else np.diff(np.sort(c)[-2:])[0] for c in expected],
        rtol=0, atol=1e-12)
    assert best.tolist() == [int(np.argmax(c)) for c in expected]

    thresholds = Thresholds(min_similarity=-0.2, min_gap=0.1)
    choices = pipeline_predict_batch(params, thresholds, acts)
    assert choices.dtype == np.intp
    assert choices.tolist() == \
        [pipeline_predict(params, thresholds, act) for act in acts]


def test_batched_profiles_warn_on_a_zero_norm_act_mid_chunk(caplog):
    params = _identity_params()
    acts = [_act([0.9, 0.2], Gold.point(0), f"p-{i}") for i in range(CHUNK + 8)]
    acts[CHUNK + 3] = EncodedAct(query_vec=np.array([1.0, 0.0]),
                                 candidates=np.array([np.zeros(2), _unit_at(0.5)]),
                                 gold=Gold.point(1), act_id="zero")
    with caplog.at_level(logging.WARNING, logger="popref.pipeline_model"):
        max_sims, gaps, best = protest_profiles(params, EncodedSplit.of(acts))
    warned = [r.getMessage() for r in caplog.records]
    assert len(warned) == 1 and "zero-norm" in warned[0] and "'zero'" in warned[0]
    assert (max_sims[CHUNK + 3], best[CHUNK + 3]) == (pytest.approx(0.5), 1)
    assert gaps[CHUNK + 3] == pytest.approx(0.5)


@pytest.mark.parametrize("candidates, query", [
    (np.zeros((0, 2)), [1.0, 0.0]),                     # empty lineup
    ([[1.0, 0.0, 0.0]], [1.0, 0.0]),                    # wrong candidate dim
    ([[1.0, 0.0]], [1.0, 0.0, 0.0]),                    # wrong query dim
], ids=["empty", "candidate-dim", "query-dim"])
def test_batched_profiles_reject_a_bad_act_mid_chunk(candidates, query):
    acts = [_act([0.9, 0.2], Gold.point(0), f"p-{i}") for i in range(CHUNK + 8)]
    acts[CHUNK + 3] = EncodedAct(
        query_vec=np.array(query),
        candidates=np.array(candidates),
        gold=Gold.miss(), act_id="bad")
    with pytest.raises(ContractViolation, match="act 'bad'"):
        protest_profiles(_identity_params(), EncodedSplit.of(acts))


def test_batched_profiles_reject_a_split_of_other_dims():
    acts = EncodedSplit.of([_act([0.9, 0.2], Gold.point(0), f"p-{i}")
                            for i in range(3)])
    with pytest.raises(ContractViolation, match="act 'p-0'"):
        protest_profiles(_identity_params(dim=3), acts)


@pytest.mark.parametrize("candidates, query", [
    ([[0.9, 0.2], [np.nan, 0.0]], [1.0, 0.0]),          # nan candidate
    ([[0.9, 0.2], [np.inf, 0.0]], [1.0, 0.0]),          # inf candidate
    ([[0.9, 0.2]], [np.nan, 1.0]),                      # nan query
    ([[0.9, 0.2]], [1.0, -np.inf]),                     # inf query
    ([[0.9, 0.2], [np.nan, 0.0]], [0.0, 0.0]),          # nan beside a zero query
], ids=["nan-candidate", "inf-candidate", "nan-query", "inf-query",
        "nan-candidate-zero-query"])
@pytest.mark.parametrize("call", [
    protest_profiles,
    tune_thresholds,
    lambda params, acts: pipeline_predict_batch(
        params, Thresholds(min_similarity=0.0, min_gap=0.0), acts),
], ids=["protest_profiles", "tune_thresholds", "pipeline_predict_batch"])
def test_batched_profiles_reject_a_non_finite_act_mid_chunk(candidates, query, call):
    acts = [_act([0.9, 0.2], Gold.point(0), f"p-{i}") for i in range(CHUNK + 8)]
    acts[CHUNK + 3] = EncodedAct(
        query_vec=np.array(query),
        candidates=np.array(candidates),
        gold=Gold.point(0), act_id="bad")
    with pytest.raises(NumericError, match="act 'bad'"):
        call(_identity_params(), EncodedSplit.of(acts))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _separable_acts(rng, count=40):
    """Object-only style acts in 2-D with an easy linear structure."""
    acts = []
    for i in range(count):
        gold_dir = rng.randrange(2)
        query = np.array([1.0, 0.0]) if gold_dir == 0 else np.array([0.0, 1.0])
        query = query + rng.normals(2, sigma=0.05)
        pos = query / np.linalg.norm(query) + rng.normals(2, sigma=0.05)
        neg = np.array([-query[1], query[0]]) + rng.normals(2, sigma=0.05)
        acts.append(
            EncodedAct(
                query_vec=query,
                candidates=np.array([pos, neg]),
                gold=Gold.point(0),
                act_id=f"sep-{i}",
            )
        )
    return EncodedSplit.of(acts)


def test_train_pipeline_reduces_hinge_loss():
    acts = _separable_acts(Rng(23))
    config = PipelineConfig(d_query=2, d_cand=2, d_shared=4)
    params, log = train_pipeline(
        acts, config, TrainConfig(epochs=8, seed=1, lr0=0.05)
    )
    assert log.epoch_losses[-1] < log.epoch_losses[0]
    assert log.updates == len(acts) * 8


def test_train_pipeline_zero_epochs_keeps_init():
    acts = _separable_acts(Rng(24), count=10)
    config = PipelineConfig(d_query=2, d_cand=2, d_shared=3)
    train_config = TrainConfig(epochs=0, seed=9)
    params, log = train_pipeline(acts, config, train_config)
    from popref.numerics import derive_seed

    fresh = init_pipeline_params(config, Rng(derive_seed(9, "pipeline-init")))
    np.testing.assert_array_equal(params.query_map, fresh.query_map)
    np.testing.assert_array_equal(params.object_map, fresh.object_map)
    assert log.updates == 0


def test_train_pipeline_is_deterministic():
    acts = _separable_acts(Rng(25), count=20)
    config = PipelineConfig(d_query=2, d_cand=2, d_shared=3)
    a, _ = train_pipeline(acts, config, TrainConfig(epochs=3, seed=4))
    b, _ = train_pipeline(acts, config, TrainConfig(epochs=3, seed=4))
    np.testing.assert_array_equal(a.query_map, b.query_map)
    np.testing.assert_array_equal(a.object_map, b.object_map)


def test_trained_pipeline_separates_easy_world():
    rng = Rng(26)
    train_acts = _separable_acts(rng, count=80)
    config = PipelineConfig(d_query=2, d_cand=2, d_shared=4)
    params, _ = train_pipeline(
        train_acts, config, TrainConfig(epochs=10, seed=2, lr0=0.05)
    )
    test_acts = _separable_acts(rng, count=40)
    correct = sum(
        1
        for act in test_acts
        if int(np.argmax(similarity_profile(params, act))) == act.gold.index
    )
    assert correct / len(test_acts) >= 0.9
