"""Tests for the comparison predictors and the image-shuffle control."""

import numpy as np
import pytest

from popref.baselines import (
    LabelDistribution,
    SyntheticLabeler,
    attr_random_predict,
    cnn_predict,
    estimate_label_distribution,
    labels_match,
    majority_predict,
    probability_predict,
    random_predict,
    run_imgshuffle,
)
from popref.datagen import (
    PROTEST,
    DatasetSpec,
    Gold,
    Item,
    Query,
    ReferenceAct,
    gen_object_attribute,
    gen_object_only,
)
from popref.errors import ConfigError, UnsupportedInputError
from popref.numerics import Rng


def _act(items, gold, query=Query(noun="cup"), act_id="b-0"):
    return ReferenceAct(id=act_id, query=query, items=tuple(items), gold=gold)


def _point_act(n=3, index=0, act_id="b-0"):
    items = [Item(f"o{i}", f"o{i}-img") for i in range(n)]
    items[index] = Item("cup", "cup-img")
    return _act(items, Gold.point(index), act_id=act_id)


# ---------------------------------------------------------------------------
# Label distribution
# ---------------------------------------------------------------------------


def test_estimate_label_distribution_counts():
    acts = (
        [_point_act(index=0, act_id=f"a{i}") for i in range(3)]
        + [_point_act(index=1, act_id="a3")]
        + [_act([Item("x", "x-img")], Gold.miss(), act_id="a4")]
        + [_act([Item("cup", "i1"), Item("cup", "i2")], Gold.mult(), act_id="a5")]
    )
    dist = estimate_label_distribution(acts, max_len=3)
    assert dist.probabilities == pytest.approx((0.5, 1 / 6, 0.0, 1 / 3))
    dist.validate()


def test_estimate_label_distribution_rejects_bad_input():
    with pytest.raises(ConfigError):
        estimate_label_distribution([], max_len=5)
    deep = _point_act(n=4, index=3)
    with pytest.raises(ConfigError):
        estimate_label_distribution([deep], max_len=3)


@pytest.mark.parametrize("max_len", [0, -1])
def test_estimate_label_distribution_rejects_a_non_positive_max_len(max_len):
    miss = _act([Item("x", "x-img")], Gold.miss())
    with pytest.raises(ConfigError, match="max_len must be >= 1"):
        estimate_label_distribution([miss], max_len=max_len)


def test_label_distribution_validation():
    with pytest.raises(ConfigError):
        LabelDistribution(max_len=2, probabilities=(0.5, 0.5)).validate()
    with pytest.raises(ConfigError):
        LabelDistribution(max_len=1, probabilities=(0.7, 0.7)).validate()


# ---------------------------------------------------------------------------
# Random / majority / probability
# ---------------------------------------------------------------------------


def test_random_predict_uniform_over_fixed_labels():
    rng = Rng(1)
    act = _point_act(n=2)
    counts = {i: 0 for i in range(5)}
    counts["protest"] = 0
    trials = 12_000
    for _ in range(trials):
        pred = random_predict(act, rng, max_len=5)
        counts["protest" if pred == PROTEST else pred] += 1
    for key, count in counts.items():
        assert abs(count / trials - 1 / 6) < 0.02, key
    # Indices beyond the act's own length are kept (and will score wrong).
    assert counts[3] > 0 and counts[4] > 0


def test_random_predict_deterministic_per_seed():
    act = _point_act()
    a = [random_predict(act, Rng(3)) for _ in range(20)]
    b = [random_predict(act, Rng(3)) for _ in range(20)]
    assert a == b


def test_majority_predict_always_protests():
    for act in (_point_act(), _act([Item("x", "i")], Gold.miss())):
        assert majority_predict(act) == PROTEST


def test_probability_predict_follows_marginal():
    dist = LabelDistribution(max_len=2, probabilities=(0.5, 0.25, 0.25))
    rng = Rng(9)
    act = _point_act(n=2)
    counts = [0, 0, 0]
    trials = 20_000
    for _ in range(trials):
        pred = probability_predict(act, dist, rng)
        counts[2 if pred == PROTEST else pred] += 1
    freqs = [c / trials for c in counts]
    np.testing.assert_allclose(freqs, [0.5, 0.25, 0.25], atol=0.02)


def test_probability_predict_degenerate_is_majority():
    dist = LabelDistribution(max_len=3, probabilities=(0.0, 0.0, 0.0, 1.0))
    rng = Rng(4)
    act = _point_act()
    for _ in range(50):
        assert probability_predict(act, dist, rng) == PROTEST


# ---------------------------------------------------------------------------
# Label matching
# ---------------------------------------------------------------------------


def test_labels_match_substring_both_ways():
    assert labels_match("cup", "coffee cup")
    assert labels_match("coffee cup", "cup")
    assert labels_match(" CUP ", "coffee cup")
    assert not labels_match("cup", "bowl")
    assert not labels_match("", "cup")
    assert not labels_match("cup", "  ")


def test_synthetic_labeler_perfect_and_deterministic():
    labeler = SyntheticLabeler(vocabulary=("a", "b", "c"), p_true=1.0, seed=5)
    assert labeler.label("img-1", "b") == "b"
    noisy = SyntheticLabeler(vocabulary=("a", "b", "c"), p_true=0.5, seed=5)
    first = [noisy.label(f"img-{i}", "a") for i in range(40)]
    second = [noisy.label(f"img-{i}", "a") for i in range(40)]
    assert first == second
    assert set(first) <= {"a", "b", "c"}


def test_synthetic_labeler_always_wrong_at_zero():
    labeler = SyntheticLabeler(vocabulary=("a", "b", "c"), p_true=0.0, seed=1)
    for i in range(30):
        assert labeler.label(f"img-{i}", "a") != "a"


def test_synthetic_labeler_rejects_bad_p_true():
    labeler = SyntheticLabeler(vocabulary=("a",), p_true=1.5)
    with pytest.raises(ConfigError):
        labeler.label("img", "a")


def test_cnn_predict_with_perfect_labeler_is_exact(small_world):
    labeler = SyntheticLabeler(tuple(small_world.objects), p_true=1.0, seed=0)
    spec = DatasetSpec(p_miss=0.2, p_mult=0.2, seed=41)
    for act in gen_object_only(small_world, spec, Rng(41), 80):
        pred = cnn_predict(act, labeler)
        if act.gold.kind == "point":
            assert pred == act.gold.index
        else:
            assert pred == PROTEST


def test_cnn_predict_rejects_attribute_acts(small_world):
    spec = DatasetSpec(seed=42)
    act = next(gen_object_attribute(small_world, spec, Rng(42), 1))
    labeler = SyntheticLabeler(tuple(small_world.objects))
    with pytest.raises(UnsupportedInputError):
        cnn_predict(act, labeler)


def test_cnn_predict_protests_on_multiple_hits():
    labeler = SyntheticLabeler(vocabulary=("cup", "bowl"), p_true=1.0)
    act = _act(
        [Item("cup", "i1"), Item("cup", "i2"), Item("bowl", "i3")], Gold.mult()
    )
    assert cnn_predict(act, labeler) == PROTEST


# ---------------------------------------------------------------------------
# Attribute-match baseline
# ---------------------------------------------------------------------------


def test_attr_random_rejects_object_only_acts():
    with pytest.raises(UnsupportedInputError):
        attr_random_predict(_point_act(), Rng(0))


def test_attr_random_points_among_attribute_matches(small_world):
    spec = DatasetSpec(p_miss=0.2, p_mult=0.2, seed=43)
    rng = Rng(43)
    for act in gen_object_attribute(small_world, spec, rng, 100):
        pred = attr_random_predict(act, rng)
        hits = [
            i for i, item in enumerate(act.items)
            if item.attribute == act.query.attribute
        ]
        if hits:
            assert pred in hits
        else:
            assert pred == PROTEST


def test_attr_random_never_detects_duplicates(small_world):
    """Duplicated referents share the query attribute, so it always points."""
    spec = DatasetSpec(p_miss=0.0, p_mult=0.9, seed=44)
    rng = Rng(44)
    saw_mult = 0
    for act in gen_object_attribute(small_world, spec, rng, 60):
        if act.gold.anomaly_kind == "mult":
            saw_mult += 1
            assert attr_random_predict(act, rng) != PROTEST
    assert saw_mult > 30


# ---------------------------------------------------------------------------
# Image shuffle control
# ---------------------------------------------------------------------------


def test_run_imgshuffle_smoke(small_world):
    spec = DatasetSpec(n_train=30, n_val=1, n_test=20, seed=45)
    train_acts = list(gen_object_attribute(small_world, spec, Rng(45), 30))
    test_acts = list(
        gen_object_attribute(small_world, spec, Rng(45), 20, start=1000)
    )
    result = run_imgshuffle(
        small_world,
        train_acts,
        test_acts,
        {"train.epochs": "2", "train.seed": "3",
         "model.d_ent": "16", "model.n_sensors": "4"},
        shuffle_seed=7,
    )
    assert result.shuffle_seed == 7
    assert result.train_log.updates == 30 * 2
    assert result.metrics.n_total == 20
    perm = result.image_permutation
    assert sorted(perm.keys()) == sorted(small_world.all_image_ids())
    assert all(src != dst for dst, src in perm.items())
    for arr in result.params.named_arrays().values():
        assert np.all(np.isfinite(arr))


def test_run_imgshuffle_deterministic(small_world):
    spec = DatasetSpec(n_train=12, n_val=1, n_test=8, seed=46)
    train_acts = list(gen_object_attribute(small_world, spec, Rng(46), 12))
    test_acts = list(gen_object_attribute(small_world, spec, Rng(46), 8, start=500))
    manifest = {"train.epochs": "1", "train.seed": "1",
                "model.d_ent": "8", "model.n_sensors": "3"}
    a = run_imgshuffle(small_world, train_acts, test_acts, manifest,
                       shuffle_seed=2)
    b = run_imgshuffle(small_world, train_acts, test_acts, manifest,
                       shuffle_seed=2)
    assert a.metrics.to_dict() == b.metrics.to_dict()
    np.testing.assert_array_equal(a.params.entity_map, b.params.entity_map)
