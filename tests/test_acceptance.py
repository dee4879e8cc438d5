"""Release checks: one test per shipped guarantee.

Each test prints a single ``[acceptance] <name>: PASS|FAIL`` line (run with
``-s`` to see the lines as they go by).  The learned-model checks use frozen
seeds on the default synthetic world, so every number here is reproducible
bit-for-bit; thresholds carry generous slack and are documented inline.

This file is intentionally self-contained: it exercises the public API the
way a downstream user would, not through test-only helpers.
"""

import json
import math
import time

import numpy as np
import pytest

from popref.baselines import (
    SyntheticLabeler,
    attr_random_predict,
    cnn_predict,
    estimate_label_distribution,
    majority_predict,
    probability_predict,
    random_predict,
)
from popref.datagen import (
    MISS,
    MULT,
    POINT,
    PROTEST,
    DatasetSpec,
    Gold,
    generate_splits,
    validate_act,
)
from popref.embeddings import EncodedAct, EncodedSplit, WorldConfig, build_synthetic_world
from popref.harness import (
    encode_split,
    evaluate,
    per_act,
    report_to_json,
    run_experiment,
)
from popref.numerics import Rng, derive_seed
from popref.pipeline_model import (
    GAP_GRID,
    MISS_GRID,
    PipelineConfig,
    PipelineParams,
    Thresholds,
    gradcheck_pipeline,
    pipeline_predict,
    train_pipeline,
    tune_thresholds,
)
from popref.pop_model import (
    PopConfig,
    PopTrainable,
    Prediction,
    chunk_logits,
    forward,
    gradcheck_pop,
    init_params,
    predict_batch,
)
from popref.training import TrainConfig, train


def _check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def _category(act) -> str:
    return POINT if act.gold.kind == POINT else act.gold.anomaly_kind


@pytest.fixture(scope="module")
def world():
    return build_synthetic_world(WorldConfig(), 0)


@pytest.fixture(scope="module")
def oo_splits(world):
    spec = DatasetSpec(n_train=10000, n_val=0, n_test=10000, seed=0)
    return generate_splits(world, spec, "object-only")


@pytest.fixture(scope="module")
def oa_acts(world):
    spec = DatasetSpec(n_train=10000, n_val=0, n_test=0, seed=0)
    return generate_splits(world, spec, "object-attr")["train"]


# ---------------------------------------------------------------------------
# 1. Majority baseline: always protesting scores exactly 30/0/100/100 on a
#    test set whose anomaly share is exactly 15% + 15%.


def test_01_majority_baseline_exact_row(oo_splits):
    buckets = {POINT: [], MISS: [], MULT: []}
    for act in oo_splits["test"]:
        buckets[_category(act)].append(act)
    assert len(buckets[POINT]) >= 1400
    assert len(buckets[MISS]) >= 300 and len(buckets[MULT]) >= 300
    acts = buckets[POINT][:1400] + buckets[MISS][:300] + buckets[MULT][:300]
    metrics = evaluate(per_act(majority_predict), acts)
    row = (metrics.total, metrics.pointing, metrics.missref, metrics.multref)
    _check(
        "majority baseline scores exactly 30/0/100/100",
        row == (30.0, 0.0, 100.0, 100.0),
        f"got {row}",
    )


# ---------------------------------------------------------------------------
# 2. Random baseline: uniform guessing over 6 outcomes lands near 1/6 total
#    accuracy (averaged over 10 seeds on a 10,000-act split).


def test_02_random_baseline_mean_total(oo_splits):
    acts = oo_splits["test"]
    totals = []
    for seed in range(10):
        rng = Rng(seed)
        metrics = evaluate(per_act(lambda act: random_predict(act, rng, 5)), acts)
        totals.append(metrics.total)
    mean = sum(totals) / len(totals)
    _check(
        "random baseline mean total in [15.7, 17.7]",
        15.7 <= mean <= 17.7,
        f"mean {mean:.2f} over {len(totals)} seeds",
    )


# ---------------------------------------------------------------------------
# 3. Probability baseline: sampling from the empirical label marginal scores
#    near its closed-form expectations 21.6 / 18.1 / 30 / 30.


def test_03_probability_baseline_mean_row(oo_splits):
    dist = estimate_label_distribution(oo_splits["train"], 5)
    sums = {"total": 0.0, "pointing": 0.0, "missref": 0.0, "multref": 0.0}
    n_seeds = 10
    for seed in range(n_seeds):
        rng = Rng(1000 + seed)
        metrics = evaluate(
            per_act(lambda act: probability_predict(act, dist, rng)),
            oo_splits["test"],
        )
        sums["total"] += metrics.total
        sums["pointing"] += metrics.pointing
        sums["missref"] += metrics.missref
        sums["multref"] += metrics.multref
    means = {k: v / n_seeds for k, v in sums.items()}
    ok = (
        20.5 <= means["total"] <= 23.5
        and 16.5 <= means["pointing"] <= 19.5
        and 28.5 <= means["missref"] <= 31.5
        and 28.5 <= means["multref"] <= 31.5
    )
    _check(
        "probability baseline mean row near 21.6/18.1/30/30",
        ok,
        "got " + "/".join(f"{means[k]:.1f}" for k in
                          ("total", "pointing", "missref", "multref")),
    )


# ---------------------------------------------------------------------------
# 4. Attribute-random baseline: it picks among attribute matches without ever
#    counting them, so duplicate-referent anomalies are never detected.


def test_04_attr_random_never_detects_duplicates(oa_acts):
    acts = oa_acts[:2000]
    rng = Rng(7)
    metrics = evaluate(per_act(lambda act: attr_random_predict(act, rng)), acts)
    assert metrics.counts[MULT]["n"] > 0
    _check(
        "attribute-random duplicate-referent accuracy is exactly 0",
        metrics.multref == 0.0,
        f"multref {metrics.multref} over {metrics.counts[MULT]['n']} acts",
    )


# ---------------------------------------------------------------------------
# 5. Gradient correctness: analytic gradients match central finite
#    differences to < 1e-4 relative error across randomized configurations.


def test_05_gradient_checks():
    pop_report = gradcheck_pop(trials=20, seed=42, tolerance=1e-4)
    pipe_report = gradcheck_pipeline(trials=10, seed=42, tolerance=1e-4)
    _check(
        "gradients match finite differences (rel err < 1e-4)",
        pop_report.passed and pipe_report.passed,
        f"pointing max {pop_report.max_rel_error:.2e} over "
        f"{pop_report.trials} trials, pipeline max "
        f"{pipe_report.max_rel_error:.2e} over {pipe_report.trials} trials",
    )


# ---------------------------------------------------------------------------
# 6. Permutation equivariance: reordering candidates permutes the pointing
#    probabilities and leaves the protest probability fixed, to 1e-9; the
#    batched inference path permutes its logits and predictions alike.


def _encoded(query, candidates):
    return EncodedAct(
        query_vec=np.asarray(query, dtype=np.float64),
        candidates=np.array(candidates, dtype=np.float64),
        gold=Gold.point(0),
        act_id="perm",
    )


def test_06_permutation_equivariance():
    rng = Rng(2026)
    worst = worst_batch = 0.0
    consistent = 0
    for _ in range(1000):
        config = PopConfig(
            d_query=2 + rng.randrange(3),
            d_cand=2 + rng.randrange(3),
            d_ent=2 + rng.randrange(4),
            n_sensors=1 + rng.randrange(3),
            use_bias=bool(rng.randrange(2)),
        )
        params = init_params(config, rng.fork())
        if config.use_bias:
            params.entity_bias[:] = rng.normals(config.d_ent) * 0.3
            params.query_bias[:] = rng.normals(config.d_ent) * 0.3
            params.sensor_in_bias[:] = rng.normals(config.n_sensors) * 0.3
            params.sensor_out_bias[:] = rng.normals(1) * 0.3
        n = 2 + rng.randrange(5)
        query = rng.normals(config.d_query)
        candidates = [rng.normals(config.d_cand) for _ in range(n)]
        perm = rng.sample(range(n), n)

        base_act = _encoded(query, candidates)
        moved_act = _encoded(query, [candidates[p] for p in perm])
        base = forward(params, base_act)
        moved = forward(params, moved_act)
        worst = max(
            worst,
            float(np.max(np.abs(moved.probs[:n] - base.probs[perm]))),
            abs(float(moved.probs[n]) - float(base.probs[n])),
        )
        # The batched inference path: both acts in one chunk.
        both = EncodedSplit.of([base_act, moved_act])
        sims, scores, _ = chunk_logits(params, both)
        worst_batch = max(
            worst_batch,
            float(np.max(np.abs(sims[n:] - sims[:n][perm]))),
            abs(float(scores[1] - scores[0])),
        )
        base_choice, moved_choice = predict_batch(params, both).tolist()
        consistent += (base_choice == moved_choice == PROTEST
                       or PROTEST not in (base_choice, moved_choice)
                       and perm[moved_choice] == base_choice)
    _check(
        "candidate permutations permute probabilities, and batched logits "
        "and predictions (1000 trials, 1e-9)",
        worst <= 1e-9 and worst_batch <= 1e-9 and consistent == 1000,
        f"max deviation {worst:.2e}, batched {worst_batch:.2e}, "
        f"{consistent}/1000 batched predictions permuted",
    )


# ---------------------------------------------------------------------------
# 7. Generator fidelity: 10,000-act splits hit the documented anomaly rates
#    and length distribution, and every act passes the gold validator.


def test_07_generator_fidelity(oo_splits, oa_acts):
    problems = []
    for label, acts in [("object-only", oo_splits["train"]),
                        ("object+attribute", oa_acts)]:
        n = len(acts)
        assert n == 10000
        n_miss = sum(1 for a in acts if _category(a) == MISS)
        n_mult = sum(1 for a in acts if _category(a) == MULT)
        if abs(n_miss / n - 0.15) > 0.01:
            problems.append(f"{label} miss rate {n_miss / n:.3f}")
        if abs(n_mult / n - 0.15) > 0.01:
            problems.append(f"{label} mult rate {n_mult / n:.3f}")
        for length in range(2, 6):
            share = sum(1 for a in acts if len(a.items) == length) / n
            if abs(share - 0.25) > 0.015:
                problems.append(f"{label} len-{length} share {share:.3f}")
        invalid = 0
        for act in acts:
            try:
                validate_act(act, min_len=2, max_len=5)
            except Exception:  # noqa: BLE001 - counting, not classifying
                invalid += 1
        if invalid:
            problems.append(f"{label} {invalid} validator failures")
    _check(
        "generator rates, lengths, and validator pass on 10k-act splits",
        not problems,
        "; ".join(problems) or "both tasks within tolerance",
    )


# ---------------------------------------------------------------------------
# 8. Perfect-labeler ceiling: with an always-correct labeler the label-match
#    baseline solves the object-only task outright.


def test_08_perfect_labeler_ceiling(world, oo_splits):
    labeler = SyntheticLabeler(vocabulary=tuple(world.objects), p_true=1.0, seed=0)
    acts = oo_splits["test"][:1000]
    metrics = evaluate(per_act(lambda act: cnn_predict(act, labeler)), acts)
    _check(
        "perfect labeler scores total 100 on object-only",
        metrics.total == 100.0,
        f"total {metrics.total}",
    )


# ---------------------------------------------------------------------------
# 9. Learning sanity: the pointing network trained at its default settings
#    clears the frozen floors, and the one-hot variant lands within 8 points
#    after its longer schedule.  Slow test: roughly 70 s.


def test_09_learning_sanity(world):
    start = time.monotonic()
    spec = DatasetSpec(n_train=5000, n_val=0, n_test=2000, seed=0)
    splits = generate_splits(world, spec, "object-only")

    dense_train = encode_split(world, splits["train"], "dense")
    dense_test = encode_split(world, splits["test"], "dense")
    pop_config = PopConfig(d_query=32, d_cand=64, d_ent=300, n_sensors=100)
    pop_params = init_params(pop_config, Rng(derive_seed(0, "init", "pop")))
    train(PopTrainable(pop_params), dense_train, TrainConfig(epochs=14, seed=0))
    pop_metrics = evaluate(lambda acts: predict_batch(pop_params, acts), dense_test)

    onehot_train = encode_split(world, splits["train"], "one-hot")
    onehot_test = encode_split(world, splits["test"], "one-hot")
    tr_config = PopConfig(
        d_query=onehot_train.d_query,
        d_cand=onehot_train.d_cand,
        d_ent=300,
        n_sensors=100,
    )
    tr_params = init_params(tr_config, Rng(derive_seed(0, "init", "trpop")))
    train(PopTrainable(tr_params), onehot_train, TrainConfig(epochs=36, seed=0))
    tr_metrics = evaluate(lambda acts: predict_batch(tr_params, acts), onehot_test)

    elapsed = time.monotonic() - start
    gap = abs(tr_metrics.total - pop_metrics.total)
    ok = (
        pop_metrics.total >= 55.0
        and pop_metrics.pointing >= 60.0
        and gap <= 8.0
        and elapsed < 600.0
    )
    _check(
        "trained model clears floors; one-hot variant within 8 points",
        ok,
        f"dense total {pop_metrics.total:.1f} pointing "
        f"{pop_metrics.pointing:.1f}, one-hot total {tr_metrics.total:.1f}, "
        f"gap {gap:.1f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. Pipeline protest heuristics: the two threshold rules behave exactly as
#     documented on hand-built acts, and raising a tuned threshold can only
#     add protests.


def _exact_cos_act(sims):
    return EncodedAct(
        query_vec=np.array([1.0, 0.0]),
        candidates=np.array([[s, math.sqrt(1.0 - s * s)] for s in sims]),
        gold=Gold.point(0),
        act_id="micro",
    )


def test_10_pipeline_threshold_behavior(world):
    config = PipelineConfig(d_query=2, d_cand=2, d_shared=2)
    identity = PipelineParams(
        config=config, query_map=np.eye(2), object_map=np.eye(2)
    )
    micro = [
        # All similarities below the floor: protest.
        pipeline_predict(identity, Thresholds(0.1, 0.0),
                         _exact_cos_act([0.05, 0.08])).is_protest,
        # Two near-ties above the floor but under the gap: protest.
        pipeline_predict(identity, Thresholds(0.1, 0.05),
                         _exact_cos_act([0.90, 0.88])).is_protest,
        # One clear winner: point at it.
        pipeline_predict(identity, Thresholds(0.1, 0.05),
                         _exact_cos_act([0.90, 0.30])) == Prediction.point(0),
    ]

    spec = DatasetSpec(n_train=2000, n_val=1000, n_test=0, seed=0)
    splits = generate_splits(world, spec, "object-only")
    train_acts = encode_split(world, splits["train"], "dense")
    val_acts = encode_split(world, splits["val"], "dense")
    params, _ = train_pipeline(
        train_acts,
        PipelineConfig(d_query=32, d_cand=64, d_shared=50),
        TrainConfig(epochs=3, seed=0),
    )
    tuned = tune_thresholds(params, val_acts)
    on_grid = tuned.min_similarity in MISS_GRID and tuned.min_gap in GAP_GRID

    def protest_set(thresholds):
        return {
            act.act_id
            for act in val_acts
            if pipeline_predict(params, thresholds, act).is_protest
        }

    base = protest_set(tuned)
    i_miss = MISS_GRID.index(tuned.min_similarity)
    i_gap = GAP_GRID.index(tuned.min_gap)
    monotone = True
    if i_miss + 1 < len(MISS_GRID):
        monotone &= base <= protest_set(
            Thresholds(MISS_GRID[i_miss + 1], tuned.min_gap)
        )
    if i_gap + 1 < len(GAP_GRID):
        monotone &= base <= protest_set(
            Thresholds(tuned.min_similarity, GAP_GRID[i_gap + 1])
        )
    _check(
        "threshold micro-suite exact; raising tuned thresholds only adds "
        "protests",
        all(micro) and on_grid and monotone,
        f"micro {micro}, tuned ({tuned.min_similarity}, {tuned.min_gap})",
    )


# ---------------------------------------------------------------------------
# 11. End-to-end reproducibility: the same manifest yields byte-identical
#     reports on every run.


_MANIFEST = {
    "task": "object-only",
    "model": "pop",
    "world.n_classes": "20",
    "world.images_per_class": "4",
    "world.n_attributes": "12",
    "world.d_img": "16",
    "world.d_word": "8",
    "world.attrs_per_object": "4",
    "world.seed": "3",
    "data.n_train": "300",
    "data.n_val": "100",
    "data.n_test": "200",
    "data.seed": "4",
    "train.epochs": "2",
    "model.d_ent": "24",
    "model.n_sensors": "10",
}


def test_11_manifest_reproducibility():
    pipe_manifest = {
        k: v for k, v in _MANIFEST.items()
        if k not in ("model.d_ent", "model.n_sensors")
    }
    pipe_manifest.update({"model": "pipeline", "model.d_shared": "16"})
    outcomes = []
    for manifest in (dict(_MANIFEST), pipe_manifest):
        first = report_to_json(run_experiment(dict(manifest)))
        second = report_to_json(run_experiment(dict(manifest)))
        outcomes.append(
            (manifest["model"], first == second,
             json.loads(first)["status"] == "ok")
        )
    _check(
        "identical manifests produce byte-identical reports",
        all(same and ok for _, same, ok in outcomes),
        ", ".join(f"{m}: identical={s} ok={o}" for m, s, o in outcomes),
    )
