"""Train the two-stage pipeline competitor and watch its protest rules work.

The pipeline splits the problem in half.  Stage one learns a joint embedding
with a max-margin ranking loss over (query, referent, distractor) triples
mined from successful acts only — anomalies contribute nothing to training.
Stage two bolts anomaly handling on afterwards: protest if the best cosine
falls below a similarity floor, or if the top two cosines sit closer than a
gap threshold.  Both thresholds are picked by a grid scan on validation
accuracy.  The contrast with the pointing network is architectural: here
anomaly detection is a pair of hand rules around a learned similarity,
rather than a trained pathway inside one network.
"""

import numpy as np

from popref.datagen import PROTEST, DatasetSpec, generate_splits
from popref.embeddings import WorldConfig, build_synthetic_world
from popref.harness import encode_split, evaluate
from popref.pipeline_model import (
    PipelineConfig,
    extract_pairs,
    pipeline_predict_batch,
    similarity_profile,
    train_pipeline,
    tune_thresholds,
)
from popref.training import TrainConfig

np.set_printoptions(precision=3, suppress=True)


def main() -> None:
    # sigma 0.3 blurs the classes enough that neither rule can be perfect.
    world = build_synthetic_world(
        WorldConfig(n_classes=30, images_per_class=5, n_attributes=12,
                    d_img=24, d_word=12, attrs_per_object=4, sigma=0.3),
        seed=0,
    )
    spec = DatasetSpec(n_train=2000, n_val=600, n_test=800, seed=0)
    splits = generate_splits(world, spec, "object-only")
    train_acts = encode_split(world, splits["train"], "dense")
    val_acts = encode_split(world, splits["val"], "dense")
    test_acts = encode_split(world, splits["test"], "dense")

    triples = extract_pairs(train_acts)
    n_success = sum(1 for act in splits["train"] if act.gold.kind == "point")
    print(f"{len(splits['train'])} training acts -> {n_success} successful "
          f"-> {len(triples)} ranking triples (anomalies are unused)")

    config = PipelineConfig(d_query=12, d_cand=24, d_shared=32)
    params, log = train_pipeline(train_acts, config,
                                 TrainConfig(epochs=6, seed=0))
    losses = ", ".join(f"{v:.4f}" for v in log.epoch_losses)
    print(f"hinge loss per epoch: [{losses}]")
    print()

    thresholds = tune_thresholds(params, val_acts)
    print(f"tuned on validation: similarity floor {thresholds.min_similarity}, "
          f"top-two gap {thresholds.min_gap}")

    floor_hits = gap_hits = 0
    for act in test_acts:
        sims = similarity_profile(params, act)
        order = np.argsort(sims)[::-1]
        if sims[order[0]] < thresholds.min_similarity:
            floor_hits += 1
        elif len(sims) > 1 and sims[order[0]] - sims[order[1]] < thresholds.min_gap:
            gap_hits += 1
    print(f"on {len(test_acts)} test acts the floor rule fires {floor_hits}x, "
          f"the gap rule {gap_hits}x")
    print()

    # The whole split's answers in one array: a candidate index per act, or
    # PROTEST; evaluate scores such arrays against the golds.
    choices = pipeline_predict_batch(params, thresholds, test_acts)
    print(f"the pipeline protests on {np.count_nonzero(choices == PROTEST)} "
          f"of {len(choices)} test acts")
    sample = test_acts[0]
    sims = similarity_profile(params, sample)
    outcome = "protest" if choices[0] == PROTEST else f"point at #{choices[0]}"
    print(f"example act {sample.act_id}: cosines {sims} -> {outcome}")
    print()

    metrics = evaluate(
        lambda acts: pipeline_predict_batch(params, thresholds, acts), test_acts
    )
    print("pipeline on the test split:")
    print(metrics.to_text())


if __name__ == "__main__":
    main()
