"""Walk one act through the pointing network, stage by stage.

The network answers a query over a variable-length lineup by building an
entity vector for every candidate (one shared map, so the lineup can be any
size), taking dot products against the mapped query, and treating those
similarities as pointing logits.  A separate anomaly pathway sharpens the
similarities, sums them, pairs the sum with the lineup size, and squashes
the result into one protest logit that competes in the same softmax.  This
script prints every intermediate for a real act, shows that reordering the
lineup just reorders the answer, and finishes with a gradient check.
"""

import dataclasses

import numpy as np

from popref.datagen import ANOMALY, DatasetSpec, generate_splits
from popref.embeddings import WorldConfig, build_synthetic_world, encode_act
from popref.numerics import Rng
from popref.pop_model import (
    PopConfig,
    forward,
    gradcheck_pop,
    init_params,
    loss,
    predict,
)

np.set_printoptions(precision=4, suppress=True)


def show_trace(params, act, label):
    trace = forward(params, act)
    n = len(act.candidates)
    print(f"{label} (lineup of {n}):")
    print(f"  similarities        {trace.sims}")
    print(f"  sharpened (relu)    {trace.sharpened}")
    print(f"  cumulative sim      {trace.cum_sim:.4f}   cardinality {n}")
    print(f"  sensor activations  {trace.sensors}")
    print(f"  protest logit       {trace.anomaly_raw:.4f} "
          f"-> squashed score {trace.anomaly_score:.4f}")
    print(f"  softmax probs       {trace.probs}  (last entry = protest)")
    pred = predict(params, act)
    outcome = "protest" if pred.is_protest else f"point at #{pred.index}"
    print(f"  decision: {outcome}")
    return trace


def main() -> None:
    world = build_synthetic_world(
        WorldConfig(n_classes=15, images_per_class=3, n_attributes=10,
                    d_img=12, d_word=6, attrs_per_object=4),
        seed=1,
    )
    spec = DatasetSpec(n_train=50, n_val=0, n_test=0, seed=2)
    acts = generate_splits(world, spec, "object-only")["train"]
    point_act = next(a for a in acts if a.gold.kind != ANOMALY)
    miss_act = next(a for a in acts if a.gold.anomaly_kind == "miss")

    config = PopConfig(d_query=6, d_cand=12, d_ent=8, n_sensors=3)
    params = init_params(config, Rng(0))
    print(f"parameters: {sum(a.size for a in params.named_arrays().values())} "
          f"floats across {list(params.named_arrays())}")
    print()

    encoded = encode_act(point_act, world, "dense")
    trace = show_trace(params, encoded, f"successful act {point_act.id}")
    gold = point_act.gold
    print(f"  gold: point at #{gold.index}; "
          f"loss = {loss(trace, gold):.4f}")
    print()

    encoded_miss = encode_act(miss_act, world, "dense")
    miss_trace = show_trace(params, encoded_miss, f"missing-referent act {miss_act.id}")
    print(f"  gold: protest; loss = {loss(miss_trace, miss_act.gold):.4f}")
    print()

    print("reordering the lineup permutes the probabilities:")
    base = forward(params, encoded)
    n = len(encoded.candidates)
    perm = list(reversed(range(n)))
    flipped = dataclasses.replace(encoded, candidates=encoded.candidates[perm])
    moved = forward(params, flipped)
    print(f"  original probs {base.probs}")
    print(f"  reversed probs {moved.probs}")
    print(f"  pointing entries reversed, protest entry untouched: "
          f"{np.allclose(moved.probs[:n], base.probs[perm], atol=1e-12)}")
    print()

    report = gradcheck_pop(trials=5, seed=7)
    print(f"gradient check: {'PASS' if report.passed else 'FAIL'} "
          f"({report.trials} random configurations, "
          f"max relative error {report.max_rel_error:.2e})")


if __name__ == "__main__":
    main()
