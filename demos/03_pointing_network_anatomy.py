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

import numpy as np

from popref.datagen import ANOMALY, PROTEST, DatasetSpec, generate_splits
from popref.embeddings import WorldConfig, build_synthetic_world, encode_act
from popref.numerics import Rng
from popref.pop_model import (
    NONLINEARITIES,
    PopConfig,
    forward,
    gradcheck_pop,
    init_params,
    loss,
    predict,
)

np.set_printoptions(precision=4, suppress=True)


def show_trace(params, act, label):
    trace = forward(params, act.query_vec, act.candidates, act.act_id)
    n = len(act.candidates)
    contrast, _ = NONLINEARITIES[params.config.contrast]
    cum_sim, cardinality = trace.pooled
    print(f"{label} (lineup of {n}):")
    print(f"  similarities        {trace.sims}")
    print(f"  sharpened (relu)    {contrast(trace.sims)}")
    print(f"  cumulative sim      {cum_sim:.4f}   cardinality {cardinality:.0f}")
    print(f"  sensor activations  {trace.sensors}")
    print(f"  protest logit       {trace.anomaly_raw:.4f} "
          f"-> squashed score {trace.logits[-1]:.4f}")
    print(f"  softmax probs       {trace.probs}  (last entry = protest)")
    choice = predict(params, act)
    outcome = "protest" if choice == PROTEST else f"point at #{choice}"
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
          f"loss = {loss(trace, gold.index):.4f}")
    print()

    encoded_miss = encode_act(miss_act, world, "dense")
    miss_trace = show_trace(params, encoded_miss, f"missing-referent act {miss_act.id}")
    # Both anomaly kinds target the protest cell, after the n candidates.
    protest_cell = len(encoded_miss.candidates)
    print(f"  gold: protest; loss = {loss(miss_trace, protest_cell):.4f}")
    print()

    print("reordering the lineup permutes the probabilities:")
    n = len(encoded.candidates)
    perm = list(reversed(range(n)))
    base = forward(params, encoded.query_vec, encoded.candidates)
    moved = forward(params, encoded.query_vec, encoded.candidates[perm])
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
