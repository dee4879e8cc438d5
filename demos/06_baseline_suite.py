"""Run every comparison system on one dataset and tabulate the results.

Three baselines need no learning at all: guessing uniformly, always
protesting, and sampling from the training label frequencies.  They pin down
how much of the score is available for free.  Two more probe specific
shortcuts: a label-matching classifier with a controllable error rate shows
what an oracle object recognizer buys, and the attribute-matching guesser
shows that picking among matches without counting them can never catch
duplicate referents.  The last run breaks the image-word pairing by
permuting all images before training the pointing network — if scores stay
high, the task leaked; if they collapse toward chance on pointing, the model
really was using the visual pairing.
"""

from popref.baselines import (
    SyntheticLabeler,
    attr_random_predict,
    cnn_predict,
    estimate_label_distribution,
    majority_predict,
    probability_predict,
    random_predict,
    run_imgshuffle,
)
from popref.datagen import DatasetSpec, generate_splits
from popref.embeddings import WorldConfig, build_synthetic_world
from popref.harness import evaluate, per_act
from popref.numerics import Rng


def fmt(value):
    return "   --" if value is None else f"{value:5.1f}"


def row(name, metrics):
    print(f"{name:<24} {fmt(metrics.total)} {fmt(metrics.pointing)} "
          f"{fmt(metrics.missref)} {fmt(metrics.multref)}")


def main() -> None:
    world = build_synthetic_world(
        WorldConfig(n_classes=25, images_per_class=4, n_attributes=12,
                    d_img=16, d_word=8, attrs_per_object=4),
        seed=0,
    )
    spec = DatasetSpec(n_train=3000, n_val=0, n_test=1500, seed=0)
    oo = generate_splits(world, spec, "object-only")
    oa = generate_splits(world, spec, "object-attr")

    print(f"object-only test split: {len(oo['test'])} acts; "
          f"object+attribute: {len(oa['test'])} acts")
    print()
    print(f"{'system':<24} {'Total':>5} {'Point':>5} {'Miss':>5} {'Mult':>5}")

    rng = Rng(0)
    row("random guess", evaluate(
        per_act(lambda act: random_predict(act, rng, spec.max_len)), oo["test"]
    ))
    row("always protest", evaluate(per_act(majority_predict), oo["test"]))

    dist = estimate_label_distribution(oo["train"], spec.max_len)
    rng = Rng(1)
    row("label frequencies", evaluate(
        per_act(lambda act: probability_predict(act, dist, rng)), oo["test"]
    ))

    vocabulary = tuple(world.objects)
    for p_true in (1.0, 0.8):
        labeler = SyntheticLabeler(vocabulary=vocabulary, p_true=p_true, seed=2)
        row(f"label matcher p={p_true}", evaluate(
            per_act(lambda act: cnn_predict(act, labeler)), oo["test"]
        ))

    rng = Rng(3)
    row("attribute matcher", evaluate(
        per_act(lambda act: attr_random_predict(act, rng)), oa["test"]
    ))

    print()
    print("image-shuffle control (pointing network, images permuted "
          "before training):")
    result = run_imgshuffle(
        world,
        oo["train"],
        oo["test"],
        {"train.epochs": "4", "train.seed": "0",
         "model.d_ent": "32", "model.n_sensors": "8"},
        shuffle_seed=0,
    )
    n_moved = sum(
        1 for img, src in result.image_permutation.items() if img != src
    )
    print(f"  permuted {n_moved}/{len(result.image_permutation)} images")
    row("  shuffled-image model", result.metrics)
    print()
    print("note: the attribute matcher runs on the attribute task; duplicate")
    print("referents both match the query, so its Mult column is forced to 0.")


if __name__ == "__main__":
    main()
