"""Train the pointing network end to end on a small synthetic task.

A fresh network protests almost never: its similarities are unbounded while
the protest logit is squashed into (0, 1), so early in training the protest
probability is tiny and the loss on anomalous acts is large.  Watching the
per-epoch loss and the validation protest rate shows the anomaly pathway
waking up after the pointing pathway.  The script ends with a side-by-side
against the always-protest baseline, which the trained model must beat on
successful acts without giving up anomaly detection entirely.
"""

import time

import numpy as np

from popref.baselines import majority_predict
from popref.datagen import PROTEST, DatasetSpec, generate_splits
from popref.embeddings import WorldConfig, build_synthetic_world
from popref.harness import encode_split, evaluate, per_act
from popref.numerics import Rng, derive_seed
from popref.pop_model import PopConfig, PopTrainable, init_params, predict_batch
from popref.training import TrainConfig, train

N_TRAIN = 2000
N_TEST = 800
EPOCHS = 8


def main() -> None:
    world = build_synthetic_world(
        WorldConfig(n_classes=30, images_per_class=5, n_attributes=12,
                    d_img=24, d_word=12, attrs_per_object=4),
        seed=0,
    )
    spec = DatasetSpec(n_train=N_TRAIN, n_val=300, n_test=N_TEST, seed=0)
    splits = generate_splits(world, spec, "object-only")
    train_acts = encode_split(world, splits["train"], "dense")
    val_acts = encode_split(world, splits["val"], "dense")
    test_acts = encode_split(world, splits["test"], "dense")

    config = PopConfig(d_query=12, d_cand=24, d_ent=48, n_sensors=16)
    params = init_params(config, Rng(derive_seed(0, "init", "pop")))
    train_config = TrainConfig(epochs=EPOCHS, seed=0)

    def protest_rate(model_params):
        # A batch prediction is one int per act: a candidate index, or PROTEST.
        choices = predict_batch(model_params, val_acts)
        return np.count_nonzero(choices == PROTEST) / len(val_acts)

    print(f"training on {N_TRAIN} acts for {EPOCHS} epochs "
          f"(lr0={train_config.lr0}, momentum={train_config.momentum}, "
          f"decay={train_config.decay})")
    print(f"{'epoch':>5}  {'mean loss':>9}  {'val protest rate':>16}")

    start = time.monotonic()

    def on_epoch(epoch, mean_loss, trainable):
        print(f"{epoch:>5}  {mean_loss:>9.4f}  {protest_rate(trainable.params):>16.3f}")

    train(PopTrainable(params, train_acts), train_config, epoch_callback=on_epoch)
    elapsed = time.monotonic() - start
    print(f"trained in {elapsed:.1f}s")
    print()

    trained = evaluate(lambda acts: predict_batch(params, acts), test_acts)
    always_protest = evaluate(per_act(majority_predict), splits["test"])
    print("trained pointing network:")
    print(trained.to_text())
    print()
    print("always-protest baseline on the same split:")
    print(always_protest.to_text())


if __name__ == "__main__":
    main()
