"""Non-learned and degenerate comparison systems.

Six predictors calibrate the evaluation scale:

* Random — a uniform draw over the max_len + 1 outcome labels (not over the
  act's own n + 1; sampled indices beyond the sequence are kept and scored
  wrong, which is what pins the expected accuracy at 1/(max_len + 1)).
* Majority — always protest, the most frequent outcome label.
* Probability — sample the outcome label from its training-split marginal.
* Label matching — a synthetic image classifier labels every candidate and
  the act is resolved by lax (substring) matching of the query against the
  labels: exactly one hit points, anything else protests.
* Attribute random — point uniformly among candidates sharing the query's
  attribute, protest when none do; by construction it never detects
  duplicated referents.
* Image shuffling — re-train the pointing network on a world whose image
  vectors are consistently permuted, severing the image/word link while
  leaving everything else intact.
"""

from dataclasses import dataclass, field

from .datagen import POINT, PROTEST, ReferenceAct
from .embeddings import SyntheticWorld, shuffle_images
from .errors import ConfigError, UnsupportedInputError
from .harness import (
    Metrics,
    build_inputs,
    build_model,
    encode_split,
    evaluate,
    fit,
    infer_task,
)
from .numerics import Rng, derive_seed
from .pop_model import PopParams, predict_batch
from .training import TrainLog


@dataclass(frozen=True)
class LabelDistribution:
    """Marginal outcome-label frequencies over {Point(0..max_len-1), Protest}.

    ``probabilities[i]`` for i < max_len is the frequency of gold index i;
    the last entry is the frequency of anomalies.
    """

    max_len: int
    probabilities: tuple[float, ...]

    def validate(self) -> None:
        if len(self.probabilities) != self.max_len + 1:
            raise ConfigError(
                f"distribution needs {self.max_len + 1} entries, "
                f"got {len(self.probabilities)}"
            )
        if abs(sum(self.probabilities) - 1.0) > 1e-12:
            raise ConfigError("label probabilities must sum to 1")


def estimate_label_distribution(acts, max_len: int) -> LabelDistribution:
    """Relative frequency of each outcome label in a training split."""
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    counts = [0] * (max_len + 1)
    total = 0
    for act in acts:
        if act.gold.kind == POINT:
            if act.gold.index >= max_len:
                raise ConfigError(
                    f"act {act.id!r} has gold index {act.gold.index}, "
                    f"beyond max_len {max_len}"
                )
            counts[act.gold.index] += 1
        else:
            counts[max_len] += 1
        total += 1
    if total == 0:
        raise ConfigError("cannot estimate a label distribution from no acts")
    dist = LabelDistribution(
        max_len=max_len,
        probabilities=tuple(c / total for c in counts),
    )
    dist.validate()
    return dist


def random_predict(act, rng: Rng, max_len: int = 5) -> int:
    """Uniform over the max_len + 1 fixed outcome labels: a candidate index,
    or :data:`~popref.datagen.PROTEST` for the last."""
    label = rng.randrange(max_len + 1)
    return PROTEST if label == max_len else label


def majority_predict(act) -> int:
    """Always protest — the most frequent outcome label."""
    return PROTEST


def probability_predict(act, dist: LabelDistribution, rng: Rng) -> int:
    """Sample an outcome label from the training-split marginal."""
    u = rng.random()
    cumulative = 0.0
    for label, p in enumerate(dist.probabilities):
        cumulative += p
        if u < cumulative:
            return PROTEST if label == dist.max_len else label
    return PROTEST


def labels_match(query: str, label: str) -> bool:
    """Lax matching: case-insensitive substring containment either way."""
    a = query.strip().lower()
    b = label.strip().lower()
    if not a or not b:
        return False
    return a in b or b in a


@dataclass(frozen=True)
class SyntheticLabeler:
    """A stand-in image classifier with a tunable accuracy knob.

    Emits the true object name with probability ``p_true`` and a uniformly
    chosen other name otherwise.  The draw is a pure function of
    (image_id, seed), so the same image always gets the same label within
    and across runs.
    """

    vocabulary: tuple[str, ...]
    p_true: float = 1.0
    seed: int = 0

    def label(self, image_id: str, true_object: str) -> str:
        if not (0.0 <= self.p_true <= 1.0):
            raise ConfigError(f"p_true must lie in [0, 1], got {self.p_true}")
        rng = Rng(derive_seed(self.seed, "labeler", image_id))
        if rng.random() < self.p_true:
            return true_object
        others = [name for name in self.vocabulary if name != true_object]
        return rng.choice(others) if others else true_object


def cnn_predict(act: ReferenceAct, labeler: SyntheticLabeler) -> int:
    """Label every candidate image, then resolve by lax label matching.

    Exactly one label containing (or contained in) the query noun points at
    that candidate; zero or several matches protest.  Attribute-bearing acts
    are rejected — label matching has no way to handle attributes.
    """
    if act.query.attribute is not None:
        raise UnsupportedInputError(
            f"act {act.id!r} carries attributes; label matching supports "
            f"object-only acts"
        )
    hits = [
        i for i, item in enumerate(act.items)
        if labels_match(act.query.noun, labeler.label(item.image_id, item.object))
    ]
    return hits[0] if len(hits) == 1 else PROTEST


def attr_random_predict(act: ReferenceAct, rng: Rng) -> int:
    """Point uniformly among attribute matches; protest only when none exist.

    Because it always points whenever at least one candidate shares the
    query's attribute, it can never flag a duplicated referent — its
    multiple-referent accuracy is 0 by construction.
    """
    if act.query.attribute is None:
        raise UnsupportedInputError(
            f"act {act.id!r} has no attributes; the attribute-match baseline "
            f"needs attribute-bearing acts"
        )
    hits = [
        i for i, item in enumerate(act.items)
        if item.attribute == act.query.attribute
    ]
    return rng.choice(hits) if hits else PROTEST


@dataclass
class ImgShuffleResult:
    metrics: Metrics
    shuffle_seed: int
    params: PopParams
    train_log: TrainLog
    image_permutation: dict[str, str] = field(default_factory=dict)


def run_imgshuffle(
    world: SyntheticWorld,
    train_acts: list[ReferenceAct],
    test_acts: list[ReferenceAct],
    manifest: dict[str, str],
    shuffle_seed: int = 0,
) -> ImgShuffleResult:
    """Train and evaluate the pointing network on an image-shuffled world.

    One seeded derangement reassigns every image id to another image's
    vector; the SAME shuffled world encodes both the train and the test
    split, so the permutation is consistent end to end.  Intended for
    attribute-bearing data, where attributes stay informative after the
    image/word link is severed.  The network, its encoding and its training
    follow the manifest's ``model.*``, ``encoding.*`` and ``train.*`` keys,
    exactly as a ``pop`` run of :func:`~popref.harness.run_experiment`
    would.  The permutation and its seed are recorded in the result for the
    run manifest.
    """
    if not train_acts:
        raise ConfigError("the image-shuffle run needs training acts")
    shuffled = shuffle_images(world, shuffle_seed)
    inputs = build_inputs(manifest, "pop", infer_task(train_acts))
    encoded_train = encode_split(shuffled, train_acts, inputs.encoding,
                                 inputs.normalize_blocks)
    encoded_test = encode_split(shuffled, test_acts, inputs.encoding,
                                inputs.normalize_blocks)
    config = build_model(manifest, "pop", encoded_train.d_query,
                         encoded_train.d_cand)
    fitted = fit(manifest, "pop", config, encoded_train, inputs)
    metrics = evaluate(lambda acts: predict_batch(fitted.params, acts),
                       encoded_test)
    return ImgShuffleResult(
        metrics=metrics,
        shuffle_seed=shuffle_seed,
        params=fitted.params,
        train_log=fitted.log,
        image_permutation=dict(shuffled.image_permutation),
    )
