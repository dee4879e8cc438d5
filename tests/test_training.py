"""Tests for the online SGD trainer: schedule, momentum, shuffling, errors."""

import numpy as np
import pytest

from popref.datagen import DatasetSpec, Gold, generate_splits
from popref.embeddings import EncodedAct, EncodedSplit, encode_split
from popref.errors import ConfigError, ContractViolation, NumericError, ValidationError
from popref.numerics import Rng, derive_seed
from popref.pipeline_model import (
    PipelineConfig,
    PipelineTrainable,
    gradcheck_pipeline,
    init_pipeline_params,
)
from popref.pop_model import PopConfig, PopTrainable, gradcheck_pop, init_params
from popref.training import (
    ColumnSparse,
    TrainConfig,
    TrainLog,
    gradcheck,
    learning_rate,
    train,
)


class QuadraticTrainable:
    """Minimize 0.5 * ||w - target||^2 over ``examples``; the gradient is
    (w - target), and ``seen`` records the examples visited."""

    def __init__(self, w, target, examples=("only",)):
        self.w = np.asarray(w, dtype=np.float64)
        self.target = np.asarray(target, dtype=np.float64)
        self.examples = list(examples)
        self.seen = []

    def __len__(self):
        return len(self.examples)

    def parameter_arrays(self):
        return {"w": self.w}

    def loss_and_grads(self, i):
        self.seen.append(self.examples[i])
        diff = self.w - self.target
        return 0.5 * float(diff @ diff), {"w": diff.copy()}

    def example_id(self, i):
        return f"ex-{self.examples[i]}"


class ExplodingTrainable(QuadraticTrainable):
    def loss_and_grads(self, i):
        return float("nan"), {"w": np.zeros_like(self.w)}


# ---------------------------------------------------------------------------
# Configuration and schedule
# ---------------------------------------------------------------------------


def test_defaults_match_documented_schedule():
    config = TrainConfig()
    assert config.lr0 == 0.09
    assert config.momentum == 0.09
    assert config.decay == 1e-4
    assert config.epochs == 14


@pytest.mark.parametrize(
    "kwargs",
    [{"lr0": 0.0}, {"lr0": -0.1}, {"epochs": -1}, {"momentum": -0.2}, {"momentum": 1.0},
     {"momentum": 3}, {"decay": -1e-4}],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs).validate()


def test_learning_rate_schedule():
    config = TrainConfig(lr0=0.09, decay=1e-4)
    # The very first update uses lr0 exactly.
    assert learning_rate(config, 0) == 0.09
    assert learning_rate(config, 1) == pytest.approx(0.09 / (1 + 1e-4))
    assert learning_rate(config, 10_000) == pytest.approx(0.09 / 2.0)
    # The schedule decays monotonically.
    rates = [learning_rate(config, u) for u in range(0, 5000, 500)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------------------
# Update semantics
# ---------------------------------------------------------------------------


def test_single_step_without_momentum_is_plain_sgd():
    trainable = QuadraticTrainable(w=[1.0, -2.0], target=[0.0, 0.0])
    w0 = trainable.w.copy()
    config = TrainConfig(lr0=0.1, momentum=0.0, decay=0.0, epochs=1)
    train(trainable, config)
    np.testing.assert_allclose(trainable.w, w0 - 0.1 * w0)


def test_two_steps_accumulate_momentum():
    # By hand: v1 = -lr*g0; w1 = w0 + v1; v2 = m*v1 - lr*g1; w2 = w1 + v2.
    trainable = QuadraticTrainable(w=[1.0], target=[0.0])
    config = TrainConfig(lr0=0.1, momentum=0.5, decay=0.0, epochs=2,
                         shuffle_each_epoch=False)
    train(trainable, config)
    w0 = 1.0
    v1 = -0.1 * w0
    w1 = w0 + v1
    v2 = 0.5 * v1 - 0.1 * w1
    w2 = w1 + v2
    np.testing.assert_allclose(trainable.w, [w2])


def test_decay_shrinks_later_steps():
    trainable = QuadraticTrainable(w=[1.0], target=[0.0])
    config = TrainConfig(lr0=0.1, momentum=0.0, decay=0.5, epochs=3,
                         shuffle_each_epoch=False)
    train(trainable, config)
    # Steps use lr 0.1, 0.1/1.5, 0.1/2.0 on the shrinking iterate.
    w = 1.0
    for u in range(3):
        w -= (0.1 / (1 + 0.5 * u)) * w
    np.testing.assert_allclose(trainable.w, [w])


def test_training_converges_on_quadratic():
    trainable = QuadraticTrainable(w=[5.0, -3.0, 2.0], target=[1.0, 1.0, 1.0],
                                   examples=range(5))
    config = TrainConfig(lr0=0.2, momentum=0.09, decay=0.0, epochs=60)
    log = train(trainable, config)
    np.testing.assert_allclose(trainable.w, [1.0, 1.0, 1.0], atol=1e-3)
    assert log.epoch_losses[-1] < log.epoch_losses[0]
    assert log.updates == 5 * 60


def test_log_counts_and_mean_losses():
    trainable = QuadraticTrainable(w=[2.0], target=[0.0], examples=["a", "b"])
    config = TrainConfig(lr0=0.01, momentum=0.0, decay=0.0, epochs=3)
    log = train(trainable, config)
    assert isinstance(log, TrainLog)
    assert log.updates == 6
    assert len(log.epoch_losses) == 3
    # First epoch's mean loss: both examples see nearly w=2 -> ~0.5*4.
    assert log.epoch_losses[0] == pytest.approx(2.0, rel=0.05)


# ---------------------------------------------------------------------------
# Shuffling and determinism
# ---------------------------------------------------------------------------


def test_epoch_shuffle_changes_order_but_stays_seeded():
    first = QuadraticTrainable(w=[0.0], target=[0.0], examples=range(10))
    config = TrainConfig(lr0=0.1, epochs=4, seed=11)
    train(first, config)
    assert sorted(first.seen[:10]) == list(range(10))
    assert sorted(first.seen[10:20]) == list(range(10))
    # Orders differ between epochs (10 elements; collision odds ~1/3.6M).
    assert first.seen[:10] != first.seen[10:20]

    second = QuadraticTrainable(w=[0.0], target=[0.0], examples=range(10))
    train(second, config)
    assert second.seen == first.seen


def test_shuffle_disabled_preserves_order():
    trainable = QuadraticTrainable(w=[0.0], target=[0.0], examples=["x", "y", "z"])
    config = TrainConfig(lr0=0.1, epochs=2, shuffle_each_epoch=False)
    train(trainable, config)
    assert trainable.seen == ["x", "y", "z", "x", "y", "z"]


def test_different_seed_changes_visit_order():
    a = QuadraticTrainable(w=[0.0], target=[0.0], examples=range(12))
    b = QuadraticTrainable(w=[0.0], target=[0.0], examples=range(12))
    train(a, TrainConfig(lr0=0.1, epochs=1, seed=0))
    train(b, TrainConfig(lr0=0.1, epochs=1, seed=1))
    assert a.seen != b.seen


# ---------------------------------------------------------------------------
# Edge cases and failures
# ---------------------------------------------------------------------------


def test_zero_epochs_touches_nothing():
    trainable = QuadraticTrainable(w=[3.0], target=[0.0])
    log = train(trainable, TrainConfig(epochs=0))
    np.testing.assert_array_equal(trainable.w, [3.0])
    assert log.updates == 0
    assert log.epoch_losses == []


def test_empty_examples_rejected_when_training_requested():
    trainable = QuadraticTrainable(w=[1.0], target=[0.0], examples=[])
    with pytest.raises(ConfigError):
        train(trainable, TrainConfig(epochs=1))
    # Zero epochs over zero examples is a no-op, not an error.
    assert train(trainable, TrainConfig(epochs=0)).updates == 0


def test_nonfinite_loss_aborts_with_example_id():
    trainable = ExplodingTrainable(w=[1.0], target=[0.0], examples=["boom"])
    with pytest.raises(NumericError) as err:
        train(trainable, TrainConfig(epochs=1))
    assert "ex-boom" in str(err.value)


def test_epoch_callback_sees_every_epoch():
    trainable = QuadraticTrainable(w=[1.0], target=[0.0], examples=["a", "b"])
    calls = []
    train(
        trainable,
        TrainConfig(lr0=0.1, epochs=3),
        epoch_callback=lambda epoch, mean_loss, t: calls.append((epoch, mean_loss)),
    )
    assert [c[0] for c in calls] == [0, 1, 2]
    assert all(np.isfinite(c[1]) for c in calls)


# ---------------------------------------------------------------------------
# Column-sparse gradients
# ---------------------------------------------------------------------------


class DensifiedTrainable(PopTrainable):
    """The same network, with every gradient handed over as a dense array."""

    def loss_and_grads(self, i):
        value, grads = super().loss_and_grads(i)
        return value, {name: np.asarray(g) for name, g in grads.items()}


def _random_acts(n_acts, d_query, d_cand, seed, one_hot=True):
    """A split of random acts of 2-4 candidates, golds cycling point/miss/mult."""
    rng = Rng(seed)
    golds = [Gold.point(0), Gold.miss(), Gold.mult(), Gold.point(1)]
    acts = []
    for i in range(n_acts):
        if one_hot:
            query = np.zeros(d_query)
            query[rng.randrange(d_query)] = 1.0
        else:
            query = rng.normals(d_query)
        acts.append(EncodedAct(
            query_vec=query,
            candidates=np.array([rng.normals(d_cand)
                                 for _ in range(2 + rng.randrange(3))]),
            gold=golds[i % len(golds)],
            act_id=f"oh-{i}",
        ))
    return EncodedSplit.of(acts)


def _assert_same_training(sparse, dense, train_config):
    assert isinstance(sparse.loss_and_grads(0)[1]["query_map"], ColumnSparse)
    log_sparse = train(sparse, train_config)
    log_dense = train(dense, train_config)
    assert log_sparse.epoch_losses == log_dense.epoch_losses
    for name, arr in sparse.parameter_arrays().items():
        assert np.array_equal(arr, dense.parameter_arrays()[name]), name


@pytest.mark.parametrize("use_bias", [False, True])
def test_column_sparse_update_is_bit_identical_to_dense(use_bias):
    config = PopConfig(d_query=20, d_cand=6, d_ent=8, n_sensors=4, use_bias=use_bias)
    acts = _random_acts(60, config.d_query, config.d_cand, seed=17)
    train_config = TrainConfig(lr0=0.1, momentum=0.9, epochs=1, seed=3)
    _assert_same_training(PopTrainable(init_params(config, Rng(5)), acts),
                          DensifiedTrainable(init_params(config, Rng(5)), acts),
                          train_config)


@pytest.mark.parametrize("task, hot", [("object-only", 1), ("object-attr", 2)])
def test_encoded_one_hot_split_step_is_bit_identical_to_dense(small_world, task, hot):
    """A generated split encoded one-hot: a 1-hot object-only query, whose
    candidates are rows of the world's image table, and a 2-hot object-attr
    query.  The column-sparse step gives the weights of the dense one."""
    acts = generate_splits(small_world, DatasetSpec(n_train=40, n_val=0, n_test=0,
                                                    seed=6), task)["train"]
    split = encode_split(small_world, acts, "one-hot")
    assert {int(np.count_nonzero(query)) for query in split.queries} == {hot}
    config = PopConfig(d_query=split.d_query, d_cand=split.d_cand, d_ent=8,
                       n_sensors=4)
    train_config = TrainConfig(lr0=0.1, momentum=0.9, epochs=2, seed=3)
    _assert_same_training(PopTrainable(init_params(config, Rng(5)), split),
                          DensifiedTrainable(init_params(config, Rng(5)), split),
                          train_config)


def test_split_with_a_point_gold_beyond_its_lineup_fails_before_training():
    config = PopConfig(d_query=3, d_cand=2, d_ent=3, n_sensors=2)
    acts = [EncodedAct(np.ones(3), np.ones((n, 2)), gold, f"g-{i}")
            for i, (n, gold) in enumerate([(2, Gold.point(1)), (3, Gold.miss()),
                                           (2, Gold.point(2)), (2, Gold.point(0))])]
    params = init_params(config, Rng(5))
    before = params.copy()
    for make in (PopTrainable, PipelineTrainable):
        if make is PipelineTrainable:
            params = init_pipeline_params(PipelineConfig(d_query=3, d_cand=2, d_shared=3),
                                          Rng(5))
            before = params.copy()
        with pytest.raises(ContractViolation, match="act 'g-2'.*gold index 2"):
            train(make(params, EncodedSplit.of(acts)), TrainConfig(epochs=1))
        for name, arr in params.named_arrays().items():
            assert np.array_equal(arr, before.named_arrays()[name]), name
    # A hand-made act's gold is validated as the split is stacked.
    with pytest.raises(ValidationError, match="negative gold index"):
        EncodedSplit.of([EncodedAct(np.ones(3), np.ones((2, 2)), Gold.point(-1))])


def test_nonfinite_loss_names_the_act():
    config = PopConfig(d_query=2, d_cand=2, d_ent=3, n_sensors=2)
    acts = _random_acts(6, 2, 2, seed=8, one_hot=False)
    acts.table[acts.offsets[3]] = np.nan  # a candidate of act oh-3 only
    with pytest.raises(NumericError, match="act 'oh-3': non-finite"):
        train(PopTrainable(init_params(config, Rng(5)), acts), TrainConfig(epochs=1))


def test_infinite_weight_behind_a_saturated_squash_names_the_first_act():
    # The sigmoid squash saturates, so the logits stay finite; backward
    # would turn 0 * inf into NaN updates (a RuntimeWarning, which the
    # suite's filterwarnings makes an error) and name the next act.
    config = PopConfig(d_query=2, d_cand=2, d_ent=3, n_sensors=2)
    params = init_params(config, Rng(5))
    params.sensor_out[:] = np.inf
    params.sensor_in[:] = 1.0
    acts = _random_acts(6, 2, 2, seed=8, one_hot=False)
    with pytest.raises(NumericError, match="act 'oh-0': non-finite anomaly score"):
        train(PopTrainable(params, acts), TrainConfig(epochs=1, shuffle_each_epoch=False))


def _reference_train(trainable, config):
    """:func:`train` with one velocity array per parameter array and
    ``v *= m; v -= lr * grad; arr += v``: the update loop as first written,
    kept to pin the trainer's bits.  Returns the log and every loss."""
    arrays = trainable.parameter_arrays()
    velocities = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    shuffle_rng = Rng(derive_seed(config.seed, "epoch-shuffle"))
    log, losses = TrainLog(), []
    for _ in range(config.epochs):
        order = list(range(len(trainable)))
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        for position in order:
            value, grads = trainable.loss_and_grads(position)
            losses.append(value)
            epoch_loss += value
            lr = learning_rate(config, log.updates)
            for name, arr in arrays.items():
                v = velocities[name]
                v *= config.momentum
                grad = grads[name]
                if isinstance(grad, ColumnSparse):
                    v[:, grad.cols] -= lr * grad.block
                else:
                    v -= lr * grad
                arr += v
            log.updates += 1
        log.epoch_losses.append(epoch_loss / len(trainable))
    return log, losses


def _pop_case(one_hot):
    config = PopConfig(d_query=20, d_cand=6, d_ent=8, n_sensors=4,
                       use_bias=not one_hot)
    acts = _random_acts(40, config.d_query, config.d_cand, seed=23,
                        one_hot=one_hot)
    return lambda: PopTrainable(init_params(config, Rng(5)), acts)


def _pipeline_case():
    """40 one-triple acts: a query, its gold candidate and one other."""
    config = PipelineConfig(d_query=5, d_cand=4, d_shared=6, margin=0.3)
    rng = Rng(29)
    acts = EncodedSplit.of([
        EncodedAct(rng.normals(5), np.array([rng.normals(4), rng.normals(4)]),
                   Gold.point(0), f"h-{i}")
        for i in range(40)])
    return lambda: PipelineTrainable(init_pipeline_params(config, Rng(5)), acts)


@pytest.mark.parametrize("case", ["pop", "trpop", "pipeline"])
def test_train_is_bit_identical_to_the_per_array_reference(case):
    """Dense query (``pop``), one-hot query through :class:`ColumnSparse`
    (``trpop``), and hinge triples, some of them inactive (``pipeline``)."""
    make = _pipeline_case() if case == "pipeline" else _pop_case(case == "trpop")
    config = TrainConfig(lr0=0.1, momentum=0.9, decay=1e-2, epochs=2, seed=3)
    reference, trained = make(), make()
    ref_log, losses = _reference_train(reference, config)
    log = train(trained, config)

    assert log.epoch_losses == ref_log.epoch_losses
    assert log.updates == ref_log.updates == 2 * len(trained) == 80
    for name, arr in reference.parameter_arrays().items():
        assert trained.parameter_arrays()[name].tobytes() == arr.tobytes(), name
    grad = trained.loss_and_grads(0)[1]["query_map"]
    assert isinstance(grad, ColumnSparse) == (case == "trpop")
    if case == "pipeline":
        assert 0.0 in losses and max(losses) > 0.0


def test_column_sparse_any_reads_columns_only():
    grad = ColumnSparse(np.array([1]), np.ones((3, 1)), 4)
    np.testing.assert_array_equal(grad.any(axis=0), [False, True, False, False])
    with pytest.raises(ContractViolation):
        grad.any(axis=1)


@pytest.mark.parametrize("check", [
    lambda trials: gradcheck(lambda trial: "never drawn", trials),
    lambda trials: gradcheck_pop(trials=trials),
    lambda trials: gradcheck_pipeline(trials=trials),
], ids=["gradcheck", "gradcheck_pop", "gradcheck_pipeline"])
@pytest.mark.parametrize("trials", [0, -3])
def test_gradcheck_rejects_fewer_than_one_trial(check, trials):
    with pytest.raises(ConfigError, match="at least one trial"):
        check(trials)


@pytest.mark.parametrize("name", ["tolerance", "h"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-4])
def test_gradcheck_rejects_a_tolerance_or_step_that_is_not_finite_and_positive(
        name, value):
    with pytest.raises(ConfigError, match=name):
        gradcheck_pop(trials=1, **{name: value})
    with pytest.raises(ConfigError, match=name):
        gradcheck_pipeline(trials=1, **{name: value})
