"""Online stochastic gradient descent with momentum and learning-rate decay.

The trainer is model-agnostic: anything exposing ``parameter_arrays()``
(name -> live numpy array) and ``loss_and_grads(example)`` (scalar loss plus
gradients under the same names) can be trained.  Updates are applied one
example at a time — no minibatching.

Schedule: at cumulative update count u (starting from 0, so the very first
step uses ``lr0`` exactly), the step size is ``lr0 / (1 + decay * u)``.
Heavy-ball momentum with zero-initialized velocity:
``velocity = momentum * velocity - lr_u * grad; param += velocity``.

The velocities of all arrays live in one flat buffer, so the momentum decay
is one numpy call per update; each array updates through its view of it.
The trainer scales each gradient by ``lr_u`` in place: it owns, and may
overwrite, the gradient arrays ``loss_and_grads`` hands it.  The weights are
bit-identical to a per-array update with a fresh ``lr_u * grad``.

A gradient may come as a :class:`ColumnSparse` matrix, zero outside a few
columns (the query-map gradient of a one-hot query).  The trainer then
subtracts ``lr_u * grad`` from those columns of the velocity only; the
momentum decay and ``param += velocity`` stay dense, so the weights are
bit-identical to a dense update.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError
from .numerics import (
    Rng,
    derive_seed,
    finite_diff_grad,
    flatten_arrays,
    glorot_uniform,
    rel_error,
    require_finite,
    unflatten_into,
)


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.09
    momentum: float = 0.09
    decay: float = 1e-4
    epochs: int = 14
    seed: int = 0
    shuffle_each_epoch: bool = True

    def validate(self) -> None:
        require_finite(lr0=self.lr0, momentum=self.momentum, decay=self.decay)
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.momentum < 0 or self.decay < 0:
            raise ConfigError("momentum and decay must be >= 0")


class Params:
    """A model's learned arrays, declared once in :meth:`shapes`.

    A subclass is a dataclass with a ``config`` field and one field per
    array; :meth:`shapes` maps each array present under ``config`` to its
    shape, in a fixed order.  Naming, copying, validating and initialising
    the arrays, the checkpoint codec and :func:`gradcheck` all read it.
    """

    @staticmethod
    def shapes(config) -> dict[str, tuple[int, ...]]:
        raise NotImplementedError

    @classmethod
    def init(cls, config, rng: Rng) -> "Params":
        """Glorot-uniform matrices (bound sqrt(6 / (fan_in + fan_out))) and
        zero vectors, drawn in table order."""
        config.validate()
        return cls(config=config, **{
            name: glorot_uniform(rng, *shape) if len(shape) == 2 else np.zeros(shape)
            for name, shape in cls.shapes(config).items()
        })

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Live references to every learned array, in table order."""
        return {name: getattr(self, name) for name in self.shapes(self.config)}

    def copy(self) -> "Params":
        return dataclasses.replace(
            self, **{name: arr.copy() for name, arr in self.named_arrays().items()}
        )

    def validate(self) -> None:
        for name, shape in self.shapes(self.config).items():
            arr = getattr(self, name)
            if arr is None or arr.shape != shape:
                raise ContractViolation(
                    f"parameter {name} has shape "
                    f"{None if arr is None else arr.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ContractViolation(f"parameter {name} holds non-finite entries")


class Trainable:
    """The trainer's handle on a model: its :class:`Params` and, in a
    subclass, ``loss_and_grads(example) -> (loss, {array name: gradient})``.

    Each gradient is a fresh float array (or :class:`ColumnSparse` block)
    that nothing else holds: :func:`train` scales it in place."""

    def __init__(self, params: Params):
        self.params = params

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return self.params.named_arrays()


class ColumnSparse:
    """A ``rows x n_cols`` matrix that is zero outside the columns ``cols``.

    ``block[:, j]`` is column ``cols[j]``; ``cols`` is sorted and unique.
    It offers what a reader of the dense matrix's sparsity needs (``shape``,
    ``ndim``, ``size``, ``any(axis=0)``), and :meth:`toarray` (or
    ``np.asarray``) densifies it.
    """

    ndim = 2

    def __init__(self, cols: np.ndarray, block: np.ndarray, n_cols: int):
        self.cols = cols
        self.block = block
        self.shape = (block.shape[0], n_cols)

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def any(self, axis=0) -> np.ndarray:
        """Which columns hold a nonzero entry."""
        if axis != 0:
            raise ContractViolation(f"ColumnSparse.any takes axis 0, got {axis}")
        out = np.zeros(self.shape[1], dtype=bool)
        out[self.cols] = self.block.any(axis=0)
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.block.dtype)
        out[:, self.cols] = self.block
        return out

    def __array__(self, dtype=None, copy=None):
        out = self.toarray()
        return out if dtype is None else out.astype(dtype, copy=False)


def learning_rate(config: TrainConfig, update_count: int) -> float:
    """Step size at a given cumulative update count (0-based)."""
    return config.lr0 / (1.0 + config.decay * update_count)


@dataclass
class TrainLog:
    epoch_losses: list[float] = field(default_factory=list)
    updates: int = 0


def train(trainable, examples, config: TrainConfig, epoch_callback=None) -> TrainLog:
    """Run online SGD over the examples for ``config.epochs`` passes.

    Mutates the trainable's parameter arrays, and the gradient arrays it is
    handed, in place and returns the loss log.  Example order is reshuffled
    each epoch from a seeded stream when ``shuffle_each_epoch`` is set.
    ``epoch_callback(epoch, mean_loss, trainable)``, when given, runs after
    every epoch — handy for validation diagnostics.  A non-finite loss
    aborts with the offending example's id.
    """
    config.validate()
    examples = list(examples)
    if not examples and config.epochs > 0:
        raise ConfigError("training needs at least one example")
    arrays = trainable.parameter_arrays()
    # One velocity buffer, decayed in one call; a view of it per array.
    velocity = np.zeros(sum(arr.size for arr in arrays.values()))
    views, offset = [], 0
    for name, arr in arrays.items():
        views.append((name, arr, velocity[offset:offset + arr.size].reshape(arr.shape)))
        offset += arr.size
    shuffle_rng = Rng(derive_seed(config.seed, "epoch-shuffle"))
    log = TrainLog()

    for epoch in range(config.epochs):
        order = list(range(len(examples)))
        if config.shuffle_each_epoch:
            shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        for position in order:
            example = examples[position]
            value, grads = trainable.loss_and_grads(example)
            if not math.isfinite(value):
                name_of = getattr(trainable, "example_id", None)
                label = name_of(example) if name_of else f"#{position}"
                raise NumericError(
                    f"non-finite loss {value!r} at epoch {epoch}, example {label}"
                )
            epoch_loss += value
            lr = learning_rate(config, log.updates)
            velocity *= config.momentum
            for name, arr, v in views:
                grad = grads[name]
                if isinstance(grad, ColumnSparse):
                    grad.block *= lr
                    v[:, grad.cols] -= grad.block
                else:
                    grad *= lr
                    v -= grad
                arr += v
            log.updates += 1
        log.epoch_losses.append(epoch_loss / len(examples) if examples else 0.0)
        if epoch_callback is not None:
            epoch_callback(epoch, log.epoch_losses[-1], trainable)
    return log


@dataclass
class GradcheckReport:
    passed: bool
    trials: int
    max_rel_error: float
    tolerance: float
    failures: list[str] = field(default_factory=list)


def gradcheck(sample, trials: int, tolerance: float = 1e-4,
              h: float = 1e-5) -> GradcheckReport:
    """Compare a model's analytic gradients to central finite differences.

    ``sample(trial)`` returns ``(trainable, example, context)``: a
    :class:`Trainable` over freshly drawn params, an example that keeps the
    loss away from its kinks, and text appended to a failure line.  It
    returns a string instead when it could not draw one.  The finite
    differences run the trainable's own ``loss_and_grads`` on a copy of the
    params, over every coordinate of every array.  Fewer than one trial is
    a :class:`ConfigError`: a check of nothing must not pass.
    """
    if trials < 1:
        raise ConfigError(f"gradcheck needs at least one trial, got {trials}")
    max_err = 0.0
    failures: list[str] = []
    for trial in range(trials):
        drawn = sample(trial)
        if isinstance(drawn, str):
            failures.append(f"trial {trial}: {drawn}")
            continue
        trainable, example, context = drawn
        arrays = trainable.parameter_arrays()
        _, grads = trainable.loss_and_grads(example)
        analytic = flatten_arrays({name: np.asarray(grads[name]) for name in arrays})
        probe = type(trainable)(trainable.params.copy())

        def objective(vec: np.ndarray) -> float:
            unflatten_into(probe.parameter_arrays(), vec)
            return probe.loss_and_grads(example)[0]

        err = rel_error(analytic, finite_diff_grad(objective, flatten_arrays(arrays), h=h))
        max_err = max(max_err, err)
        if err >= tolerance:
            failures.append(f"trial {trial}: rel error {err:.3e}{context}")
    return GradcheckReport(
        passed=not failures,
        trials=trials,
        max_rel_error=max_err,
        tolerance=tolerance,
        failures=failures,
    )
