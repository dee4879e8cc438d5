"""Online stochastic gradient descent with momentum and learning-rate decay.

The trainer is model-agnostic: anything exposing ``parameter_arrays()``
(name -> live numpy array), ``column_sparse`` (the names whose gradients
come as :class:`ColumnSparse`), ``len()`` (its number of examples),
``loss_and_grads(i)`` (scalar loss plus gradients under the same names) and
``example_id(i)`` can be trained.  Updates are applied one example at a time
— no minibatching.

Schedule: at cumulative update count u (starting from 0, so the very first
step uses ``lr0`` exactly), the step size is ``lr0 / (1 + decay * u)``.
Heavy-ball momentum with zero-initialized velocity:
``velocity = momentum * velocity - lr_u * grad; param += velocity``.

``loss_and_grads`` may leave out a name whose gradient is exactly zero (an
inactive hinge step of the pipeline leaves out both of its maps).  The
trainer then only decays that array's velocity and adds it:
``v - lr_u * 0 == v`` for every finite ``v``, -0.0 included, so the weights
keep the bits of the update with an explicit zero gradient.

The velocities of the dense arrays live in one flat buffer, so their
momentum decay is one numpy call per update; each array updates through
its view of it.  The trainer scales each gradient by ``lr_u`` in place: it
owns, and may overwrite, the gradient arrays ``loss_and_grads`` hands it.
The weights are bit-identical to a per-array update with a fresh
``lr_u * grad``.

An array named in ``column_sparse``, whose gradients are zero outside a few
columns (the query-map gradient of a one-hot split), keeps a velocity only
for its *live* columns (:class:`_ColumnVelocity`), and writes them back
into the array on every update, so the array is always current.  A column
retires once no later velocity can move one of its weights, and is
revived, with its velocity caught up exactly, when a gradient touches it
again.  The weights stay bit-identical to the dense update; the two rules
and why they are exact are in :class:`_ColumnVelocity`.  Nothing but the
trainer may write the arrays while it runs.
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
        if not 0 <= self.momentum < 1:
            # Heavy-ball momentum at 1 or above never decays the velocity.
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.decay < 0:
            raise ConfigError(f"decay must be >= 0, got {self.decay}")


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
        """A deep copy; each array keeps its memory layout (a column-major
        array stays column-major)."""
        return dataclasses.replace(
            self, **{name: arr.copy(order="K") for name, arr in self.named_arrays().items()}
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
    """The trainer's handle on a model: its :class:`Params`, the encoded
    split it trains on (its dimensions checked here, once) and, in a
    subclass, ``len`` and ``loss_and_grads(i) -> (loss, {name: gradient})``.

    Each gradient is a fresh float array (or :class:`ColumnSparse` block)
    that nothing else holds: :func:`train` scales it in place.  A name left
    out of the dict is an exact zero gradient.  ``column_sparse`` declares,
    for the whole run, the names whose gradients are :class:`ColumnSparse`;
    every other array's gradients are dense."""

    column_sparse: frozenset[str] = frozenset()

    def __init__(self, params: Params, split):
        split.require_dims(params.config.d_query, params.config.d_cand)
        self.params = params
        self.split = split

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return self.params.named_arrays()

    def example_id(self, i: int) -> str:
        return self.split.ids[i]


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


# |v| < |w| * 2**-55, tested as |v| * 2**55 < |w| (a power-of-two scaling,
# exact short of overflow): |v| is then under a quarter of the gap between w
# and either neighbouring double, so fl(w + v) == w.
_EXACT_SHIFT = 2.0 ** 55
_SMALLEST_NORMAL = 2.0 ** -1022
# Live columns are checked for retirement on every 4th update: a check costs
# about as much as the rest of a one-hot update, and a column that retires a
# few updates late only costs those updates' adds (which are exact anyway).
_RETIRE_EVERY = 4


def _decay_bounds(momentum: float) -> list[float]:
    """``P`` with ``P[j] >= (m * (1 + 2**-53))**j`` for every ``j`` (reading
    ``P[min(j, len(P) - 1)]``), where ``m * (1 + 2**-53)`` bounds one rounded
    decay of a normal number.

    ``P[0] = 1 + 2**-30`` and ``P[j] = fl(P[j-1] * fl(m * (1 + 2**-30)))``.
    Each step loses at most two roundings of ``2**-53``, which the ``2**-30``
    slack covers, so by induction ``P[j] >= m'**j * (1 + 2**-30)``; the extra
    ``(1 + 2**-30)`` is left for the one product that uses the bound.  The
    table stops before an entry would fall below ``2**-1000`` (where
    rounding is no longer relative) or past 4096 entries; ``m' < 1`` makes
    the last entry a bound for every later ``j``.
    """
    factor = momentum * (1.0 + 2.0 ** -30)
    bounds = [1.0 + 2.0 ** -30]
    while len(bounds) < 4096 and bounds[-1] * factor >= 2.0 ** -1000:
        bounds.append(bounds[-1] * factor)
    return bounds


class _ColumnVelocity:
    """The momentum velocity of one ``rows x cols`` array, kept column by
    column for the columns whose update can still move a weight.

    A *live* column's velocity is a row of ``velocity`` (slot ``slot[c]``);
    every update decays the live rows, subtracts the scaled gradient from
    the touched ones and adds them to their columns of the array, exactly
    as the dense update does.  The columns are read and written as rows of
    ``arr.T``, each a contiguous block when ``arr`` is column-major (as a
    one-hot model's query map is, :func:`~popref.pop_model.laid_out`).
    Every other column is *retired*: ``saved[c]`` is its velocity when it
    retired, at update ``retired_at[c]``, and the dense update would only
    decay that velocity and add it to weights it cannot move.  At the start every velocity is zero and every column
    retires at once (update -1) unless it holds a zero weight.

    * **Retire.**  A live column retires, at the next check, once every
      entry has ``|v| < |w| * 2**-55`` (so ``w != 0``).  Then
      ``fl(w + v') == w`` for every later velocity ``v'`` of the column,
      since each decay only shrinks ``|v'|`` (round to nearest is monotone
      and ``m < 1``), and skipping its adds is exact.
    * **Revive.**  A gradient touches a retired column ``k`` updates after
      it retired, with scaled block ``g``.  The dense update would subtract
      ``g`` from ``u``, the saved velocity decayed ``k`` times.  Each
      rounded decay of a normal number grows it by at most ``1 + 2**-53``
      over ``m * |x|``, and a decay into the subnormals gives at most
      ``2**-1022``; so ``|u| <= max(max|saved| * m'**k, 2**-1022)`` with
      ``m' = m * (1 + 2**-53)``.  ``B = fl(max|saved| * P[k])``
      (:func:`_decay_bounds`) is at least ``max|saved| * m'**k`` whenever it
      is normal, and ``max(B, 2**-1022)`` bounds ``|u|`` either way.  If that
      bound is below ``|g| * 2**-55`` in every entry, ``fl(u - g) == -g``
      (the retire argument with ``-g`` for ``w``), so the new velocity is
      ``-g``.  Otherwise -- always when ``g`` holds an exact zero -- the
      ``k`` decays are replayed one multiply at a time, stopping early at a
      fixed point, then ``g`` is subtracted.
    """

    def __init__(self, arr: np.ndarray, momentum: float):
        n_rows, n_cols = arr.shape
        self.arr = arr
        self.momentum = momentum
        self.decay_bounds = _decay_bounds(momentum)
        # Slot s holds the velocity and the weights of column live[s].
        self.velocity = np.zeros((n_cols, n_rows))
        self.weights = arr.T.copy()
        self.live = np.arange(n_cols)
        self.n_live = n_cols
        self.slot = list(range(n_cols))  # column -> slot, -1 when retired
        self.saved = np.zeros((n_cols, n_rows))
        self.saved_max = [0.0] * n_cols
        self.retired_at = [-1] * n_cols
        self._abs_velocity = np.empty((n_cols, n_rows))
        self._abs_weights = np.empty((n_cols, n_rows))
        self._still = np.empty((n_cols, n_rows), dtype=bool)
        self._retire(-1)

    def update(self, grad: ColumnSparse | None, lr: float, step: int) -> None:
        """Apply update ``step`` with ``lr * grad``, scaling ``grad.block``
        in place; ``None`` is a zero gradient, which touches no column."""
        velocity = self.velocity
        velocity[:self.n_live] *= self.momentum
        if grad is not None:
            self._touch(grad, lr, step)
        n_live = self.n_live
        weights = self.weights[:n_live]
        weights += velocity[:n_live]
        self.arr.T[self.live[:n_live]] = weights
        if step % _RETIRE_EVERY == 0:
            self._retire(step)

    def _touch(self, grad: ColumnSparse, lr: float, step: int) -> None:
        """Subtract ``lr * grad`` from the decayed velocities of its columns,
        reviving each retired one."""
        cols, block, velocity = grad.cols, grad.block, self.velocity
        block *= lr
        for j, col in enumerate(cols.tolist()):
            grad = block[:, j]
            slot = self.slot[col]
            if slot >= 0:
                velocity[slot] -= grad
                continue
            slot = self.n_live
            k = step - self.retired_at[col]
            bound = self.saved_max[col] * self.decay_bounds[
                min(k, len(self.decay_bounds) - 1)]
            if max(bound, _SMALLEST_NORMAL) * _EXACT_SHIFT < np.abs(grad).min():
                np.negative(grad, out=velocity[slot])
            else:
                caught_up = self.saved[col].copy()
                for _ in range(k):
                    decayed = caught_up * self.momentum
                    if np.array_equal(decayed, caught_up):
                        break  # every later decay gives the same bits
                    caught_up = decayed
                np.subtract(caught_up, grad, out=velocity[slot])
            self.weights[slot] = self.arr.T[col]
            self.live[slot] = col
            self.slot[col] = slot
            self.n_live += 1

    def _retire(self, step: int) -> None:
        """Retire the live slots whose velocity can no longer move their
        weights."""
        n_live = self.n_live
        velocity, weights, live = self.velocity, self.weights, self.live
        speed = np.abs(velocity[:n_live], out=self._abs_velocity[:n_live])
        speed *= _EXACT_SHIFT
        still = np.less(speed, np.abs(weights[:n_live], out=self._abs_weights[:n_live]),
                        out=self._still[:n_live])
        # Descending, so a slot moved down from the end is never one that
        # still has to retire.
        for slot in np.flatnonzero(still.all(axis=1))[::-1].tolist():
            col = int(live[slot])
            self.saved[col] = velocity[slot]
            self.saved_max[col] = float(speed[slot].max()) / _EXACT_SHIFT
            self.retired_at[col] = step
            self.slot[col] = -1
            n_live -= 1
            if slot != n_live:
                velocity[slot] = velocity[n_live]
                weights[slot] = weights[n_live]
                moved = int(live[n_live])
                live[slot] = moved
                self.slot[moved] = slot
        self.n_live = n_live


def train(trainable, config: TrainConfig, epoch_callback=None) -> TrainLog:
    """Run online SGD over the trainable's examples for ``config.epochs`` passes.

    Mutates the trainable's parameter arrays, and the gradient arrays it is
    handed, in place and returns the loss log.  Example order is reshuffled
    each epoch from a seeded stream when ``shuffle_each_epoch`` is set.
    ``epoch_callback(epoch, mean_loss, trainable)``, when given, runs after
    every epoch — handy for validation diagnostics.  A non-finite loss
    aborts with the offending example's id.
    """
    config.validate()
    n_examples = len(trainable)
    if not n_examples and config.epochs > 0:
        raise ConfigError("training needs at least one example")
    arrays = trainable.parameter_arrays()
    velocity, views, by_column = _lay_out_velocity(arrays, trainable.column_sparse,
                                                   config.momentum)
    shuffle_rng = Rng(derive_seed(config.seed, "epoch-shuffle"))
    log = TrainLog()

    for epoch in range(config.epochs):
        order = list(range(n_examples))
        if config.shuffle_each_epoch:
            shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        for i in order:
            value, grads = trainable.loss_and_grads(i)
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss {value!r} at epoch {epoch}, "
                                   f"example {trainable.example_id(i)}")
            epoch_loss += value
            lr = learning_rate(config, log.updates)
            velocity *= config.momentum
            for name, arr, v in views:
                grad = grads.get(name)
                if grad is not None:
                    grad *= lr
                    v -= grad
                arr += v
            for name, columns in by_column:
                columns.update(grads.get(name), lr, log.updates)
            log.updates += 1
        log.epoch_losses.append(epoch_loss / n_examples)
        if epoch_callback is not None:
            epoch_callback(epoch, log.epoch_losses[-1], trainable)
    return log


def _lay_out_velocity(arrays: dict, column_sparse, momentum: float):
    """The flat velocity buffer of the dense arrays, with ``(name, array,
    view)`` for each, and a :class:`_ColumnVelocity` for each array named in
    ``column_sparse``, as the trainable declares them before the first step
    (which may leave every name out)."""
    dense = {name: arr for name, arr in arrays.items() if name not in column_sparse}
    velocity = np.zeros(sum(arr.size for arr in dense.values()))
    views, offset = [], 0
    for name, arr in dense.items():
        views.append((name, arr, velocity[offset:offset + arr.size].reshape(arr.shape)))
        offset += arr.size
    by_column = [(name, _ColumnVelocity(arr, momentum))
                 for name, arr in arrays.items() if name in column_sparse]
    return velocity, views, by_column


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

    ``sample(trial)`` returns ``(trainable, context)``: a :class:`Trainable`
    over freshly drawn params and a one-act split whose example 0 keeps the
    loss away from its kinks, and text appended to a failure line.  It
    returns a string instead when it could not draw one.  The finite
    differences run the trainable's own ``loss_and_grads(0)`` on a copy of
    the params, over every coordinate of every array.  Fewer than one trial,
    or a ``tolerance`` or ``h`` that is not a finite number > 0, is a
    :class:`ConfigError`: a check of nothing must not pass.
    """
    if trials < 1:
        raise ConfigError(f"gradcheck needs at least one trial, got {trials}")
    for name, value in (("tolerance", tolerance), ("h", h)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"gradcheck {name} must be finite and > 0, got {value}")
    max_err = 0.0
    failures: list[str] = []
    for trial in range(trials):
        drawn = sample(trial)
        if isinstance(drawn, str):
            failures.append(f"trial {trial}: {drawn}")
            continue
        trainable, context = drawn
        arrays = trainable.parameter_arrays()
        _, grads = trainable.loss_and_grads(0)
        analytic = flatten_arrays({  # a name left out is an exact zero gradient
            name: np.asarray(grads[name]) if name in grads else np.zeros_like(arr)
            for name, arr in arrays.items()})
        probe = type(trainable)(trainable.params.copy(), trainable.split)

        def objective(vec: np.ndarray) -> float:
            unflatten_into(probe.parameter_arrays(), vec)
            return probe.loss_and_grads(0)[0]

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
