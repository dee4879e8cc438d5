"""Column velocities (``training._ColumnVelocity``) give the bits of the
dense momentum update.

The reference is the trainer as it stood with one flat velocity buffer for
every array, kept verbatim below.  Both trainers run on a scripted trainable
whose gradients are drawn up front, and every parameter array must match bit
for bit (``tobytes``, so a -0.0 counts) after every epoch.
"""

import math

import numpy as np
import pytest

from popref.errors import ConfigError, NumericError
from popref.numerics import Rng, derive_seed
from popref.training import (
    ColumnSparse,
    TrainConfig,
    TrainLog,
    _ColumnVelocity,
    learning_rate,
    train,
)


# The flat-buffer trainer, verbatim but for its name.
def flat_buffer_train(trainable, config: TrainConfig, epoch_callback=None) -> TrainLog:
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
    # One velocity buffer, decayed in one call; a view of it per array.
    velocity = np.zeros(sum(arr.size for arr in arrays.values()))
    views, offset = [], 0
    for name, arr in arrays.items():
        views.append((name, arr, velocity[offset:offset + arr.size].reshape(arr.shape)))
        offset += arr.size
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
                grad = grads[name]
                if isinstance(grad, ColumnSparse):
                    grad.block *= lr
                    v[:, grad.cols] -= grad.block
                else:
                    grad *= lr
                    v -= grad
                arr += v
            log.updates += 1
        log.epoch_losses.append(epoch_loss / n_examples)
        if epoch_callback is not None:
            epoch_callback(epoch, log.epoch_losses[-1], trainable)
    return log


class ScriptedTrainable:
    """Hands out the ``n``-th scripted gradients on its ``n``-th call, as
    fresh arrays; a script entry maps a name to a dense array or to
    ``(cols, block)`` for a :class:`ColumnSparse`, and a name it leaves out
    is left out of the gradients."""

    column_sparse = frozenset({"q"})

    def __init__(self, arrays, script, n_examples):
        self.arrays = {name: arr.copy() for name, arr in arrays.items()}
        self.script = script
        self.n_examples = n_examples
        self.calls = 0

    def __len__(self):
        return self.n_examples

    def parameter_arrays(self):
        return self.arrays

    def example_id(self, i):
        return f"s-{i}"

    def loss_and_grads(self, i):
        entry = self.script[self.calls]
        self.calls += 1
        grads = {}
        for name, grad in entry.items():
            if isinstance(grad, tuple):
                cols, block = grad
                grads[name] = ColumnSparse(cols.copy(), block.copy(),
                                           self.arrays[name].shape[1])
            else:
                grads[name] = grad.copy()
        return float(i % 7), grads


N_EXAMPLES, EPOCHS = 100, 12
STEPS = N_EXAMPLES * EPOCHS
ROWS, COLS = 7, 13
REGULAR = [0, 1, 2, 3, 6, 7, 9, 12]  # 9 always gets exact zeros
TINY = [4, 5]  # touched every 1-3 steps, by blocks that cannot move a weight
GAP_COL, GAP_TOUCHES = 8, (120, 640, 641, 1100)  # 520 steps untouched
ZERO_WEIGHTS = ((2, 10), (4, 11))  # 0.0 and -0.0, never moved: never retire
EDGE = 12  # blocks 2**-50 to 2**-55 of the weights: near the retire threshold
FULL_WIDTH = (150, 900, 1150)  # a block over every column of the map


def _with_zeros(rng, block):
    """Zero some entries, some of them as -0.0."""
    block[rng.random(block.shape) < 0.3] = 0.0
    block[rng.random(block.shape) < 0.1] = -0.0
    return block


def _arrays(rng):
    q = rng.uniform(0.5, 1.0, (ROWS, COLS)) * rng.choice([-1.0, 1.0], (ROWS, COLS))
    q[ZERO_WEIGHTS[0]] = 0.0
    q[ZERO_WEIGHTS[1]] = -0.0
    return {
        "q": q,
        "d": rng.normal(size=(5, 4)),
        "b": rng.normal(size=3),
    }


def _column_scale(rng, col):
    """A block's scale: from 1 down to 2**-60, so that a velocity left from
    an earlier touch can still matter, relative to the column's weights."""
    if col in TINY:
        return 2.0 ** -70
    if col == EDGE:
        return 2.0 ** -float(rng.integers(50, 56))
    return 2.0 ** -float(rng.integers(61))


def _script(rng):
    """One gradient dict per update.  ``q``'s gradients are column-sparse and
    ``d``'s and ``b``'s dense, so ``q`` is column-managed and the others share
    the flat buffer; now and then ``q``'s block spans every column."""
    script = []
    next_tiny = 0
    for t in range(STEPS):
        if t in FULL_WIDTH:
            block = _with_zeros(rng, rng.normal(size=(ROWS, COLS)))
            block *= [_column_scale(rng, col) for col in range(COLS)]
            for cell in ZERO_WEIGHTS:
                block[cell] = 0.0
            q = (np.arange(COLS), block)
        else:
            hot = set(rng.choice(REGULAR, size=rng.choice([1, 2]), replace=False).tolist())
            if t in GAP_TOUCHES:
                hot.add(GAP_COL)
            if t >= next_tiny and t % 60 < 40:
                hot.add(TINY[(t // 60) % 2])
                next_tiny = t + int(rng.integers(1, 4))
            cols = np.array(sorted(hot))
            block = rng.normal(size=(ROWS, cols.size))
            for j, col in enumerate(cols.tolist()):
                block[:, j] *= _column_scale(rng, col)
                if col == 9 or (col == GAP_COL and t == 640) or rng.random() < 0.2:
                    _with_zeros(rng, block[:, j])
            q = (cols, block)
        script.append({"q": q, "d": rng.normal(size=(5, 4)), "b": rng.normal(size=3)})
    return script


def _case():
    rng = np.random.default_rng(11)
    return _arrays(rng), _script(rng)


def _snapshots(train_fn, arrays, script, config, make=ScriptedTrainable):
    trainable = make(arrays, script, N_EXAMPLES)
    snaps = []
    log = train_fn(trainable, config, epoch_callback=lambda epoch, loss, t: snaps.append(
        {name: arr.tobytes() for name, arr in t.parameter_arrays().items()}))
    assert trainable.calls == STEPS
    return log, snaps


@pytest.mark.parametrize("momentum", [0.0, 0.09, 0.5, 0.95])
def test_column_velocities_match_the_flat_buffer_bit_for_bit(momentum):
    arrays, script = _case()
    config = TrainConfig(lr0=0.5, momentum=momentum, decay=1e-3, epochs=EPOCHS, seed=2)
    ref_log, ref_snaps = _snapshots(flat_buffer_train, arrays, script, config)
    log, snaps = _snapshots(train, arrays, script, config)
    assert log.epoch_losses == ref_log.epoch_losses
    assert len(snaps) == EPOCHS
    for epoch, (got, want) in enumerate(zip(snaps, ref_snaps)):
        for name in want:
            assert got[name] == want[name], (epoch, name)


class ExplicitZeros(ScriptedTrainable):
    """Hands every name a script entry leaves out over as an explicit
    ``np.zeros_like`` gradient."""

    def loss_and_grads(self, i):
        value, grads = super().loss_and_grads(i)
        for name, arr in self.arrays.items():
            grads.setdefault(name, np.zeros_like(arr))
        return value, grads


Q_LEFT_OUT = range(300, 1100)  # long enough for every moved column to retire


def _leave_out(script):
    """The script with names left out: every name at step 0, then the dense
    arrays, ``q`` or both at random, and ``q`` throughout :data:`Q_LEFT_OUT`."""
    rng = np.random.default_rng(13)
    left_out = []
    for t, entry in enumerate(script):
        drop = 3 if t == 0 else int(rng.integers(4))  # bit 1: d and b; bit 2: q
        if t in Q_LEFT_OUT:
            drop |= 2
        left_out.append({name: grad for name, grad in entry.items()
                         if not drop & (2 if name == "q" else 1)})
    return left_out


@pytest.mark.parametrize("momentum", [0.0, 0.09, 0.5, 0.95])
def test_left_out_gradients_keep_the_bits_of_explicit_zeros(momentum, monkeypatch):
    """``train`` on gradients left out matches the flat-buffer trainer fed
    explicit zeros, while ``q``'s moved columns are live and after every one
    of them has retired (the two zero-weight columns never retire)."""
    n_live = []  # (q left out, live columns) at each column update
    update = _ColumnVelocity.update

    def recording(self, grad, lr, step):
        n_live.append((grad is None, self.n_live))
        update(self, grad, lr, step)

    monkeypatch.setattr(_ColumnVelocity, "update", recording)
    arrays, script = _case()
    script = _leave_out(script)
    config = TrainConfig(lr0=0.5, momentum=momentum, decay=1e-3, epochs=EPOCHS, seed=2)
    ref_log, ref_snaps = _snapshots(flat_buffer_train, arrays, script, config,
                                    make=ExplicitZeros)
    log, snaps = _snapshots(train, arrays, script, config)
    assert log.epoch_losses == ref_log.epoch_losses
    assert len(snaps) == EPOCHS
    for epoch, (got, want) in enumerate(zip(snaps, ref_snaps)):
        for name in want:
            assert got[name] == want[name], (epoch, name)
    assert script[0] == {}
    assert {frozenset(entry) for entry in script} == {
        frozenset(), frozenset("q"), frozenset("db"), frozenset("qdb")}
    live_when_left_out = {n for left_out, n in n_live if left_out}
    assert len(ZERO_WEIGHTS) in live_when_left_out
    assert max(live_when_left_out) > len(ZERO_WEIGHTS)


def test_the_script_holds_the_cases_it_names():
    _, script = _case()
    assert all(isinstance(entry["q"], tuple) for entry in script)
    assert not any(isinstance(entry[name], tuple) for entry in script for name in "db")
    touches = [t for t, entry in enumerate(script) if GAP_COL in entry["q"][0].tolist()]
    assert max(b - a for a, b in zip(touches, touches[1:])) > 400
    widths = {entry["q"][1].shape[1] for entry in script}
    assert {1, 2, COLS} <= widths


def test_a_velocity_stuck_in_the_subnormals_is_replayed():
    """At m = 0.75 the decay maps 2**-1074 to itself, so a retired column's
    velocity can stay at 2**-1074 for good; the revival bound must not
    round it to zero.  Column 0 retires after step 0 with velocity
    -2**-1074 and is touched again at step 21 with a gradient of
    -8 * 2**-1074: its weight gets 7 * 2**-1074, under half its ulp of
    16 * 2**-1074, and stays put, where a velocity of 8 * 2**-1074 would be a
    tie that rounds to the even neighbour above."""
    tiny = 2.0 ** -1074
    weight = 2.0 ** -1018 * (1 + 2.0 ** -52)  # odd last bit
    arrays = {"q": np.array([[weight, 1.0]])}
    script = ([{"q": (np.array([0]), np.array([[tiny]]))}]
              + [{"q": (np.array([1]), np.array([[0.25]]))}] * 20
              + [{"q": (np.array([0]), np.array([[-8 * tiny]]))}])
    config = TrainConfig(lr0=1.0, momentum=0.75, decay=0.0, epochs=1,
                         shuffle_each_epoch=False)
    trained, reference = (ScriptedTrainable(arrays, script, len(script))
                          for _ in range(2))
    flat_buffer_train(reference, config)
    train(trained, config)
    assert reference.arrays["q"][0, 0] == weight
    assert trained.arrays["q"].tobytes() == reference.arrays["q"].tobytes()
