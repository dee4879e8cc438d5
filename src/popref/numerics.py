"""Dense vector helpers, seeded randomness, and a finite-difference gradient
oracle.

Matrices are plain 2-D float64 numpy arrays in C (row-major) order; vectors
are 1-D float64 arrays.  Everything here is a pure function except
:class:`Rng`, which is single-owner mutable state.

Randomness
----------
:class:`Rng` is a self-contained deterministic generator so that datasets,
parameter draws, and shuffles reproduce bit-for-bit across platforms and
library versions:

* state seeding: four outputs of the splitmix64 sequence over the user seed;
* stream: xoshiro256** (Blackman & Vigna 2018), 64-bit outputs;
* floats: the 53 high bits of one output, scaled into [0, 1);
* bounded integers: rejection sampling, so there is no modulo bias;
* normal deviates: Box-Muller transform with the spare value cached.

The bulk draws (:meth:`Rng.u64s`, :meth:`Rng.randoms`, :meth:`Rng.uniforms`,
:meth:`Rng.normals`) give exactly the values of the one-draw methods and
leave the same state.  The xoshiro256** transition is linear over GF(2), so
a jump table (built once per process) moves a state a fixed lane length
ahead; the starts of consecutive lanes come from repeated jumps, and numpy
steps all lanes together.  Box-Muller keeps ``math.log``/``cos``/``sin`` per
pair, since numpy's vectorised transcendentals are not promised to match
libm bit for bit.

:func:`lane_rngs` builds many generators at once: a numpy twin of
splitmix64 seeds them as lanes, which step together to draw each
generator's first outputs ahead of use.  Every draw method and
:meth:`Rng.fork` serve those outputs first, so such a generator is
``Rng(seed)`` value for value.

Two generators built from equal seeds produce equal output streams.  An
``Rng`` must never be shared across concurrent tasks; derive children with
:meth:`Rng.fork` or :func:`derive_seed` instead.
"""

import functools
import math

import numpy as np

from .errors import ConfigError, ContractViolation

_MASK64 = (1 << 64) - 1
_U64 = np.uint64


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 sequence: returns (output, next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def _scramble64(x: int) -> int:
    out, _ = splitmix64(x & _MASK64)
    return out


def splitmix64_lanes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`splitmix64` of each ``uint64`` in ``state``: (outputs, next states)."""
    state = state + _U64(0x9E3779B97F4A7C15)
    z = state ^ (state >> _U64(30))
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z, state


def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 bytes; stable across runs and platforms."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master: int, *parts: int | str) -> int:
    """Deterministic child seed from a master seed plus labels/indices.

    Gives every split and every generated record its own stream, so any
    sub-range of a dataset can be regenerated independently of the rest.
    """
    h = _scramble64(master)
    for part in parts:
        key = fnv1a64(part) if isinstance(part, str) else int(part) & _MASK64
        h = _scramble64(h ^ key)
    return h


def derive_seeds(master: int, *parts: int | str, indices) -> np.ndarray:
    """``derive_seed(master, *parts, i)`` for each ``i`` of the ``uint64``
    array ``indices``: the prefix is hashed once, the last step in numpy."""
    prefix = _U64(derive_seed(master, *parts))
    out, _ = splitmix64_lanes(np.asarray(indices, dtype=np.uint64) ^ prefix)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _require_count(n: int) -> None:
    if n < 0:
        raise ContractViolation(f"draw count must be >= 0, got {n}")


# Bulk draws: lanes of _LANE consecutive outputs step together, at most
# _BLOCK outputs at a time so that temporaries stay near 1 MB.  With fewer
# than about a dozen lanes the per-draw loop is faster (measured on x86-64).
_LANE = 128
_BLOCK = 128 * _LANE
_BULK_CUTOFF = 12 * _LANE


def _step_lanes(s: np.ndarray, out: np.ndarray | None, steps: int) -> None:
    """Step each column of the 4 x K xoshiro256** state ``s`` ``steps``
    times in place (the arithmetic of :meth:`Rng.next_u64`); the outputs
    of step i go to column ``out[:, i]`` when ``out`` is given."""
    s0, s1, s2, s3 = s
    r, t = np.empty_like(s1), np.empty_like(s1)
    for i in range(steps):
        if out is not None:
            np.multiply(s1, _U64(5), out=r)
            np.left_shift(r, _U64(7), out=t)
            r >>= _U64(57)
            r |= t
            np.multiply(r, _U64(9), out=out[:, i])
        np.left_shift(s1, _U64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, _U64(45), out=t)
        s3 >>= _U64(19)
        s3 |= t


@functools.cache
def _jump_table() -> np.ndarray:
    """``T^_LANE`` over GF(2), T the xoshiro256** state transition, as a
    32 x 256 x 4 table: entry [p, v] is the image of the state whose only
    set bits are byte ``v`` at byte ``p`` (bits 8p..8p+7, words
    little-endian).

    T is linear, so the image of a basis state is found by stepping it,
    and the image of any state is the XOR of its bytes' entries.
    """
    basis = np.zeros((4, 256), dtype=np.uint64)
    bit = np.arange(256)
    basis[bit // 64, bit] = np.left_shift(_U64(1), (bit % 64).astype(np.uint64))
    _step_lanes(basis, None, _LANE)
    images = basis.T.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for k in range(8):
        np.bitwise_xor(table[:, :1 << k], images[:, k, None, :],
                       out=table[:, 1 << k:2 << k])
    table.flags.writeable = False
    return table


_BYTES = np.arange(32)


def _jump(state: np.ndarray) -> np.ndarray:
    """The 4-word state ``_LANE`` steps after ``state``."""
    octets = state.astype("<u8").view(np.uint8)
    return np.bitwise_xor.reduce(_jump_table()[_BYTES, octets], axis=0)


def _lane_block(state: list[int], out: np.ndarray, last: int) -> list[int]:
    """Fill ``out`` (lanes x _LANE, at most _BLOCK outputs) row by row with
    the stream at ``state``, the last row only up to column ``last``, and
    return the state after that output.

    Row j starts ``j * _LANE`` steps in, by repeated jumps, and all rows
    step together.
    """
    lanes = len(out)
    s = np.empty((4, lanes), dtype=np.uint64)
    s[:, 0] = state
    for j in range(1, lanes):
        s[:, j] = _jump(s[:, j - 1])
    _step_lanes(s, out, last)
    after = [int(word) for word in s[:, -1]]
    _step_lanes(s[:, :-1], out[:-1, last:], _LANE - last)
    return after


class Rng:
    """Seeded xoshiro256** stream with float, integer, and normal draws."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        state = []
        s = self.seed
        for _ in range(4):
            out, s = splitmix64(s)
            state.append(out)
        # splitmix64 is a bijection per step, so the state is never all-zero
        self._s = state
        self._ahead: list[int] = []  # outputs drawn ahead of _s, next last
        self._gauss_spare = None

    def next_u64(self) -> int:
        if self._ahead:
            return self._ahead.pop()
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ContractViolation(f"randrange bound must be positive, got {n}")
        threshold = (1 << 64) % n
        while True:
            r = self.next_u64()
            if r >= threshold:
                return r % n

    def choice(self, seq):
        if len(seq) == 0:
            raise ContractViolation("choice from an empty sequence")
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, drawn without replacement."""
        xs = list(seq)
        if k < 0:
            raise ContractViolation(f"sample size must be >= 0, got {k}")
        if k > len(xs):
            raise ContractViolation(f"cannot sample {k} from {len(xs)} elements")
        for i in range(k):
            j = i + self.randrange(len(xs) - i)
            xs[i], xs[j] = xs[j], xs[i]
        return xs[:k]

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        if self._gauss_spare is not None:
            z = self._gauss_spare
            self._gauss_spare = None
        else:
            u1 = 1.0 - self.random()  # in (0, 1], keeps log() finite
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._gauss_spare = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * z

    def u64s(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of :meth:`next_u64` as a ``uint64`` array,
        leaving the generator where ``n`` calls would."""
        _require_count(n)
        if n < _BULK_CUTOFF:
            return np.array([self.next_u64() for _ in range(n)], dtype=np.uint64)
        if self._ahead:
            k = min(n, len(self._ahead))
            head = np.array(self._ahead[:-k - 1:-1], dtype=np.uint64)
            del self._ahead[-k:]
            return np.concatenate((head, self.u64s(n - k)))
        lanes = -(-n // _LANE)
        out = np.empty((lanes, _LANE), dtype=np.uint64)
        for row in range(0, lanes, _BLOCK // _LANE):
            block = out[row:row + _BLOCK // _LANE]
            last = min(_LANE, n - (row + len(block) - 1) * _LANE)
            self._s = _lane_block(self._s, block, last)
        return out.ravel()[:n]

    def randoms(self, n: int) -> np.ndarray:
        """The next ``n`` values of :meth:`random`, bit for bit."""
        bits = self.u64s(n)
        bits >>= _U64(11)
        out = bits.astype(np.float64)
        out *= 2.0 ** -53
        return out

    def uniforms(self, n: int, low: float, high: float) -> np.ndarray:
        """The next ``n`` values of :meth:`uniform`, bit for bit."""
        out = self.randoms(n)
        out *= high - low
        out += low
        return out

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """The next ``n`` values of :meth:`normal`, bit for bit, spare included.

        Box-Muller runs per pair through ``math.log``, ``math.cos`` and
        ``math.sin``: numpy's vectorised transcendentals may differ from
        libm in the last bit, while ``np.sqrt`` is correctly rounded.
        """
        _require_count(n)
        z = np.empty(n, dtype=np.float64)
        done = 0
        if n and self._gauss_spare is not None:
            z[0], self._gauss_spare, done = self._gauss_spare, None, 1
        while done < n:
            pairs = min((n - done + 1) // 2, _BLOCK // 2)
            u = self.randoms(2 * pairs)
            r = np.sqrt(-2.0 * _libm(math.log, 1.0 - u[0::2]))
            theta = (2.0 * math.pi) * u[1::2]
            u[0::2] = r * _libm(math.cos, theta)
            u[1::2] = r * _libm(math.sin, theta)
            take = min(2 * pairs, n - done)
            z[done:done + take] = u[:take]
            if take < 2 * pairs:
                self._gauss_spare = float(u[-1])
            done += take
        z *= sigma
        z += mu
        return z

    def fork(self) -> "Rng":
        """Child generator seeded from this stream."""
        return Rng(self.next_u64())


def lane_rngs(seeds: np.ndarray, ahead: int) -> list[Rng]:
    """``[Rng(seed) for seed in seeds]``, each with its first ``ahead``
    outputs already drawn: the 4 x len(seeds) states are seeded by
    :func:`splitmix64_lanes` and stepped together by :func:`_step_lanes`."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    s = np.empty((4, len(seeds)), dtype=np.uint64)
    x = seeds
    for word in s:
        word[:], x = splitmix64_lanes(x)
    out = np.empty((len(seeds), ahead), dtype=np.uint64)
    _step_lanes(s, out, ahead)
    rngs = []
    for seed, state, row in zip(seeds.tolist(), s.T.tolist(), out[:, ::-1].tolist()):
        rng = Rng.__new__(Rng)
        rng.seed, rng._s, rng._ahead, rng._gauss_spare = seed, state, row, None
        rngs.append(rng)
    return rngs


def _libm(fn, xs: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of each element of ``xs``."""
    return np.fromiter(map(fn, xs.tolist()), np.float64, len(xs))


def glorot_uniform(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Matrix with entries uniform in (-a, a), a = sqrt(6 / (rows + cols))."""
    if rows < 0 or cols < 0 or rows + cols == 0:
        raise ContractViolation(
            f"matrix shape must be >= 0 and not 0 x 0, got ({rows}, {cols})")
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniforms(rows * cols, -bound, bound).reshape(rows, cols)


def require_finite(**values: float) -> None:
    """Raise :class:`ConfigError` naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.outer(a, b)`` of two vectors, bit for bit (each entry is one
    product), at about two thirds of its cost on a 300 x 32 matrix."""
    return np.einsum("i,j->ij", a, b)


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Serves as the independent oracle against which hand-derived gradients
    are checked; it never shares code with the analytic paths it verifies.
    """
    x = np.array(x, dtype=np.float64)
    if x.ndim != 1:
        raise ContractViolation(f"expected a 1-D vector, got shape {x.shape}")
    grad = np.zeros_like(x)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        hi = f(x)
        x[i] = orig - h
        lo = f(x)
        x[i] = orig
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def flatten_arrays(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Concatenate named arrays, in the dict's order, into one vector."""
    return np.concatenate([arr.ravel() for arr in arrays.values()])


def unflatten_into(arrays: dict[str, np.ndarray], vec: np.ndarray) -> None:
    """Write ``vec`` back into the named arrays in place: the inverse of
    :func:`flatten_arrays` over the same dict."""
    offset = 0
    for arr in arrays.values():
        arr[...] = vec[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size


def rel_error(a, b) -> float:
    """max |a - b| / max(1, |a|, |b|), the gradient-check error metric."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
