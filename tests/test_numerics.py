"""Tests for the deterministic RNG and the vector helpers."""

import math

import numpy as np
import pytest

from popref.errors import ContractViolation
from popref.numerics import (
    Rng,
    derive_seed,
    finite_diff_grad,
    flatten_arrays,
    fnv1a64,
    glorot_uniform,
    outer,
    rel_error,
    splitmix64,
    unflatten_into,
)


# ---------------------------------------------------------------------------
# splitmix64 / fnv1a64 / derive_seed
# ---------------------------------------------------------------------------


def test_splitmix64_reference_sequence():
    # Published reference outputs of the splitmix64 sequence for seed 0.
    state = 0
    outputs = []
    for _ in range(3):
        out, state = splitmix64(state)
        outputs.append(out)
    assert outputs == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_state_is_golden_ratio_counter():
    _, state = splitmix64(0)
    assert state == 0x9E3779B97F4A7C15
    _, state = splitmix64(state)
    assert state == (2 * 0x9E3779B97F4A7C15) % (1 << 64)


def test_splitmix64_output_is_64_bit():
    state = 12345
    for _ in range(100):
        out, state = splitmix64(state)
        assert 0 <= out < (1 << 64)


def test_fnv1a64_reference_hashes():
    # Published FNV-1a 64-bit test vectors.
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_derive_seed_is_deterministic():
    assert derive_seed(7, "images") == derive_seed(7, "images")
    assert derive_seed(7, "images", 3) == derive_seed(7, "images", 3)


def test_derive_seed_separates_streams():
    seen = {
        derive_seed(0, "alpha"),
        derive_seed(0, "beta"),
        derive_seed(1, "alpha"),
        derive_seed(0, "alpha", 0),
        derive_seed(0, "alpha", 1),
        derive_seed(0, 0, "alpha"),
    }
    assert len(seen) == 6


def test_derive_seed_order_sensitivity():
    assert derive_seed(3, "a", "b") != derive_seed(3, "b", "a")


# ---------------------------------------------------------------------------
# Rng stream behaviour
# ---------------------------------------------------------------------------


def test_rng_stream_reproducible():
    a = Rng(987654321)
    b = Rng(987654321)
    assert [a.next_u64() for _ in range(10_000)] == [
        b.next_u64() for _ in range(10_000)
    ]


def test_rng_streams_differ_across_seeds():
    a = Rng(1)
    b = Rng(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_random_unit_interval_and_moments():
    rng = Rng(42)
    draws = np.array([rng.random() for _ in range(50_000)])
    assert np.all(draws >= 0.0)
    assert np.all(draws < 1.0)
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 1.0 / 12.0) < 0.005


def test_uniform_respects_bounds():
    rng = Rng(3)
    for _ in range(1000):
        x = rng.uniform(-2.5, 4.0)
        assert -2.5 <= x < 4.0


def test_randrange_covers_range_uniformly():
    rng = Rng(2024)
    n = 7
    counts = np.zeros(n)
    trials = 70_000
    for _ in range(trials):
        counts[rng.randrange(n)] += 1
    freqs = counts / trials
    assert np.all(np.abs(freqs - 1.0 / n) < 0.01)


def test_randrange_rejects_nonpositive_bound():
    rng = Rng(0)
    with pytest.raises(ContractViolation):
        rng.randrange(0)
    with pytest.raises(ContractViolation):
        rng.randrange(-3)


def test_choice_draws_members_and_rejects_empty():
    rng = Rng(11)
    seq = ["a", "b", "c"]
    for _ in range(50):
        assert rng.choice(seq) in seq
    with pytest.raises(ContractViolation):
        rng.choice([])


def test_sample_without_replacement():
    rng = Rng(8)
    pool = list(range(10))
    for _ in range(200):
        got = rng.sample(pool, 4)
        assert len(got) == 4
        assert len(set(got)) == 4
        assert set(got) <= set(pool)
    assert pool == list(range(10))  # input must not be mutated


def test_sample_full_length_is_permutation():
    rng = Rng(9)
    got = rng.sample(range(6), 6)
    assert sorted(got) == list(range(6))


def test_sample_too_many_raises():
    rng = Rng(1)
    with pytest.raises(ContractViolation):
        rng.sample([1, 2], 3)


def test_shuffle_is_permutation():
    rng = Rng(77)
    xs = list(range(20))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(20))


def test_shuffle_uniform_over_three_elements():
    rng = Rng(123)
    counts = {}
    trials = 12_000
    for _ in range(trials):
        xs = [0, 1, 2]
        rng.shuffle(xs)
        key = tuple(xs)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for key, count in counts.items():
        assert abs(count / trials - 1.0 / 6.0) < 0.025, (key, count)


def test_normal_moments_and_determinism():
    rng = Rng(55)
    draws = rng.normals(50_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02
    again = Rng(55).normals(5)
    np.testing.assert_allclose(draws[:5], again, rtol=0, atol=0)


def test_normal_location_scale():
    rng = Rng(56)
    draws = rng.normals(50_000, mu=3.0, sigma=0.5)
    assert abs(draws.mean() - 3.0) < 0.02
    assert abs(draws.std() - 0.5) < 0.02


def test_fork_yields_distinct_deterministic_children():
    parent = Rng(99)
    child = parent.fork()
    rest_of_parent = [parent.next_u64() for _ in range(10)]
    child_stream = [child.next_u64() for _ in range(10)]
    assert child_stream != rest_of_parent

    parent2 = Rng(99)
    child2 = parent2.fork()
    assert [child2.next_u64() for _ in range(10)] == child_stream


# ---------------------------------------------------------------------------
# Vector helpers and nonlinearities
# ---------------------------------------------------------------------------


def test_finite_diff_grad_rejects_matrices():
    with pytest.raises(ContractViolation):
        finite_diff_grad(lambda x: float(x.sum()), np.zeros((2, 2)))


@pytest.mark.parametrize("rows, cols", [(300, 32), (3, 300), (100, 2), (300, 1)])
def test_outer_is_np_outer_bit_for_bit(rows, cols):
    rng = Rng(rows * cols)
    a, b = rng.normals(rows), rng.normals(cols)
    assert outer(a, b).tobytes() == np.outer(a, b).tobytes()
    assert outer(a, b).flags.c_contiguous


def test_finite_diff_on_quadratic():
    x = np.array([0.5, -1.2, 2.0])
    grad = finite_diff_grad(lambda v: float(np.sum(v * v)), x)
    np.testing.assert_allclose(grad, 2.0 * x, atol=1e-8)


def test_finite_diff_on_linear():
    a = np.array([3.0, -1.0, 0.25])
    x = np.array([0.1, 0.2, 0.3])
    grad = finite_diff_grad(lambda v: float(a @ v), x)
    np.testing.assert_allclose(grad, a, atol=1e-9)


def test_flatten_arrays_round_trip():
    arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])}
    vec = flatten_arrays(arrays)
    np.testing.assert_array_equal(vec, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
    target = {"w": np.zeros((2, 3)), "b": np.zeros(2)}
    unflatten_into(target, vec * 2.0)
    np.testing.assert_array_equal(target["w"], 2.0 * arrays["w"])
    np.testing.assert_array_equal(target["b"], 2.0 * arrays["b"])


def test_rel_error_metric():
    assert rel_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    # Denominator is clamped at 1, so tiny absolute differences stay tiny.
    assert rel_error([0.0], [1e-3]) == pytest.approx(1e-3)
    assert rel_error([2.0], [4.0]) == pytest.approx(0.5)
    assert rel_error([4.0], [2.0]) == pytest.approx(0.5)


def test_glorot_uniform_bounds_and_determinism():
    rows, cols = 30, 20
    bound = math.sqrt(6.0 / (rows + cols))
    w = glorot_uniform(Rng(17), rows, cols)
    assert w.shape == (rows, cols)
    assert np.all(np.abs(w) <= bound)
    assert abs(w.mean()) < 0.02
    np.testing.assert_allclose(w, glorot_uniform(Rng(17), rows, cols), rtol=0)
