"""Tests for synthetic worlds, vector-table IO, and act encoding."""

import dataclasses

import numpy as np
import pytest

from popref.datagen import DatasetSpec, gen_object_only, generate_splits
from popref.embeddings import (
    EmbeddingTable,
    EncodedAct,
    WorldConfig,
    build_synthetic_world,
    encode_act,
    load_table,
    nearest_centroid_accuracy,
    one_hot,
    save_table,
    shuffle_images,
)
from popref.errors import ConfigError, EncodingError, ParseError, ValidationError
from popref.numerics import Rng


# ---------------------------------------------------------------------------
# EmbeddingTable
# ---------------------------------------------------------------------------


def test_table_add_get_contains():
    table = EmbeddingTable(3)
    table.add("cat", [1.0, 2.0, 3.0])
    assert "cat" in table
    assert "dog" not in table
    np.testing.assert_allclose(table["cat"], [1.0, 2.0, 3.0])
    assert len(table) == 1


def test_table_rejects_duplicates_and_bad_shapes():
    table = EmbeddingTable(2)
    table.add("a", [0.0, 1.0])
    with pytest.raises(ValidationError):
        table.add("a", [2.0, 3.0])
    with pytest.raises(ValidationError):
        table.add("b", [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        table.add("", [0.0, 0.0])


def test_table_unknown_token_is_encoding_error():
    table = EmbeddingTable(2)
    with pytest.raises(EncodingError):
        table["ghost"]


def test_table_tokens_keep_insertion_order():
    table = EmbeddingTable(1)
    for token in ["zebra", "apple", "mouse"]:
        table.add(token, [0.0])
    assert table.tokens == ["zebra", "apple", "mouse"]


# ---------------------------------------------------------------------------
# WorldConfig validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_classes": 1},
        {"images_per_class": 0},
        {"n_attributes": 2},
        {"d_img": 0},
        {"d_word": 0},
        {"sigma": -0.1},
        {"attrs_per_object": 2},
        {"attrs_per_object": 101},
    ],
)
def test_world_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        WorldConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# Synthetic world construction
# ---------------------------------------------------------------------------


def test_world_shapes_and_naming(small_world):
    config = small_world.config
    assert len(small_world.objects) == config.n_classes
    ids = small_world.all_image_ids()
    assert len(ids) == config.n_classes * config.images_per_class
    assert len(set(ids)) == len(ids)
    # Names are zero-padded to a fixed width, so distinct names can never be
    # substrings of one another and substring matching degrades to equality.
    assert len({len(o) for o in small_world.objects}) == 1
    assert len({len(a) for a in small_world.attributes}) == 1
    for obj in small_world.objects:
        for other in small_world.objects:
            if obj != other:
                assert obj not in other


def test_world_compat_coverage(small_world):
    for obj in small_world.objects:
        assert len(small_world.compat[obj]) == small_world.config.attrs_per_object
        assert list(small_world.compat[obj]) == sorted(small_world.compat[obj])
    for attr in small_world.attributes:
        assert len(small_world.inverse_compat[attr]) >= 2


def test_world_same_seed_is_byte_identical(small_world):
    again = build_synthetic_world(small_world.config, seed=5)
    assert again.objects == small_world.objects
    for obj in small_world.objects:
        np.testing.assert_array_equal(
            again.word_vecs[obj], small_world.word_vecs[obj]
        )
    for image_id in small_world.all_image_ids():
        np.testing.assert_array_equal(
            again.image_vecs[image_id], small_world.image_vecs[image_id]
        )
    for attr in small_world.attributes:
        np.testing.assert_array_equal(
            again.attr_vecs[attr], small_world.attr_vecs[attr]
        )
    assert again.compat == small_world.compat


def test_world_different_seed_differs(small_world):
    other = build_synthetic_world(small_world.config, seed=6)
    obj = small_world.objects[0]
    assert not np.array_equal(other.word_vecs[obj], small_world.word_vecs[obj])


def test_zero_noise_images_equal_centroids():
    config = WorldConfig(
        n_classes=4,
        images_per_class=2,
        n_attributes=5,
        d_img=8,
        d_word=4,
        sigma=0.0,
        attrs_per_object=3,
    )
    world = build_synthetic_world(config, seed=1)
    for obj in world.objects:
        for image_id in world.images[obj]:
            np.testing.assert_array_equal(
                world.image_vecs[image_id], world.class_centroids[obj]
            )
    assert nearest_centroid_accuracy(world) == 1.0


def test_centroids_are_unit_norm(small_world):
    for obj in small_world.objects:
        assert np.linalg.norm(small_world.class_centroids[obj]) == pytest.approx(1.0)


def test_nearest_centroid_accuracy_high_at_default_noise(small_world):
    assert nearest_centroid_accuracy(small_world) >= 0.95


# ---------------------------------------------------------------------------
# Table IO
# ---------------------------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path, small_world):
    path = tmp_path / "words.vec"
    save_table(small_world.word_vecs, path)
    loaded = load_table(path)
    assert loaded.dim == small_world.word_vecs.dim
    assert loaded.tokens == small_world.word_vecs.tokens
    for token in loaded.tokens:
        np.testing.assert_array_equal(loaded[token], small_world.word_vecs[token])


def test_load_table_happy_path(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar -1.5 0.25 8.0\n")
    table = load_table(path)
    assert table.tokens == ["foo", "bar"]
    np.testing.assert_allclose(table["bar"], [-1.5, 0.25, 8.0])


def test_load_table_skips_blank_lines(tmp_path):
    path = tmp_path / "t.vec"
    path.write_text("1 2\n\nfoo 1.0 2.0\n\n")
    assert load_table(path).tokens == ["foo"]


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),  # missing header
        ("3\nfoo 1.0\n", 1),  # header arity
        ("x y\nfoo 1.0\n", 1),  # non-integer header
        ("1 0\n", 1),  # dimension must be positive
        ("1 2\nfoo 1.0\n", 2),  # row arity
        ("2 1\nfoo 1.0\nfoo 2.0\n", 3),  # duplicate token
        ("1 1\nfoo abc\n", 2),  # non-numeric value
        ("2 2\nbar 1.0 2.0\nfoo nan 1.0\n", 3),  # non-finite value
        ("1 1\nfoo -inf\n", 2),  # non-finite value
        ("2 1\nfoo 1.0\n", 1),  # count mismatch
    ],
)
def test_load_table_error_lines(tmp_path, text, line):
    path = tmp_path / "bad.vec"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_table(path)
    assert err.value.line == line


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _some_acts(world, task, count, seed=31):
    spec = DatasetSpec(n_train=count, n_val=1, n_test=1, seed=seed)
    return generate_splits(world, spec, task)["train"][:count]


def test_one_hot_basic():
    vec = one_hot("b", ["a", "b", "c"])
    np.testing.assert_array_equal(vec, [0.0, 1.0, 0.0])
    with pytest.raises(EncodingError):
        one_hot("z", ["a", "b"])


def test_encode_object_only_dense(small_world):
    act = _some_acts(small_world, "object-only", 1)[0]
    enc = encode_act(act, small_world, "dense")
    np.testing.assert_array_equal(enc.query_vec, small_world.word_vecs[act.query.noun])
    assert len(enc.candidate_vecs) == len(act.items)
    for vec, item in zip(enc.candidate_vecs, act.items):
        np.testing.assert_array_equal(vec, small_world.image_vecs[item.image_id])
    assert enc.gold == act.gold
    assert enc.act_id == act.id


def test_encode_object_attribute_dense_concatenates(small_world):
    act = _some_acts(small_world, "object-attr", 1)[0]
    enc = encode_act(act, small_world, "dense")
    d_word = small_world.config.d_word
    d_img = small_world.config.d_img
    assert enc.query_vec.shape == (2 * d_word,)
    np.testing.assert_array_equal(
        enc.query_vec[:d_word], small_world.word_vecs[act.query.noun]
    )
    np.testing.assert_array_equal(
        enc.query_vec[d_word:], small_world.attr_vecs[act.query.attribute]
    )
    for vec, item in zip(enc.candidate_vecs, act.items):
        assert vec.shape == (d_img + d_word,)
        np.testing.assert_array_equal(vec[:d_img], small_world.image_vecs[item.image_id])
        np.testing.assert_array_equal(vec[d_img:], small_world.attr_vecs[item.attribute])


@pytest.mark.parametrize("where", ["query", "candidate"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encoded_act_validate_rejects_nonfinite_vectors(where, bad):
    query, cand = np.ones(3), np.ones(4)
    if where == "query":
        query[1] = bad
    else:
        cand[2] = bad
    act = EncodedAct(query_vec=query, candidate_vecs=[np.ones(4), cand],
                     gold=None, act_id="t-bad")
    with pytest.raises(ValidationError, match="non-finite"):
        act.validate()


def test_encode_act_rejects_a_nonfinite_table_vector(small_world):
    act = _some_acts(small_world, "object-only", 1)[0]
    table = EmbeddingTable(small_world.image_vecs.dim)
    for image_id in small_world.all_image_ids():
        vec = small_world.image_vecs[image_id].copy()
        if image_id == act.items[0].image_id:
            vec[0] = np.nan
        table.add(image_id, vec)
    world = dataclasses.replace(small_world, image_vecs=table)
    with pytest.raises(ValidationError, match="non-finite"):
        encode_act(act, world, "dense")


def test_encode_one_hot_dimensions(small_world):
    config = small_world.config
    oo = _some_acts(small_world, "object-only", 1)[0]
    enc = encode_act(oo, small_world, "one-hot")
    assert enc.query_vec.shape == (config.n_classes,)
    assert enc.query_vec.sum() == 1.0
    assert enc.candidate_vecs[0].shape == (config.d_img,)

    oa = _some_acts(small_world, "object-attr", 1)[0]
    enc = encode_act(oa, small_world, "one-hot")
    assert enc.query_vec.shape == (config.n_classes + config.n_attributes,)
    assert enc.query_vec.sum() == 2.0
    assert enc.candidate_vecs[0].shape == (config.d_img + config.n_attributes,)


def test_one_hot_equals_dense_with_indicator_tables(small_world):
    """Indicator encoding is dense encoding under identity word/attr tables."""
    indicator_words = EmbeddingTable(len(small_world.objects))
    for obj in small_world.objects:
        indicator_words.add(obj, one_hot(obj, small_world.objects))
    indicator_attrs = EmbeddingTable(len(small_world.attributes))
    for attr in small_world.attributes:
        indicator_attrs.add(attr, one_hot(attr, small_world.attributes))
    indicator_world = dataclasses.replace(
        small_world, word_vecs=indicator_words, attr_vecs=indicator_attrs
    )
    for task in ("object-only", "object-attr"):
        for act in _some_acts(small_world, task, 10):
            direct = encode_act(act, small_world, "one-hot")
            via_tables = encode_act(act, indicator_world, "dense")
            np.testing.assert_array_equal(direct.query_vec, via_tables.query_vec)
            for a, b in zip(direct.candidate_vecs, via_tables.candidate_vecs):
                np.testing.assert_array_equal(a, b)


def test_encode_unknown_token_policies(small_world):
    act = _some_acts(small_world, "object-only", 1)[0]
    ghost = act.__class__(
        id=act.id,
        query=act.query.__class__(noun="nosuchobject"),
        items=act.items,
        gold=act.gold,
    )
    with pytest.raises(EncodingError):
        encode_act(ghost, small_world, "dense")
    backed_off = encode_act(ghost, small_world, "dense", allow_unknown=True)
    np.testing.assert_array_equal(
        backed_off.query_vec, np.zeros(small_world.config.d_word)
    )
    # Indicator vocabularies cannot represent unseen words, ever.
    with pytest.raises(EncodingError):
        encode_act(ghost, small_world, "one-hot", allow_unknown=True)


def test_encode_rejects_mixed_attribute_presence(small_world):
    act = _some_acts(small_world, "object-attr", 1)[0]
    items = list(act.items)
    items[0] = items[0].__class__(
        object=items[0].object, image_id=items[0].image_id, attribute=None
    )
    broken = act.__class__(id=act.id, query=act.query, items=tuple(items), gold=act.gold)
    with pytest.raises(EncodingError):
        encode_act(broken, small_world, "dense")


def test_encode_unknown_mode(small_world):
    act = _some_acts(small_world, "object-only", 1)[0]
    with pytest.raises(ConfigError):
        encode_act(act, small_world, "sparse")


def test_encode_normalize_blocks_gives_unit_blocks(small_world):
    act = _some_acts(small_world, "object-attr", 1)[0]
    enc = encode_act(act, small_world, "dense", normalize_blocks=True)
    d_word = small_world.config.d_word
    d_img = small_world.config.d_img
    assert np.linalg.norm(enc.query_vec[:d_word]) == pytest.approx(1.0)
    assert np.linalg.norm(enc.query_vec[d_word:]) == pytest.approx(1.0)
    for vec in enc.candidate_vecs:
        assert np.linalg.norm(vec[:d_img]) == pytest.approx(1.0)
        assert np.linalg.norm(vec[d_img:]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Image shuffling
# ---------------------------------------------------------------------------


def test_shuffle_images_is_a_derangement(small_world):
    shuffled = shuffle_images(small_world, seed=3)
    ids = small_world.all_image_ids()
    perm = shuffled.image_permutation
    assert sorted(perm.keys()) == sorted(ids)
    assert sorted(perm.values()) == sorted(ids)
    for image_id in ids:
        assert perm[image_id] != image_id
        np.testing.assert_array_equal(
            shuffled.image_vecs[image_id],
            small_world.image_vecs[perm[image_id]],
        )


def test_shuffle_images_reproducible_and_seed_sensitive(small_world):
    a = shuffle_images(small_world, seed=3)
    b = shuffle_images(small_world, seed=3)
    c = shuffle_images(small_world, seed=4)
    assert a.image_permutation == b.image_permutation
    assert a.image_permutation != c.image_permutation


def test_shuffle_images_preserves_vector_multiset(small_world):
    shuffled = shuffle_images(small_world, seed=9)
    ids = small_world.all_image_ids()
    original = np.sort(
        np.stack([small_world.image_vecs[i] for i in ids]), axis=0
    )
    moved = np.sort(np.stack([shuffled.image_vecs[i] for i in ids]), axis=0)
    np.testing.assert_array_equal(original, moved)


def test_shuffle_images_single_cycle(small_world):
    shuffled = shuffle_images(small_world, seed=12)
    perm = shuffled.image_permutation
    start = next(iter(perm))
    seen = {start}
    node = perm[start]
    while node != start:
        seen.add(node)
        node = perm[node]
    assert len(seen) == len(perm)


def test_generated_acts_encode_after_shuffle(small_world):
    spec = DatasetSpec(n_train=20, n_val=1, n_test=1, seed=2)
    acts = gen_object_only(small_world, spec, Rng(4), 20)
    shuffled = shuffle_images(small_world, seed=1)
    for act in acts:
        enc = encode_act(act, shuffled, "dense")
        assert len(enc.candidate_vecs) == len(act.items)
