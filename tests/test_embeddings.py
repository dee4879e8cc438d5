"""Tests for synthetic worlds, vector tables, and act encoding."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from popref.datagen import (
    GOLD_CATEGORIES,
    POINT,
    PROTEST,
    DatasetSpec,
    gen_object_only,
    generate_splits,
)
from popref.embeddings import (
    EncodedSplit,
    Table,
    WorldConfig,
    build_synthetic_world,
    encode_act,
    encode_split,
    nearest_centroid_accuracy,
    shuffle_images,
)
from popref.errors import ConfigError, EncodingError, ValidationError
from popref.numerics import Rng


# ---------------------------------------------------------------------------
# Table
# ---------------------------------------------------------------------------


def test_table_looks_tokens_up_by_row():
    table = Table.of(["zebra", "apple", "mouse"],
                     np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    np.testing.assert_array_equal(table["apple"], [3.0, 4.0])
    assert list(table.index) == ["zebra", "apple", "mouse"]  # the one-hot order
    assert table.vecs.shape == (3, 2)


def test_table_unknown_token_is_encoding_error():
    table = Table.of(["a"], np.array([[0.0, 1.0]]))
    with pytest.raises(EncodingError):
        table["ghost"]


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


def _assert_world_invariants(world):
    """What the generators rely on, and build_synthetic_world guarantees."""
    listed = [image_id for obj in world.objects for image_id in world.images[obj]]
    assert len(set(listed)) == len(listed) == len(world.all_image_ids())
    assert set(listed) == set(world.image_vecs.index)
    assert list(world.word_vecs.index) == world.objects
    for obj in world.objects:
        assert world.images[obj]
        assert len(world.compat[obj]) >= 3
        assert set(world.compat[obj]) <= set(world.attr_vecs.index)
    assert set(world.inverse_compat) == set(world.attributes)
    for attr, objs in world.inverse_compat.items():
        assert len(objs) >= 2
        assert objs == tuple(obj for obj in world.objects if attr in world.compat[obj])


def test_world_compat_coverage(small_world):
    _assert_world_invariants(small_world)
    for obj in small_world.objects:
        assert len(small_world.compat[obj]) == small_world.config.attrs_per_object
        assert list(small_world.compat[obj]) == sorted(small_world.compat[obj])


def test_world_coverage_patch_gives_every_attribute_two_objects():
    # 3 objects x 3 sampled attributes cover at most 9 of 30 attributes, so
    # the patch must add most of the pairs.
    config = WorldConfig(n_classes=3, images_per_class=1, n_attributes=30,
                         d_img=4, d_word=4, attrs_per_object=3)
    world = build_synthetic_world(config, seed=11)
    _assert_world_invariants(world)
    assert sum(len(attrs) for attrs in world.compat.values()) >= 2 * 30


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


# sha256 of image_vecs, word_vecs and attr_vecs as little-endian float64,
# recorded from the per-draw world builder.
WORLD_SHA256 = {
    1: ("ac82599d869d520b40790c65367799573ba56be5b8d3a14b6a4fbfcff64bbda7",
        "9f8247451e2a7726af158b8be58305d740f3ae74ffbd942b6f6e664f8962e6be",
        "5a7f5bb9b3f62fdaa9321139fa3fb256884a6069acca85c2c29d5a746d9ecf5e"),
    7919: ("94bc85ffa0acbf0528828172fb26f743055a68432c4473f466196f1f9a200893",
           "b6b466b6375af66c3ca2756c6926e721d5613a6bf5f8c1e0461327da471fd85b",
           "2dca905c6a5b53220e54ea0ff6bc7f28252a6f415d14f02f398edd56d3acaf25"),
}


@pytest.mark.parametrize("seed", sorted(WORLD_SHA256))
def test_default_world_vectors_are_pinned(seed):
    world = build_synthetic_world(WorldConfig(), seed)
    digests = tuple(hashlib.sha256(table.vecs.astype("<f8").tobytes()).hexdigest()
                    for table in (world.image_vecs, world.word_vecs, world.attr_vecs))
    assert digests == WORLD_SHA256[seed]


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
# Encoding
# ---------------------------------------------------------------------------


def _some_acts(world, task, count, seed=31):
    spec = DatasetSpec(n_train=count, n_val=1, n_test=1, seed=seed)
    return generate_splits(world, spec, task)["train"][:count]


def test_one_hot_rows_follow_the_table_order(small_world):
    act = _some_acts(small_world, "object-attr", 1)[0]
    enc = encode_act(act, small_world, "one-hot")
    n_objects = len(small_world.objects)
    assert np.flatnonzero(enc.query_vec).tolist() == [
        small_world.word_vecs.index[act.query.noun],
        n_objects + small_world.attr_vecs.index[act.query.attribute],
    ]
    assert list(small_world.word_vecs.index) == small_world.objects


def test_encode_object_only_dense(small_world):
    act = _some_acts(small_world, "object-only", 1)[0]
    enc = encode_act(act, small_world, "dense")
    np.testing.assert_array_equal(enc.query_vec, small_world.word_vecs[act.query.noun])
    assert len(enc.candidates) == len(act.items)
    for vec, item in zip(enc.candidates, act.items):
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
    for vec, item in zip(enc.candidates, act.items):
        assert vec.shape == (d_img + d_word,)
        np.testing.assert_array_equal(vec[:d_img], small_world.image_vecs[item.image_id])
        np.testing.assert_array_equal(vec[d_img:], small_world.attr_vecs[item.attribute])


def _with_bad_row(world, table_name, token, bad):
    table = getattr(world, table_name)
    vecs = table.vecs.copy()
    vecs[table.index[token], 1] = bad
    return dataclasses.replace(world, **{table_name: Table(vecs, table.index)})


def _tokens(act):
    return {act.query.noun, act.query.attribute,
            *(item.image_id for item in act.items),
            *(item.attribute for item in act.items)}


@pytest.mark.parametrize("where", ["query", "candidate", "attribute"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("normalize_blocks", [False, True])
def test_encode_split_rejects_a_nonfinite_table_row_naming_the_act(
        small_world, where, bad, normalize_blocks):
    acts = _some_acts(small_world, "object-attr", 6)
    culprit = acts[4]
    table_name, token = {
        "query": ("word_vecs", culprit.query.noun),
        "candidate": ("image_vecs", culprit.items[-1].image_id),
        "attribute": ("attr_vecs", culprit.items[-1].attribute),
    }[where]
    world = _with_bad_row(small_world, table_name, token, bad)
    users = "|".join(re.escape(act.id) for act in acts if token in _tokens(act))
    with pytest.raises(ValidationError, match=f"act '({users})': non-finite"):
        encode_split(world, acts, "dense", normalize_blocks)
    # A split that never looks the row up encodes.
    others = [act for act in acts if token not in _tokens(act)]
    assert len(encode_split(world, others, "dense", normalize_blocks)) == len(others)


def test_encode_one_hot_dimensions(small_world):
    config = small_world.config
    oo = _some_acts(small_world, "object-only", 1)[0]
    enc = encode_act(oo, small_world, "one-hot")
    assert enc.query_vec.shape == (config.n_classes,)
    assert enc.query_vec.sum() == 1.0
    assert enc.candidates.shape[1:] == (config.d_img,)

    oa = _some_acts(small_world, "object-attr", 1)[0]
    enc = encode_act(oa, small_world, "one-hot")
    assert enc.query_vec.shape == (config.n_classes + config.n_attributes,)
    assert enc.query_vec.sum() == 2.0
    assert enc.candidates.shape[1:] == (config.d_img + config.n_attributes,)


def test_one_hot_equals_dense_with_indicator_tables(small_world):
    """Indicator encoding is dense encoding under identity word/attr tables."""
    n_objects, n_attributes = len(small_world.objects), len(small_world.attributes)
    indicator_words = Table.of(small_world.objects, np.eye(n_objects))
    indicator_attrs = Table.of(small_world.attributes, np.eye(n_attributes))
    indicator_world = dataclasses.replace(
        small_world, word_vecs=indicator_words, attr_vecs=indicator_attrs
    )
    for task in ("object-only", "object-attr"):
        for act in _some_acts(small_world, task, 10):
            direct = encode_act(act, small_world, "one-hot")
            via_tables = encode_act(act, indicator_world, "dense")
            np.testing.assert_array_equal(direct.query_vec, via_tables.query_vec)
            np.testing.assert_array_equal(direct.candidates, via_tables.candidates)


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
    for vec in enc.candidates:
        assert np.linalg.norm(vec[:d_img]) == pytest.approx(1.0)
        assert np.linalg.norm(vec[d_img:]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The split encoder against the per-act encoder it replaced
# ---------------------------------------------------------------------------


def _parent_one_hot(token: str, vocab: list[str]) -> np.ndarray:
    """Indicator vector of ``token`` within an ordered vocabulary."""
    try:
        index = vocab.index(token)
    except ValueError:
        raise EncodingError(
            f"token {token!r} is not in the one-hot vocabulary"
        ) from None
    vec = np.zeros(len(vocab), dtype=np.float64)
    vec[index] = 1.0
    return vec


def _parent_dense_lookup(table, token: str, kind: str, allow_unknown: bool) -> np.ndarray:
    if token in table:
        return table[token]
    if allow_unknown:
        return np.zeros(table.vecs.shape[1], dtype=np.float64)
    raise EncodingError(f"unknown {kind} {token!r}")


def _parent_encode_act(act, world, mode="dense", *, allow_unknown=False,
                       normalize_blocks=False):
    """The per-act encoder the split encoder replaced, kept verbatim as the
    reference (it returns the query vector and the list of candidate
    vectors; only the table width is read as ``vecs.shape[1]``)."""
    has_attr = act.query.attribute is not None
    for item in act.items:
        if (item.attribute is not None) != has_attr:
            raise EncodingError(
                f"act {act.id!r}: attribute fields must be all-present or all-absent"
            )

    def maybe_unit(vec: np.ndarray) -> np.ndarray:
        if not normalize_blocks:
            return vec
        norm = float(np.linalg.norm(vec))
        return vec if norm == 0.0 else vec / norm

    if mode == "dense":
        noun_vec = maybe_unit(
            _parent_dense_lookup(world.word_vecs, act.query.noun, "object noun",
                                 allow_unknown)
        )

        def attr_of(name: str) -> np.ndarray:
            return maybe_unit(
                _parent_dense_lookup(world.attr_vecs, name, "attribute", allow_unknown)
            )

    else:
        noun_vec = maybe_unit(_parent_one_hot(act.query.noun, world.objects))

        def attr_of(name: str) -> np.ndarray:
            return maybe_unit(_parent_one_hot(name, world.attributes))

    if has_attr:
        query_vec = np.concatenate([noun_vec, attr_of(act.query.attribute)])
    else:
        query_vec = noun_vec

    candidates = []
    for item in act.items:
        img = maybe_unit(
            _parent_dense_lookup(world.image_vecs, item.image_id, "image id",
                                 allow_unknown)
        )
        if has_attr:
            candidates.append(np.concatenate([img, attr_of(item.attribute)]))
        else:
            candidates.append(img)
    return query_vec, candidates


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mode", ["dense", "one-hot"])
@pytest.mark.parametrize("task", ["object-only", "object-attr"])
@pytest.mark.parametrize("normalize_blocks", [False, True])
def test_split_rows_equal_the_per_act_encoding_bit_for_bit(
        small_world, mode, task, normalize_blocks):
    acts = _some_acts(small_world, task, 40)
    split = encode_split(small_world, acts, mode, normalize_blocks)
    assert len(split) == len(acts)
    assert split.ids == [act.id for act in acts]
    assert split.golds == [act.gold for act in acts]
    assert np.diff(split.offsets).tolist() == [len(act.items) for act in acts]
    for i, act in enumerate(acts):
        query, candidates = _parent_encode_act(act, small_world, mode,
                                               normalize_blocks=normalize_blocks)
        assert _bits(split[i].query_vec) == _bits(query)
        rows = split.candidates[split.offsets[i]:split.offsets[i + 1]]
        assert [_bits(row) for row in rows] == [_bits(vec) for vec in candidates]
        one = encode_act(act, small_world, mode, normalize_blocks=normalize_blocks)
        assert _bits(one.query_vec) == _bits(query)
        assert _bits(one.candidates) == _bits(np.array(candidates))


@pytest.mark.parametrize("task", ["object-only", "object-attr"])
def test_split_gold_arrays_are_built_once_on_first_read(small_world, task):
    acts = _some_acts(small_world, task, 60)
    split = encode_split(small_world, acts, "dense")
    assert "gold_arrays" not in vars(split)
    right, rows = split.gold_arrays
    assert split.gold_arrays is split.gold_arrays
    assert right.dtype == rows.dtype == np.intp
    assert right.tolist() == [act.gold.index if act.gold.kind == POINT else PROTEST
                              for act in acts]
    assert [GOLD_CATEGORIES[row] for row in rows] == \
        [act.gold.anomaly_kind or POINT for act in acts]
    assert set(rows.tolist()) == {0, 1, 2}
    part_right, part_rows = split[7:19].gold_arrays
    assert part_right.tolist() == right[7:19].tolist()
    assert part_rows.tolist() == rows[7:19].tolist()
    empty_right, empty_rows = split[:0].gold_arrays
    assert empty_right.shape == empty_rows.shape == (0,)


def _ghost(act, noun=None, image_id=None, attribute=None):
    """``act`` with its query noun, its first image id or its first item's
    attribute replaced."""
    items = list(act.items)
    items[0] = dataclasses.replace(
        items[0], image_id=image_id or items[0].image_id,
        attribute=attribute or items[0].attribute)
    return dataclasses.replace(
        act, query=dataclasses.replace(act.query, noun=noun or act.query.noun),
        items=tuple(items))


@pytest.mark.parametrize("field", ["noun", "image_id", "attribute"])
@pytest.mark.parametrize("normalize_blocks", [False, True])
def test_allow_unknown_gives_zero_rows_in_dense_mode_only(
        small_world, field, normalize_blocks):
    acts = _some_acts(small_world, "object-attr", 5)
    acts[2] = _ghost(acts[2], **{field: "nosuch"})
    split = encode_split(small_world, acts, "dense", normalize_blocks,
                         allow_unknown=True)
    for i, act in enumerate(acts):
        query, candidates = _parent_encode_act(act, small_world, "dense",
                                               allow_unknown=True,
                                               normalize_blocks=normalize_blocks)
        assert _bits(split[i].query_vec) == _bits(query)
        assert _bits(split[i].candidates) == _bits(np.array(candidates))
    d_word, d_img = small_world.config.d_word, small_world.config.d_img
    zero_block = {"noun": split[2].query_vec[:d_word],
                  "image_id": split[2].candidates[0, :d_img],
                  "attribute": split[2].candidates[0, d_img:]}[field]
    assert not zero_block.any()
    with pytest.raises(EncodingError, match=f"act {acts[2].id!r}: unknown"):
        encode_split(small_world, acts, "dense", normalize_blocks)
    if field != "image_id":  # image vectors stay dense in one-hot mode
        with pytest.raises(EncodingError, match=f"act {acts[2].id!r}: unknown"):
            encode_split(small_world, acts, "one-hot", normalize_blocks,
                         allow_unknown=True)


def test_encode_split_rejects_an_empty_lineup_naming_the_act(small_world):
    acts = _some_acts(small_world, "object-only", 4)
    acts[3] = dataclasses.replace(acts[3], items=())
    with pytest.raises(ValidationError, match=f"act {acts[3].id!r}: no candidate"):
        encode_split(small_world, acts, "dense")


@pytest.mark.parametrize("part", ["item", "query"])
def test_encode_split_rejects_mixed_attributes_naming_the_act(small_world, part):
    acts = _some_acts(small_world, "object-attr", 4)
    if part == "item":
        acts[2] = _ghost(acts[2])
        items = list(acts[2].items)
        items[-1] = dataclasses.replace(items[-1], attribute=None)
        acts[2] = dataclasses.replace(acts[2], items=tuple(items))
    else:
        acts[2] = dataclasses.replace(
            acts[2], query=dataclasses.replace(acts[2].query, attribute=None))
    with pytest.raises(EncodingError, match=f"act {acts[2].id!r}: attribute fields"):
        encode_split(small_world, acts, "dense")


@pytest.mark.parametrize("task", ["object-only", "object-attr"])
def test_split_slices_share_the_table(small_world, task):
    split = encode_split(small_world, _some_acts(small_world, task, 9))
    if task == "object-only":  # candidates are rows of the world's image table
        assert split.table is small_world.image_vecs.vecs
    else:
        assert split.rows.tolist() == list(range(len(split.candidates)))
    part = split[3:7]
    assert isinstance(part, EncodedSplit) and len(part) == 4
    assert part.ids == split.ids[3:7]
    assert part.table is split.table
    assert np.shares_memory(part.queries, split.queries)
    assert part.offsets[0] == 0
    np.testing.assert_array_equal(
        part.candidates, split.candidates[split.offsets[3]:split.offsets[7]])
    act = part[1]
    assert act.act_id == split.ids[4]
    np.testing.assert_array_equal(act.candidates, split[4].candidates)
    assert [a.act_id for a in split] == split.ids
    assert len(split[7:3]) == 0


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
        assert len(enc.candidates) == len(act.items)
