"""Tests for reference-act generation, validation, serialization, and stats."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from popref import datagen
from popref.datagen import (
    ANOMALY,
    GENERATORS,
    MISS,
    MULT,
    DatasetSpec,
    Gold,
    Item,
    Query,
    ReferenceAct,
    act_from_dict,
    dataset_stats,
    gen_object_attribute,
    gen_object_only,
    generate_splits,
    matches,
    read_jsonl,
    validate_act,
    write_jsonl,
)
from popref.embeddings import WorldConfig, build_synthetic_world
from popref.errors import ConfigError, ContractViolation, ParseError, ValidationError
from popref.numerics import Rng, derive_seed


# ---------------------------------------------------------------------------
# Gold / matches / validate_act
# ---------------------------------------------------------------------------


def test_gold_constructors_validate():
    Gold.point(0).validate()
    Gold.miss().validate()
    Gold.mult().validate()


@pytest.mark.parametrize(
    "gold",
    [
        Gold(kind="point", index=None),
        Gold(kind="point", index=1, anomaly_kind="miss"),
        Gold(kind="point", index=-1),
        Gold(kind="anomaly", index=2, anomaly_kind="miss"),
        Gold(kind="anomaly", anomaly_kind="nope"),
        Gold(kind="anomaly", anomaly_kind=None),
        Gold(kind="banana"),
    ],
)
def test_gold_rejects_inconsistent_records(gold):
    with pytest.raises(ValidationError):
        gold.validate()


def test_matches_object_only():
    query = Query(noun="cup")
    assert matches(Item("cup", "cup-i1"), query)
    assert not matches(Item("bowl", "bowl-i1"), query)


def test_matches_requires_both_coordinates():
    query = Query(noun="cup", attribute="blue")
    assert matches(Item("cup", "cup-i1", attribute="blue"), query)
    assert not matches(Item("cup", "cup-i1", attribute="red"), query)
    assert not matches(Item("bowl", "bowl-i1", attribute="blue"), query)


def _act(items, gold, query=Query(noun="cup"), act_id="t-0"):
    return ReferenceAct(id=act_id, query=query, items=tuple(items), gold=gold)


def test_validate_act_happy_path():
    act = _act([Item("cup", "cup-i1"), Item("bowl", "bowl-i1")], Gold.point(0))
    validate_act(act, 2, 5)


@pytest.mark.parametrize(
    "items, gold",
    [
        ([], Gold.miss()),  # empty sequence
        ([Item("cup", "i"), Item("bowl", "j")], Gold.point(2)),  # index range
        ([Item("cup", "i"), Item("bowl", "j")], Gold.point(1)),  # non-match at index
        ([Item("cup", "i"), Item("cup", "j")], Gold.point(0)),  # two matches
        ([Item("cup", "i"), Item("bowl", "j")], Gold.miss()),  # match present
        ([Item("cup", "i"), Item("bowl", "j")], Gold.mult()),  # < 2 matches
    ],
)
def test_validate_act_rejects_gold_inconsistencies(items, gold):
    with pytest.raises(ValidationError):
        validate_act(_act(items, gold))


def test_validate_act_length_bounds():
    act = _act([Item("cup", "i"), Item("bowl", "j")], Gold.point(0))
    with pytest.raises(ValidationError):
        validate_act(act, min_len=3)
    with pytest.raises(ValidationError):
        validate_act(act, max_len=1)


def test_validate_act_mixed_attribute_fields():
    act = _act(
        [Item("cup", "i", attribute="blue"), Item("bowl", "j")],
        Gold.point(0),
        query=Query(noun="cup", attribute="blue"),
    )
    with pytest.raises(ValidationError):
        validate_act(act)


# ---------------------------------------------------------------------------
# DatasetSpec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_len": 1},
        {"min_len": 6, "max_len": 5},
        {"p_miss": -0.1},
        {"p_miss": 0.6, "p_mult": 0.4},
        {"n_train": -1},
    ],
)
def test_dataset_spec_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        DatasetSpec(**kwargs).validate()


# ---------------------------------------------------------------------------
# Object-only generation
# ---------------------------------------------------------------------------


def test_object_only_success_acts_have_one_match(small_world):
    spec = DatasetSpec(p_miss=0.0, p_mult=0.0, seed=3)
    for act in gen_object_only(small_world, spec, Rng(3), 200):
        assert act.gold.kind == "point"
        hits = [it for it in act.items if matches(it, act.query)]
        assert len(hits) == 1
        assert act.items[act.gold.index] in hits
        assert spec.min_len <= len(act.items) <= spec.max_len
        # Non-anomalous acts never repeat an object.
        names = [it.object for it in act.items]
        assert len(set(names)) == len(names)


def test_object_only_ids_and_determinism(small_world):
    spec = DatasetSpec(seed=9)
    first = list(gen_object_only(small_world, spec, Rng(9), 30))
    again = list(gen_object_only(small_world, spec, Rng(9), 30))
    assert first == again
    assert [a.id for a in first] == [f"act-{i:06d}" for i in range(30)]


def test_object_only_sharding_is_byte_identical(small_world):
    spec = DatasetSpec(seed=12)
    whole = list(gen_object_only(small_world, spec, Rng(12), 50))
    left = list(gen_object_only(small_world, spec, Rng(12), 25))
    right = list(gen_object_only(small_world, spec, Rng(12), 25, start=25))
    assert whole == left + right


def test_object_only_miss_acts_have_no_match(small_world):
    spec = DatasetSpec(p_miss=0.9, p_mult=0.0, seed=4)
    saw_miss = False
    for act in gen_object_only(small_world, spec, Rng(4), 120):
        if act.gold.anomaly_kind == "miss":
            saw_miss = True
            assert all(not matches(it, act.query) for it in act.items)
    assert saw_miss


def test_object_only_mult_acts_duplicate_with_fresh_image(small_world):
    spec = DatasetSpec(p_miss=0.0, p_mult=0.9, seed=4)
    saw_mult = False
    for act in gen_object_only(small_world, spec, Rng(4), 120):
        if act.gold.anomaly_kind == "mult":
            saw_mult = True
            hits = [it for it in act.items if matches(it, act.query)]
            assert len(hits) == 2
            # With >= 2 images per class the duplicate never reuses the
            # query item's image.
            assert hits[0].image_id != hits[1].image_id
    assert saw_mult


def test_object_only_needs_enough_objects():
    config = WorldConfig(
        n_classes=5, images_per_class=2, n_attributes=5, d_img=4, d_word=4,
        attrs_per_object=3,
    )
    tiny = build_synthetic_world(config, seed=0)
    spec = DatasetSpec(max_len=5)
    with pytest.raises(ConfigError):
        next(gen_object_only(tiny, spec, Rng(0), 1))


def test_anomaly_rates_match_spec(small_world):
    spec = DatasetSpec(p_miss=0.15, p_mult=0.15, seed=21)
    kinds = {"point": 0, "miss": 0, "mult": 0}
    n = 4000
    for act in gen_object_only(small_world, spec, Rng(21), n):
        kinds[act.gold.anomaly_kind or "point"] += 1
    assert abs(kinds["miss"] / n - 0.15) < 0.02
    assert abs(kinds["mult"] / n - 0.15) < 0.02


def test_lengths_uniform(small_world):
    spec = DatasetSpec(min_len=2, max_len=5, seed=22)
    counts = {ln: 0 for ln in range(2, 6)}
    n = 4000
    for act in gen_object_only(small_world, spec, Rng(22), n):
        counts[len(act.items)] += 1
    for ln in counts:
        assert abs(counts[ln] / n - 0.25) < 0.03


def test_gold_index_uniform_at_fixed_length(small_world):
    spec = DatasetSpec(min_len=3, max_len=3, p_miss=0.0, p_mult=0.0, seed=23)
    counts = np.zeros(3)
    n = 3000
    for act in gen_object_only(small_world, spec, Rng(23), n):
        counts[act.gold.index] += 1
    np.testing.assert_allclose(counts / n, np.full(3, 1 / 3), atol=0.04)


# ---------------------------------------------------------------------------
# Attribute-bearing generation
# ---------------------------------------------------------------------------


def test_object_attribute_success_structure(small_world):
    spec = DatasetSpec(p_miss=0.0, p_mult=0.0, seed=5)
    for act in gen_object_attribute(small_world, spec, Rng(5), 150):
        assert act.query.attribute is not None
        assert act.query.attribute in small_world.compat[act.query.noun]
        hits = [it for it in act.items if matches(it, act.query)]
        assert len(hits) == 1
        for item in act.items:
            assert item.attribute is not None
        # Confounders share at most one coordinate with the query pair.
        for i, item in enumerate(act.items):
            if i != act.gold.index:
                assert (item.object, item.attribute) != (
                    act.query.noun,
                    act.query.attribute,
                )


def test_object_attribute_confounders_share_coordinates(small_world):
    spec = DatasetSpec(p_miss=0.0, p_mult=0.0, min_len=5, max_len=5, seed=6)
    share_obj = share_attr = share_neither = 0
    for act in gen_object_attribute(small_world, spec, Rng(6), 200):
        for i, item in enumerate(act.items):
            if i == act.gold.index:
                continue
            same_obj = item.object == act.query.noun
            same_attr = item.attribute == act.query.attribute
            assert not (same_obj and same_attr)
            if same_obj:
                share_obj += 1
            elif same_attr:
                share_attr += 1
            else:
                share_neither += 1
    # The pool holds two object-sharing, two attribute-sharing, and two
    # disjoint entries, so all three kinds must show up in quantity.
    assert share_obj > 100
    assert share_attr > 100
    assert share_neither > 100


def test_object_attribute_miss_and_mult(small_world):
    spec = DatasetSpec(p_miss=0.45, p_mult=0.45, seed=7)
    saw = {"miss": 0, "mult": 0}
    for act in gen_object_attribute(small_world, spec, Rng(7), 200):
        if act.gold.kind == "anomaly":
            saw[act.gold.anomaly_kind] += 1
            hits = [it for it in act.items if matches(it, act.query)]
            if act.gold.anomaly_kind == "miss":
                assert not hits
            else:
                assert len(hits) == 2
    assert saw["miss"] > 20
    assert saw["mult"] > 20


def test_object_attribute_max_len_cap(small_world):
    spec = DatasetSpec(min_len=2, max_len=8)
    with pytest.raises(ConfigError):
        next(gen_object_attribute(small_world, spec, Rng(0), 1))
    # Length 7 = query item + the full 6-confounder pool is the ceiling.
    spec7 = DatasetSpec(min_len=7, max_len=7, seed=8)
    act = next(gen_object_attribute(small_world, spec7, Rng(8), 1))
    assert len(act.items) == 7


def test_object_attribute_sharding(small_world):
    spec = DatasetSpec(seed=13)
    whole = list(gen_object_attribute(small_world, spec, Rng(13), 40))
    parts = list(gen_object_attribute(small_world, spec, Rng(13), 15)) + list(
        gen_object_attribute(small_world, spec, Rng(13), 25, start=15)
    )
    assert whole == parts


@pytest.mark.parametrize("task, length", [
    ("object-only", 2), ("object-only", 5), ("object-attr", 2), ("object-attr", 7),
])
def test_generators_at_min_len_equal_to_max_len(small_world, task, length):
    spec = DatasetSpec(min_len=length, max_len=length, p_miss=0.3, p_mult=0.3, seed=31)
    acts = list(GENERATORS[task](small_world, spec, Rng(31), 200))
    assert {len(act.items) for act in acts} == {length}
    assert {act.gold.anomaly_kind for act in acts} == {None, MISS, MULT}


def test_object_attribute_at_max_len_7_draws_every_length(small_world):
    spec = DatasetSpec(min_len=2, max_len=7, p_miss=0.3, p_mult=0.3, seed=32)
    acts = list(gen_object_attribute(small_world, spec, Rng(32), 600))
    assert {len(act.items) for act in acts} == set(range(2, 8))
    assert {act.gold.anomaly_kind for act in acts} == {None, MISS, MULT}


@pytest.mark.parametrize("max_len", [2, 5])
def test_object_only_with_exactly_max_len_plus_one_classes(max_len):
    # A missing-referent act of length max_len has one object left to draw.
    config = WorldConfig(
        n_classes=max_len + 1, images_per_class=2, n_attributes=5, d_img=4,
        d_word=4, attrs_per_object=3,
    )
    world = build_synthetic_world(config, seed=3)
    spec = DatasetSpec(min_len=max_len, max_len=max_len, p_miss=0.3, p_mult=0.3,
                       seed=33)
    acts = list(gen_object_only(world, spec, Rng(33), 300))
    assert {act.gold.anomaly_kind for act in acts} == {None, MISS, MULT}
    for act in acts:
        if act.gold.anomaly_kind == MISS:
            assert act.query.noun not in {item.object for item in act.items}


def _reference_generate(draw, label, world, spec, rng, count, start, id_prefix):
    """The generation loop as it was before the act streams were seeded and
    drawn ahead as lanes: one ``Rng(derive_seed(...))`` per act."""
    for index in range(start, start + count):
        act_rng = Rng(derive_seed(rng.seed, label, index))
        query, items, anomaly = draw(world, spec, act_rng)
        perm = list(range(len(items)))
        act_rng.shuffle(perm)
        gold = (Gold.point(perm.index(0)) if anomaly is None
                else Gold(kind=ANOMALY, anomaly_kind=anomaly))
        act = ReferenceAct(id=f"{id_prefix}-{index:06d}", query=query,
                           items=tuple(items[p] for p in perm), gold=gold)
        validate_act(act, spec.min_len, spec.max_len)
        yield act


_DRAWS = {"object-only": (datagen._draw_object_only, "object-only"),
          "object-attr": (datagen._draw_object_attribute, "object-attribute")}
_BLOCK = datagen._LANE_ACTS
# (count, start): a block less one, a block, a block and one, offset starts.
_RANGES = [(_BLOCK - 1, 0), (_BLOCK, 0), (_BLOCK + 1, 0), (40, 3), (_BLOCK + 2, _BLOCK - 1)]


def _assert_generated_as_reference(world, task, spec, count, start):
    rng = Rng(spec.seed)
    got = list(GENERATORS[task](world, spec, rng, count, start=start, id_prefix="x"))
    draw, label = _DRAWS[task]
    assert got == list(_reference_generate(draw, label, world, spec, rng, count, start, "x"))
    assert len(got) == count


@pytest.mark.parametrize("count, start", _RANGES)
@pytest.mark.parametrize("task", GENERATORS)
def test_generators_match_the_per_act_reference_across_blocks(small_world, task,
                                                              count, start):
    _assert_generated_as_reference(small_world, task, DatasetSpec(seed=41), count, start)


@pytest.mark.parametrize("p_miss, p_mult", [(0.0, 0.0), (0.15, 0.15), (0.5, 0.4999)])
@pytest.mark.parametrize("task, length", [
    ("object-only", None), ("object-only", 2), ("object-only", 11),
    ("object-attr", None), ("object-attr", 2), ("object-attr", 7),
])
def test_generators_match_the_per_act_reference(small_world, task, length, p_miss, p_mult):
    # small_world has 12 classes, so object-only acts reach length 11.
    lengths = {} if length is None else {"min_len": length, "max_len": length}
    spec = DatasetSpec(p_miss=p_miss, p_mult=p_mult, seed=42, **lengths)
    _assert_generated_as_reference(small_world, task, spec, 150, 7)


@pytest.mark.parametrize("count, start", [(2, -1), (-3, 0), (-1, 4)])
@pytest.mark.parametrize("task", GENERATORS)
def test_generators_reject_a_negative_start_or_count(small_world, task, count, start):
    with pytest.raises(ContractViolation, match="start >= 0 and count >= 0"):
        list(GENERATORS[task](small_world, DatasetSpec(), Rng(0), count, start=start))


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def test_generate_splits_sizes_and_prefixes(small_world):
    spec = DatasetSpec(n_train=30, n_val=10, n_test=20, seed=14)
    splits = generate_splits(small_world, spec, "object-only")
    assert {k: len(v) for k, v in splits.items()} == {
        "train": 30, "val": 10, "test": 20,
    }
    assert splits["train"][0].id.startswith("train-")
    assert splits["val"][0].id.startswith("val-")
    assert splits["test"][0].id.startswith("test-")


def test_generate_splits_are_independent(small_world):
    base = DatasetSpec(n_train=30, n_val=5, n_test=15, seed=14)
    bigger = DatasetSpec(n_train=60, n_val=5, n_test=15, seed=14)
    a = generate_splits(small_world, base, "object-only")
    b = generate_splits(small_world, bigger, "object-only")
    assert a["test"] == b["test"]
    assert a["val"] == b["val"]
    assert a["train"] == b["train"][: len(a["train"])]


def test_generate_splits_unknown_task(small_world):
    with pytest.raises(ConfigError):
        generate_splits(small_world, DatasetSpec(), "object-color")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path, small_world):
    spec = DatasetSpec(n_train=25, n_val=1, n_test=1, seed=15)
    for task in ("object-only", "object-attr"):
        acts = generate_splits(small_world, spec, task)["train"]
        path = tmp_path / f"{task}.jsonl"
        write_jsonl(acts, path)
        assert read_jsonl(path) == acts


@pytest.mark.parametrize("trial", range(6))
def test_jsonl_write_read_write_is_byte_identical(tmp_path, small_world, trial):
    rng = Rng(1000 + trial)
    task = ("object-only", "object-attr")[trial % 2]
    cap = 7 if task == "object-attr" else len(small_world.objects) - 1
    min_len = 2 + rng.randrange(cap - 1)
    spec = DatasetSpec(
        min_len=min_len,
        max_len=min_len + rng.randrange(cap - min_len + 1),
        p_miss=rng.uniform(0.0, 0.45),
        p_mult=rng.uniform(0.0, 0.45),
        seed=rng.randrange(2**31),
    )
    acts = list(GENERATORS[task](small_world, spec, Rng(spec.seed),
                                 1 + rng.randrange(60)))
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_jsonl(acts, first)
    back = read_jsonl(first)
    assert back == acts
    write_jsonl(back, second)
    assert second.read_bytes() == first.read_bytes()


def test_jsonl_lines_are_sorted_json(tmp_path, small_world):
    spec = DatasetSpec(n_train=3, n_val=1, n_test=1, seed=16)
    acts = generate_splits(small_world, spec, "object-only")["train"]
    path = tmp_path / "acts.jsonl"
    write_jsonl(acts, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert list(record.keys()) == sorted(record.keys())


@pytest.mark.parametrize("task", ["object-only", "object-attr"])
def test_jsonl_records_are_the_acts_asdict(tmp_path, small_world, task):
    spec = DatasetSpec(n_train=20, n_val=1, n_test=1, seed=18)
    acts = generate_splits(small_world, spec, task)["train"]
    path = tmp_path / "acts.jsonl"
    write_jsonl(acts, path)
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(asdict(act), sort_keys=True) for act in acts]


def test_read_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_jsonl(path) == []


def test_act_dict_round_trip():
    act = ReferenceAct(
        id="x-000001",
        query=Query(noun="cup", attribute="blue"),
        items=(
            Item("cup", "cup-i0", attribute="blue"),
            Item("bowl", "bowl-i1", attribute="blue"),
        ),
        gold=Gold.point(0),
    )
    assert act_from_dict(json.loads(json.dumps(asdict(act)))) == act


def _good_record():
    return {
        "id": "a-000000",
        "query": {"noun": "cup", "attribute": None},
        "items": [{"object": "cup", "image_id": "cup-i0", "attribute": None}],
        "gold": {"kind": "point", "index": 0, "anomaly_kind": None},
    }


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("gold"),
        lambda r: r.pop("query"),
        lambda r: r["query"].pop("noun"),
        lambda r: r.update(items=[]),
        lambda r: r["gold"].update(index=None),  # point without an index
        lambda r: r["gold"].update(kind="anomaly"),  # anomaly with an index
        lambda r: r["items"][0].update(object=3),
        lambda r: r["gold"].update(index="zero"),
        lambda r: r["gold"].update(index=3),  # out of range for one item
        lambda r: r["gold"].update(index=True),  # a boolean is not an index
        lambda r: r["items"].append(dict(r["items"][0], object="bowl")) or
        r["gold"].update(index=1),  # gold at an item that does not match
        lambda r: r["items"].append(dict(r["items"][0])),  # two matches, point gold
        lambda r: r.update(note="extra"),  # unknown field
        lambda r: r["gold"].update(note="extra"),  # unknown nested field
        lambda r: r["query"].update(attribute="blue"),  # attribute on one side only
        lambda r: r.update(items=tuple(r["items"])),  # not a JSON array
    ],
)
def test_act_from_dict_rejects_bad_records(mutate):
    record = _good_record()
    mutate(record)
    with pytest.raises(ParseError, match="^line 5: "):
        act_from_dict(record, lineno=5)


def test_act_from_dict_names_the_field_that_does_not_fit():
    record = _good_record()
    record["gold"]["index"] = True
    with pytest.raises(ParseError) as err:
        act_from_dict(record, lineno=2)
    assert str(err.value).startswith(
        "line 2: act.gold does not fit "
        "Gold(kind: str, index: int | None, anomaly_kind: str | None)")
    record = _good_record()
    record["items"][0]["object"] = 3
    with pytest.raises(ParseError, match=r"act\.items\[0\] does not fit Item\("):
        act_from_dict(record)
    with pytest.raises(ParseError, match=r"act does not fit ReferenceAct\(id: str, "
                       r"query: Query, items: tuple\[Item, \.\.\.\], gold: Gold\)"):
        act_from_dict(dict(_good_record(), id=7))


# The exact bytes write_jsonl emits for one attribute act and one
# object-only act; the README's file-format example is the first line.
_GOLDEN_JSONL = (
    '{"gold": {"anomaly_kind": null, "index": 1, "kind": "point"}, '
    '"id": "train-000000", "items": [{"attribute": "attr003", '
    '"image_id": "obj002-i00", "object": "obj002"}, {"attribute": "attr000", '
    '"image_id": "obj005-i00", "object": "obj005"}], '
    '"query": {"attribute": "attr000", "noun": "obj005"}}\n'
    '{"gold": {"anomaly_kind": "miss", "index": null, "kind": "anomaly"}, '
    '"id": "test-000042", "items": [{"attribute": null, "image_id": "cup-i1", '
    '"object": "cup"}, {"attribute": null, "image_id": "bowl-i0", '
    '"object": "bowl"}], "query": {"attribute": null, "noun": "pan"}}\n'
)


def test_write_jsonl_bytes_are_pinned(tmp_path):
    acts = [
        ReferenceAct(
            id="train-000000",
            query=Query(noun="obj005", attribute="attr000"),
            items=(Item("obj002", "obj002-i00", attribute="attr003"),
                   Item("obj005", "obj005-i00", attribute="attr000")),
            gold=Gold.point(1),
        ),
        ReferenceAct(
            id="test-000042",
            query=Query(noun="pan"),
            items=(Item("cup", "cup-i1"), Item("bowl", "bowl-i0")),
            gold=Gold.miss(),
        ),
    ]
    path = tmp_path / "golden.jsonl"
    write_jsonl(acts, path)
    assert path.read_text(encoding="utf-8") == _GOLDEN_JSONL
    assert read_jsonl(path) == acts


def test_read_jsonl_reports_line_numbers(tmp_path):
    good = json.dumps(_good_record())
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n{not json}\n")
    with pytest.raises(ParseError) as err:
        read_jsonl(path)
    assert err.value.line == 2

    record = _good_record()
    del record["gold"]
    path.write_text(good + "\n" + good + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError) as err:
        read_jsonl(path)
    assert err.value.line == 3

    # "\r\n" and a lone "\r" end a line, as "\n" does.
    path.write_bytes((good + "\r\n" + good + "\r{not json}\r\n").encode("utf-8"))
    with pytest.raises(ParseError) as err:
        read_jsonl(path)
    assert err.value.line == 3


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def test_dataset_stats_brute_force():
    acts = [
        _act([Item("A", "a1"), Item("B", "b1")], Gold.point(0),
             query=Query(noun="A"), act_id="s-0"),
        _act([Item("A", "a1"), Item("A", "a2")], Gold.mult(),
             query=Query(noun="A"), act_id="s-1"),
    ]
    report = dataset_stats(acts)
    freqs = report.avg_frequency["all"]
    # objects: A x3, B x1 over 2 distinct -> 2.0 average occurrences
    assert freqs["object"] == pytest.approx(2.0)
    # object+image: (A,a1) x2, (A,a2) x1, (B,b1) x1 over 3 distinct
    assert freqs["object+image"] == pytest.approx(4 / 3)
    assert freqs["object+attribute"] is None
    assert report.unseen_pct is None


def test_dataset_stats_unseen_percentage():
    train = [
        _act([Item("A", "a1"), Item("B", "b1")], Gold.point(0),
             query=Query(noun="A"), act_id="s-0"),
    ]
    test = [
        _act([Item("A", "a1"), Item("C", "c1")], Gold.point(0),
             query=Query(noun="A"), act_id="t-0"),
    ]
    report = dataset_stats(train, test)
    assert report.unseen_pct["object"] == pytest.approx(50.0)
    assert report.unseen_pct["object+image"] == pytest.approx(50.0)
    assert "train" in report.avg_frequency
    assert "test" in report.avg_frequency


def test_dataset_stats_text_renders_missing_columns(small_world):
    spec = DatasetSpec(n_train=10, n_val=1, n_test=1, seed=17)
    acts = generate_splits(small_world, spec, "object-only")["train"]
    text = dataset_stats(acts).to_text()
    assert "--" in text
    assert "object+image" in text


def test_dataset_stats_rejects_empty():
    with pytest.raises(ValidationError):
        dataset_stats([])
