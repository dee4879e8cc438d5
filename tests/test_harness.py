"""Tests for metrics, manifest parsing, and end-to-end experiment runs."""

import datetime
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from popref.datagen import (
    ANOMALY,
    MISS,
    MULT,
    POINT,
    PROTEST,
    DatasetSpec,
    Gold,
    Item,
    Query,
    ReferenceAct,
    generate_splits,
)
from popref.embeddings import (
    EncodedAct,
    EncodedSplit,
    WorldConfig,
    build_synthetic_world,
    encode_act,
)
from popref.errors import ConfigError, ContractViolation, ParseError
from popref import harness
from popref.harness import (
    DEFAULT_EPOCHS,
    GOLD_CATEGORIES,
    KNOWN_MANIFEST_KEYS,
    PREDICTED_BUCKETS,
    Metrics,
    build_dataset_spec,
    build_inputs,
    build_train_config,
    build_world_config,
    encode_split,
    evaluate,
    parse_kv_file,
    per_act,
    report_to_json,
    run_experiment,
    validate_manifest_keys,
    write_report_bundle,
)
from popref.checkpoint import load_checkpoint, restore_inputs, restore_pipeline
from popref.numerics import Rng, derive_seed
from popref.pipeline_model import MISS_GRID, GAP_GRID, PipelineConfig
from popref.pop_model import PopConfig, PopTrainable, init_params
from popref.training import TrainConfig, train


def _act(i, gold):
    item = Item(object="obj000", image_id="obj000-i00")
    return ReferenceAct(
        id=f"a{i}", query=Query(noun="obj000"), items=(item, item), gold=gold
    )


def _scripted(predictions):
    table = dict(predictions)
    return per_act(lambda act: table[act.id])


# ---------------------------------------------------------------------------
# evaluate / Metrics


def test_evaluate_seven_of_ten_is_70():
    acts = [_act(i, Gold.point(0)) for i in range(6)]
    acts += [_act(6, Gold.miss()), _act(7, Gold.miss())]
    acts += [_act(8, Gold.mult()), _act(9, Gold.mult())]
    predictor = _scripted(
        [
            ("a0", 0),  # correct
            ("a1", 0),  # correct
            ("a2", 0),  # correct
            ("a3", 0),  # correct
            ("a4", 1),  # wrong index
            ("a5", PROTEST),  # wrong outcome
            ("a6", PROTEST),  # correct
            ("a7", 0),  # wrong outcome
            ("a8", PROTEST),  # correct
            ("a9", PROTEST),  # correct
        ]
    )
    metrics = evaluate(predictor, acts)
    assert metrics.n_total == 10
    assert metrics.total == pytest.approx(70.0)
    assert metrics.pointing == pytest.approx(100.0 * 4 / 6)
    assert metrics.missref == pytest.approx(50.0)
    assert metrics.multref == pytest.approx(100.0)


def test_evaluate_confusion_table_cells():
    acts = [
        _act(0, Gold.point(1)),
        _act(1, Gold.point(0)),
        _act(2, Gold.point(0)),
        _act(3, Gold.miss()),
        _act(4, Gold.miss()),
        _act(5, Gold.mult()),
    ]
    predictor = _scripted(
        [
            ("a0", 1),
            ("a1", 2),
            ("a2", PROTEST),
            ("a3", PROTEST),
            ("a4", 0),
            ("a5", PROTEST),
        ]
    )
    metrics = evaluate(predictor, acts)
    assert metrics.confusion[POINT] == {
        "point_correct": 1, "point_wrong": 1, "protest": 1,
    }
    assert metrics.confusion[MISS] == {
        "point_correct": 0, "point_wrong": 1, "protest": 1,
    }
    assert metrics.confusion[MULT] == {
        "point_correct": 0, "point_wrong": 0, "protest": 1,
    }
    # Pointing at an anomalous act is wrong no matter the index.
    assert metrics.missref == pytest.approx(50.0)


def test_evaluate_is_order_invariant():
    acts = [_act(i, Gold.point(0)) for i in range(4)]
    acts += [_act(4, Gold.miss()), _act(5, Gold.mult())]
    predictor = _scripted(
        [(f"a{i}", 0) for i in range(4)]
        + [("a4", PROTEST), ("a5", 1)]
    )
    forward = evaluate(predictor, acts)
    backward = evaluate(predictor, list(reversed(acts)))
    assert forward.to_dict() == backward.to_dict()


def test_evaluate_total_weights_categories_by_count():
    acts = [_act(i, Gold.point(0)) for i in range(8)] + [_act(8, Gold.miss())]
    predictor = _scripted(
        [(f"a{i}", 0) for i in range(8)]
        + [("a8", 0)]
    )
    metrics = evaluate(predictor, acts)
    # 8/8 pointing, 0/1 missref: the total is count-weighted, not a mean of
    # the category percentages.
    assert metrics.total == pytest.approx(100.0 * 8 / 9)
    total_correct = sum(c["correct"] for c in metrics.counts.values())
    assert metrics.total == pytest.approx(100.0 * total_correct / metrics.n_total)


def test_metrics_absent_category_reports_none():
    acts = [_act(0, Gold.point(0)), _act(1, Gold.point(1))]
    predictor = _scripted([("a0", 0), ("a1", 0)])
    metrics = evaluate(predictor, acts)
    assert metrics.missref is None
    assert metrics.multref is None
    assert metrics.total == pytest.approx(50.0)
    text = metrics.to_text()
    assert "--" in text
    assert "50.0" in text


def test_metrics_empty_is_all_none():
    metrics = Metrics()
    assert metrics.n_total == 0
    assert metrics.total is None
    assert metrics.to_dict()["total"] is None


def test_metrics_to_dict_round_trips_through_json():
    acts = [_act(0, Gold.point(0)), _act(1, Gold.miss())]
    predictor = _scripted([("a0", 0), ("a1", PROTEST)])
    d = evaluate(predictor, acts).to_dict()
    assert set(d) == {"total", "pointing", "missref", "multref", "counts", "confusion"}
    assert set(d["counts"]) == set(GOLD_CATEGORIES)
    assert json.loads(json.dumps(d)) == d


def _tally_before_choice_arrays(golds, predictions) -> dict:
    """The reference: evaluate's per-act tally as it was when predictors
    returned one Prediction per act, kept verbatim but for reading each
    answer as its choice (an index or PROTEST), with the CategoryCount cells
    and the Metrics.to_dict it filled."""

    @dataclass
    class CategoryCount:
        correct: int = 0
        n: int = 0

        @property
        def percentage(self) -> float | None:
            return None if self.n == 0 else 100.0 * self.correct / self.n

    counts = {cat: CategoryCount() for cat in GOLD_CATEGORIES}
    confusion = {cat: {bucket: 0 for bucket in PREDICTED_BUCKETS}
                 for cat in GOLD_CATEGORIES}
    for gold, prediction in zip(golds, predictions, strict=True):
        category = POINT if gold.kind == POINT else gold.anomaly_kind
        if prediction == PROTEST:
            correct = gold.kind == ANOMALY
            confusion[category]["protest"] += 1
        else:
            correct = gold.kind == POINT and prediction == gold.index
            bucket = "point_correct" if correct else "point_wrong"
            confusion[category][bucket] += 1
        cell = counts[category]
        cell.n += 1
        cell.correct += int(correct)
    n = sum(c.n for c in counts.values())
    return {
        "total": None if n == 0 else 100.0 * sum(c.correct for c in counts.values()) / n,
        "pointing": counts[POINT].percentage,
        "missref": counts[MISS].percentage,
        "multref": counts[MULT].percentage,
        "counts": {cat: {"correct": c.correct, "n": c.n} for cat, c in counts.items()},
        "confusion": {cat: dict(row) for cat, row in confusion.items()},
    }


@pytest.mark.parametrize("size", [0, 1, 2, 9, 200])
def test_evaluate_equals_the_per_act_tally(size):
    rng = Rng(31 + size)
    for trial in range(20):
        lengths = [2 + rng.randrange(4) for _ in range(size)]
        golds = [[Gold.miss(), Gold.mult(), Gold.point(rng.randrange(n))][rng.randrange(3)]
                 for n in lengths]
        # Protests and points at every index of the lineup and beyond it;
        # some trials only protest, some only point inside the lineup.
        choices = [PROTEST if rng.random() < 0.3 else rng.randrange(n + 3)
                   for n in lengths]
        if trial % 4 == 1:
            choices = [PROTEST] * size
        elif trial % 4 == 2:
            choices = [rng.randrange(n) for n in lengths]
        expected = _tally_before_choice_arrays(golds, choices)

        acts = [ReferenceAct(id=f"a{i}", query=Query(noun="obj000"),
                             items=(Item(object="obj000", image_id="obj000-i00"),) * n,
                             gold=gold)
                for i, (n, gold) in enumerate(zip(lengths, golds))]
        by_id = {act.id: choice for act, choice in zip(acts, choices)}
        as_list = evaluate(per_act(lambda act: by_id[act.id]), acts).to_dict()
        split = EncodedSplit.of([
            EncodedAct(query_vec=np.ones(1), candidates=np.zeros((n, 1)), gold=gold,
                       act_id=f"a{i}")
            for i, (n, gold) in enumerate(zip(lengths, golds))])
        as_split = evaluate(lambda s: np.array(choices, dtype=np.intp), split).to_dict()
        assert as_list == expected
        assert as_split == expected
        # Plain ints: json writes them, and writes them as the reference does.
        assert json.dumps(as_split, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("answers", [0, 1, 3, 5], ids=lambda n: f"{n}-answers")
def test_evaluate_rejects_a_wrong_number_of_answers(answers):
    acts = [_act(i, Gold.point(0)) for i in range(4)]
    with pytest.raises(ContractViolation, match="4 acts"):
        evaluate(lambda _: np.zeros(answers, dtype=np.intp), acts)


# ---------------------------------------------------------------------------
# manifest parsing


def test_parse_kv_file_values_comments_blanks(tmp_path):
    path = tmp_path / "m.cfg"
    path.write_text(
        "# leading comment\n"
        "\n"
        "task = object-only\n"
        "  world.n_classes =  12   # trailing comment\n"
        "train.lr0 = 0.09\n"
    )
    assert parse_kv_file(path) == {
        "task": "object-only",
        "world.n_classes": "12",
        "train.lr0": "0.09",
    }


def test_parse_kv_file_error_lines(tmp_path):
    path = tmp_path / "m.cfg"
    path.write_text("task = x\nnot a pair\n")
    with pytest.raises(ParseError) as err:
        parse_kv_file(path)
    assert err.value.line == 2

    path.write_text("= value\n")
    with pytest.raises(ParseError) as err:
        parse_kv_file(path)
    assert err.value.line == 1

    path.write_text("task = x\n# gap\ntask = y\n")
    with pytest.raises(ParseError) as err:
        parse_kv_file(path)
    assert err.value.line == 3
    assert "duplicate" in str(err.value)


def test_validate_manifest_keys():
    validate_manifest_keys({"task": "object-only", "world.sigma": "0.1"})
    with pytest.raises(ConfigError) as err:
        validate_manifest_keys({"task": "x", "wrold.sigma": "0.1"})
    assert "wrold.sigma" in str(err.value)


def test_build_world_config_defaults_and_overrides():
    config, seed = build_world_config({})
    assert config == WorldConfig()
    assert seed == 0
    config, seed = build_world_config(
        {"world.n_classes": "12", "world.sigma": "0.3", "world.seed": "9"}
    )
    assert config.n_classes == 12
    assert config.sigma == pytest.approx(0.3)
    assert config.d_img == WorldConfig().d_img
    assert seed == 9


def test_build_world_config_rejects_bad_number():
    with pytest.raises(ConfigError) as err:
        build_world_config({"world.n_classes": "many"})
    assert "world.n_classes" in str(err.value)


def test_build_dataset_spec():
    spec = build_dataset_spec({"data.n_train": "100", "data.p_miss": "0.2"})
    assert spec.n_train == 100
    assert spec.p_miss == pytest.approx(0.2)
    assert spec.max_len == DatasetSpec().max_len


def test_build_train_config_injects_model_epoch_default():
    config = build_train_config({}, DEFAULT_EPOCHS["trpop"])
    assert config.epochs == 36
    assert config.lr0 == pytest.approx(0.09)
    config = build_train_config({"train.epochs": "3"}, DEFAULT_EPOCHS["trpop"])
    assert config.epochs == 3
    config = build_train_config(
        {"train.lr0": "0.05", "train.shuffle_each_epoch": "off"}, 14
    )
    assert config.lr0 == pytest.approx(0.05)
    assert config.shuffle_each_epoch is False
    assert config.epochs == 14


def test_build_train_config_rejects_bad_bool():
    with pytest.raises(ConfigError):
        build_train_config({"train.shuffle_each_epoch": "maybe"}, 14)


def test_malformed_values_name_the_key_and_the_expected_type():
    cases = [
        (build_world_config, {"world.n_classes": "many"},
         "key 'world.n_classes': expected an integer, got 'many'"),
        (build_world_config, {"world.sigma": "nan"},
         "key 'world.sigma': expected a finite number, got 'nan'"),
        (build_dataset_spec, {"data.p_miss": "lots"},
         "key 'data.p_miss': expected a number, got 'lots'"),
        (lambda m: build_train_config(m, 14), {"train.shuffle_each_epoch": "maybe"},
         "key 'train.shuffle_each_epoch': expected a boolean, got 'maybe'"),
    ]
    for build, manifest, message in cases:
        with pytest.raises(ConfigError) as err:
            build(manifest)
        assert str(err.value) == message


def test_a_config_field_type_without_a_caster_fails_loudly():
    @dataclass(frozen=True)
    class Odd:
        sizes: tuple = (1, 2)

    with pytest.raises(TypeError, match="Odd.sizes"):
        harness._settings("odd", Odd)


def test_readme_key_table_lists_every_manifest_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    after = readme.read_text(encoding="utf-8").split("Recognized keys:", 1)[1]
    table = after.strip().split("\n\n", 1)[0].splitlines()
    keys = set()
    for row in table[2:]:  # skip the header and the rule
        cell = re.sub(r"\([^)]*\)", "", row.split("|")[2])  # drop listed values
        keys.update(re.findall(r"`([^`]+)`", cell))
    assert keys == KNOWN_MANIFEST_KEYS


def test_encode_split_matches_per_act_encoding(small_world):
    spec = DatasetSpec(min_len=2, max_len=4, n_train=6, n_val=0, n_test=0, seed=3)
    acts = generate_splits(small_world, spec, "object-only")["train"]
    encoded = encode_split(small_world, acts, "dense")
    assert len(encoded) == 6
    for enc, act in zip(encoded, acts):
        direct = encode_act(act, small_world, "dense")
        np.testing.assert_array_equal(enc.query_vec, direct.query_vec)
        np.testing.assert_array_equal(enc.candidates, direct.candidates)


# ---------------------------------------------------------------------------
# run_experiment

_TINY_WORLD = {
    "world.n_classes": "12",
    "world.images_per_class": "3",
    "world.n_attributes": "10",
    "world.d_img": "16",
    "world.d_word": "8",
    "world.attrs_per_object": "4",
    "world.seed": "5",
}

_TINY_POP = {
    **_TINY_WORLD,
    "task": "object-only",
    "model": "pop",
    "data.n_train": "60",
    "data.n_val": "30",
    "data.n_test": "40",
    "data.seed": "1",
    "train.epochs": "1",
    "model.d_ent": "12",
    "model.n_sensors": "5",
}


def test_run_experiment_pop_happy_path():
    report = run_experiment(dict(_TINY_POP))
    assert report["status"] == "ok"
    assert report["task"] == "object-only"
    assert report["model"] == "pop"
    assert report["encoding"] == "dense"
    assert report["train"]["config"]["epochs"] == 1
    assert report["train"]["updates"] == 60
    assert len(report["train"]["epoch_losses"]) == 1
    counts = report["metrics"]["counts"]
    assert sum(c["n"] for c in counts.values()) == 40
    assert len(report["diagnostics"]["val_protest_rate"]) == 1
    rate = report["diagnostics"]["val_protest_rate"][0]
    assert 0.0 <= rate <= 1.0
    assert report["dataset_stats"]["avg_frequency"]["train"]["object"] > 0


def test_run_experiment_is_deterministic():
    first = report_to_json(run_experiment(dict(_TINY_POP)))
    second = report_to_json(run_experiment(dict(_TINY_POP)))
    assert first == second


def test_run_experiment_pipeline_tunes_thresholds(tmp_path):
    manifest = {
        **_TINY_POP,
        "model": "pipeline",
        "model.d_shared": "10",
    }
    manifest.pop("model.d_ent")
    manifest.pop("model.n_sensors")
    out = tmp_path / "run"
    report = run_experiment(manifest, out_dir=out)
    assert report["status"] == "ok"
    assert report["thresholds"]["min_similarity"] in MISS_GRID
    assert report["thresholds"]["min_gap"] in GAP_GRID

    assert (out / "report.json").read_text() == report_to_json(report)
    meta = json.loads((out / "meta.json").read_text())
    datetime.datetime.fromisoformat(meta["timestamp"])
    record = load_checkpoint(out / "checkpoint.json")
    params, thresholds = restore_pipeline(record)
    assert thresholds is not None
    assert thresholds.min_similarity == report["thresholds"]["min_similarity"]
    assert params.query_map.shape[0] == 10  # rows = shared-space dim


def test_run_experiment_trpop_uses_one_hot():
    manifest = {**_TINY_POP, "model": "trpop", "data.n_test": "10",
                "data.n_train": "20", "data.n_val": "10"}
    report = run_experiment(manifest)
    assert report["status"] == "ok"
    assert report["encoding"] == "one-hot"


@pytest.mark.parametrize("model, task, normalize_blocks", [
    ("pop", "object-only", "true"),
    ("trpop", "object-attr", "false"),
    ("pipeline", "object-attr", "true"),
])
def test_a_checkpoint_restores_the_inputs_of_its_run(tmp_path, model, task,
                                                     normalize_blocks):
    manifest = {**_TINY_POP, "model": model, "task": task,
                "encoding.normalize_blocks": normalize_blocks,
                "data.n_train": "20", "data.n_val": "10", "data.n_test": "10"}
    if model == "pipeline":
        manifest.pop("model.d_ent")
        manifest.pop("model.n_sensors")
    report = run_experiment(manifest, out_dir=tmp_path)
    assert report["status"] == "ok", report.get("error")
    restored = restore_inputs(load_checkpoint(tmp_path / "checkpoint.json"))
    assert restored == build_inputs(manifest, model, task)


def test_run_experiment_reports_failures_instead_of_raising(tmp_path):
    report = run_experiment({**_TINY_POP, "world.n_classess": "12"})
    assert report["status"] == "failed"
    assert report["stage"] == "manifest"
    assert "world.n_classess" in report["error"]

    report = run_experiment({**_TINY_POP, "task": "object-verb"})
    assert report["status"] == "failed"
    assert report["stage"] == "manifest"

    # Too few object classes to fill max_len + 1 distinct candidate slots.
    report = run_experiment({**_TINY_POP, "world.n_classes": "4"})
    assert report["status"] == "failed"
    assert report["stage"] == "data"
    assert "error" in report

    # Failed runs still write a bundle so the error is on disk.
    out = tmp_path / "failed"
    run_experiment({**_TINY_POP, "task": "object-verb"}, out_dir=out)
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["status"] == "failed"
    assert not (out / "checkpoint.json").exists()
    # Bad input is not a programming error: meta.json holds just the time.
    assert set(json.loads((out / "meta.json").read_text())) == {"timestamp"}


@pytest.mark.parametrize("model, keys", [
    ("pipeline", {"model.n_sensors": "5", "model.d_ent": "7"}),
    ("pop", {"model.margin": "0.9"}),
    ("trpop", {"model.d_shared": "10"}),
])
def test_a_model_key_of_another_model_fails_naming_key_and_model(model, keys):
    manifest = {k: v for k, v in _TINY_POP.items() if not k.startswith("model.")}
    report = run_experiment({**manifest, "model": model, **keys})
    assert report["status"] == "failed"
    assert report["stage"] == "init"
    assert report["error"].startswith("ConfigError")
    assert f"model {model!r}" in report["error"]
    assert all(key in report["error"] for key in keys)


def test_a_programming_error_leaves_its_stage_and_traceback_in_meta(
        tmp_path, monkeypatch):
    def broken_encoder(*args, **kwargs):
        raise RuntimeError("a bug, not bad input")

    monkeypatch.setattr(harness, "encode_split", broken_encoder)
    report = run_experiment(dict(_TINY_POP), out_dir=tmp_path)
    assert report["status"] == "failed"
    assert report["stage"] == "encode"
    assert report["error"] == "RuntimeError: a bug, not bad input"
    assert (tmp_path / "report.json").read_text() == report_to_json(report)
    assert "traceback" not in report
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["stage"] == "encode"
    assert "broken_encoder" in meta["traceback"]
    assert meta["traceback"].rstrip().endswith("RuntimeError: a bug, not bad input")
    datetime.datetime.fromisoformat(meta["timestamp"])


@pytest.mark.parametrize("key, value, stage", [
    ("train.lr0", "nan", "manifest"),
    ("data.p_miss", "-inf", "manifest"),
    ("world.sigma", "NaN", "manifest"),
    ("model.margin", "inf", "init"),
    ("diagnostic.val_sample", "-5", "manifest"),  # finite, but below 0
    ("data.n_train", "0", "manifest"),  # no acts to train or score on
    ("data.n_test", "0", "manifest"),
])
def test_run_experiment_rejects_a_nonfinite_number_naming_the_key(key, value, stage):
    manifest = {**_TINY_POP, key: value}
    if key == "model.margin":
        manifest.update({"model": "pipeline"})
        manifest.pop("model.d_ent")
        manifest.pop("model.n_sensors")
    report = run_experiment(manifest)
    assert report["status"] == "failed"
    assert report["stage"] == stage
    assert report["error"].startswith("ConfigError")
    assert key in report["error"]


def test_run_experiment_rejects_a_momentum_that_never_decays():
    report = run_experiment({**_TINY_POP, "train.momentum": "3"})
    assert report["status"] == "failed"
    assert report["error"].startswith("ConfigError")
    assert "momentum must be in [0, 1)" in report["error"]


@pytest.mark.parametrize("build", [
    lambda: TrainConfig(lr0=float("nan")),
    lambda: TrainConfig(momentum=float("inf")),
    lambda: TrainConfig(decay=float("nan")),
    lambda: PipelineConfig(d_query=2, d_cand=2, margin=float("inf")),
    lambda: WorldConfig(sigma=float("nan")),
    lambda: WorldConfig(sigma_word=float("inf")),
    lambda: DatasetSpec(p_miss=float("nan")),
    lambda: DatasetSpec(p_mult=float("nan")),
])
def test_every_float_field_rejects_nonfinite_values(build):
    with pytest.raises(ConfigError, match="must be finite"):
        build().validate()


def test_report_to_json_is_sorted_with_trailing_newline():
    text = report_to_json({"b": 1, "a": {"z": 2, "y": 3}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}


def test_write_report_bundle_without_checkpoint(tmp_path):
    out = tmp_path / "bundle"
    write_report_bundle({"status": "ok"}, out)
    assert sorted(os.listdir(out)) == ["meta.json", "report.json"]


# ---------------------------------------------------------------------------
# default-run training property (the long test in this file: ~30 s)


def test_default_run_epoch_loss_non_increasing():
    """On the default synthetic data, epoch-mean loss must not rise by more
    than 5% across any of the first five epochs."""
    world = build_synthetic_world(WorldConfig(), 0)
    spec = DatasetSpec(n_val=0, n_test=0)  # default train split only
    acts = generate_splits(world, spec, "object-only")["train"]
    assert len(acts) == 40000
    encoded = encode_split(world, acts, "dense")
    config = PopConfig(d_query=32, d_cand=64, d_ent=300, n_sensors=100)
    params = init_params(config, Rng(derive_seed(0, "init", "pop")))
    train_config = TrainConfig(epochs=5, seed=0)
    log = train(PopTrainable(params, encoded), train_config)
    assert log.updates == 5 * 40000
    assert len(log.epoch_losses) == 5
    assert all(np.isfinite(v) for v in log.epoch_losses)
    for earlier, later in zip(log.epoch_losses, log.epoch_losses[1:]):
        assert later <= earlier * 1.05, log.epoch_losses
