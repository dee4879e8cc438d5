"""Tests for the JSON checkpoint container: exact round-trips, the base64
array codec and dispatch."""

import base64
import json

import numpy as np
import pytest

from popref.checkpoint import (
    load_checkpoint,
    pipeline_record,
    pop_record,
    restore_pipeline,
    restore_pop,
    save_checkpoint,
)
from popref.errors import ConfigError, ContractViolation, ParseError
from popref.numerics import Rng
from popref.pipeline_model import PipelineConfig, Thresholds, init_pipeline_params
from popref.pop_model import PopConfig, init_params, laid_out


def _pop_params(use_bias=False, seed=3):
    config = PopConfig(d_query=3, d_cand=4, d_ent=5, n_sensors=2, use_bias=use_bias)
    params = init_params(config, Rng(seed))
    if use_bias:
        # Give the biases non-zero values so the round-trip is meaningful.
        params.entity_bias += 0.125
        params.sensor_out_bias -= 1.0 / 3.0
    return params


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("kind", ["pop", "trpop"])
def test_pop_round_trip_bit_exact(tmp_path, use_bias, kind):
    params = _pop_params(use_bias=use_bias)
    path = tmp_path / "model.json"
    save_checkpoint(pop_record(params, kind=kind), path)
    record = load_checkpoint(path)
    assert record["kind"] == kind
    restored = restore_pop(record)
    assert restored.config == params.config
    for name, arr in params.named_arrays().items():
        np.testing.assert_array_equal(restored.named_arrays()[name], arr)


def test_pipeline_round_trip_with_thresholds(tmp_path):
    params = init_pipeline_params(PipelineConfig(d_query=2, d_cand=3, d_shared=4), Rng(1))
    thresholds = Thresholds(min_similarity=0.1, min_gap=0.04)
    path = tmp_path / "pipe.json"
    save_checkpoint(pipeline_record(params, thresholds=thresholds), path)
    restored, loaded_thresholds = restore_pipeline(load_checkpoint(path))
    assert loaded_thresholds == thresholds
    np.testing.assert_array_equal(restored.query_map, params.query_map)
    np.testing.assert_array_equal(restored.object_map, params.object_map)


def test_pipeline_round_trip_without_thresholds(tmp_path):
    params = init_pipeline_params(PipelineConfig(d_query=2, d_cand=2, d_shared=3), Rng(2))
    path = tmp_path / "pipe.json"
    save_checkpoint(pipeline_record(params), path)
    record = load_checkpoint(path)
    assert "thresholds" not in record
    _, thresholds = restore_pipeline(record)
    assert thresholds is None


def test_extra_payload_survives(tmp_path):
    params = _pop_params()
    extra = {"task": "object-only", "encoding": "dense", "world_seed": 7}
    path = tmp_path / "model.json"
    save_checkpoint(pop_record(params, extra=extra), path)
    assert load_checkpoint(path)["extra"] == extra


def test_pop_record_rejects_foreign_kind():
    with pytest.raises(ParseError):
        pop_record(_pop_params(), kind="pipeline")


def test_save_rejects_untagged_records(tmp_path):
    with pytest.raises(ParseError):
        save_checkpoint({"config": {}, "arrays": {}}, tmp_path / "x.json")
    with pytest.raises(ParseError):
        save_checkpoint(
            {"kind": "mystery", "config": {}, "arrays": {}}, tmp_path / "x.json"
        )


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(ParseError):
        load_checkpoint(path)
    path.write_text(json.dumps({"kind": "pop"}))
    with pytest.raises(ParseError):
        load_checkpoint(path)
    path.write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(ParseError):
        load_checkpoint(path)
    path.write_text(json.dumps({**pop_record(_pop_params()), "notes": 1}))
    with pytest.raises(ParseError, match=r"unknown keys \['notes'\]"):
        load_checkpoint(path)


def test_restore_dispatch_guards(tmp_path):
    pop_path = tmp_path / "pop.json"
    save_checkpoint(pop_record(_pop_params()), pop_path)
    pop_rec = load_checkpoint(pop_path)
    with pytest.raises(ParseError):
        restore_pipeline(pop_rec)

    pipe_params = init_pipeline_params(
        PipelineConfig(d_query=2, d_cand=2, d_shared=2), Rng(0)
    )
    pipe_path = tmp_path / "pipe.json"
    save_checkpoint(pipeline_record(pipe_params), pipe_path)
    with pytest.raises(ParseError):
        restore_pop(load_checkpoint(pipe_path))


def test_restore_pop_missing_array(tmp_path):
    params = _pop_params()
    record = pop_record(params)
    del record["arrays"]["sensor_out"]
    with pytest.raises(ParseError):
        restore_pop(record)


def _b64(values) -> str:
    """``values`` in the checkpoint's array format."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _sensor_out(text_of):
    """An edit setting the record's ``sensor_out`` to ``text_of(its text)``."""
    return lambda r: r["arrays"].update(sensor_out=text_of(r["arrays"]["sensor_out"]))


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda r: r.update(arrays=5), "arrays must be an object", id="number"),
    pytest.param(lambda r: r.update(arrays=None), "arrays must be an object", id="null"),
    pytest.param(lambda r: r.update(arrays=[]), "arrays must be an object", id="list"),
    pytest.param(lambda r: r["arrays"].update(entity_bias=_b64([0.125] * 5)),
                 "'entity_bias'.* are not the", id="bias-without-use-bias"),
    pytest.param(lambda r: r["arrays"].update(bogus=_b64([1.0])), "'bogus'.* are not the",
                 id="unknown-array"),
    # An entry of the arrays object that is not base64 text, or whose bytes
    # do not fit its shape (1, 2).
    pytest.param(_sensor_out(lambda text: [[0.5, 1.0]]),
                 "'sensor_out' is a list: the old text format", id="nested-entry"),
    pytest.param(_sensor_out(lambda text: [0.5, 1.0]),
                 "'sensor_out' is a list: the old text format", id="flat-list-entry"),
    pytest.param(_sensor_out(lambda text: 0.5), "'sensor_out' is not a string",
                 id="number-entry"),
    pytest.param(_sensor_out(lambda text: None), "'sensor_out' is not a string",
                 id="null-entry"),
    pytest.param(_sensor_out(lambda text: True), "'sensor_out' is not a string",
                 id="bool-entry"),
    pytest.param(_sensor_out(lambda text: "!" + text[1:]), "'sensor_out' is not base64",
                 id="outside-the-alphabet"),
    pytest.param(_sensor_out(lambda text: "\u00e9" + text[1:]),
                 "'sensor_out' is not base64", id="non-ascii"),
    pytest.param(_sensor_out(lambda text: text + "\n"), "'sensor_out' is not base64",
                 id="trailing-newline"),
    pytest.param(_sensor_out(lambda text: text.rstrip("=")), "'sensor_out' is not base64",
                 id="missing-padding"),
    pytest.param(_sensor_out(lambda text: text + "=="), "'sensor_out' is not base64",
                 id="excess-padding"),
    pytest.param(_sensor_out(lambda text: _b64([0.5, 1.0, 2.0])),
                 r"'sensor_out': 24 bytes do not fit shape \(1, 2\)",
                 id="one-entry-too-many"),
    pytest.param(_sensor_out(lambda text: _b64([0.5])),
                 r"'sensor_out': 8 bytes do not fit", id="one-entry-too-few"),
    pytest.param(_sensor_out(lambda text: base64.b64encode(bytes(15)).decode("ascii")),
                 r"'sensor_out': 15 bytes do not fit", id="part-of-an-entry"),
    pytest.param(_sensor_out(lambda text: ""), r"'sensor_out': 0 bytes do not fit",
                 id="empty"),
])
def test_restore_rejects_arrays_that_do_not_fit(tmp_path, edit, message):
    record = pop_record(_pop_params())
    edit(record)
    with pytest.raises(ParseError, match=message):
        restore_pop(record)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ParseError, match=message):
        restore_pop(load_checkpoint(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_restore_rejects_non_finite_bytes(value):
    record = pop_record(_pop_params())
    record["arrays"]["sensor_out"] = _b64([[0.5, value]])
    with pytest.raises(ContractViolation, match="sensor_out holds non-finite"):
        restore_pop(record)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ParseError, match="line 1: .* is not UTF-8 text"):
        load_checkpoint(path)
    text = json.dumps(pop_record(_pop_params()), indent=1).encode("utf-8")
    path.write_bytes(text.replace(b'"kind"', b'"\xe9kind"'))
    lineno = text[:text.index(b'"kind"')].count(b"\n") + 1
    assert lineno > 1
    with pytest.raises(ParseError, match=f"line {lineno}: .* is not UTF-8 text"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, fields", [
    ("config", {"d_query": 2, "d_cand": 3, "d_shared": 4, "margin": 0.5, "x": 1}),
    ("config", {"d_cand": 3, "d_shared": 4, "margin": 0.5}),
    ("config", {"d_query": 2, "d_cand": 3, "d_shared": 4, "margin": "wide"}),
    ("config", ["not", "an", "object"]),
    ("thresholds", {"min_similarity": 0.1, "min_gap": 0.0, "x": 1}),
    ("thresholds", {"min_similarity": 0.1}),
    ("config", {"d_query": 2, "d_cand": 3, "margin": 0.5}),  # d_shared has a default
    ("config", {"d_query": 2, "d_cand": 3, "d_shared": 4.5, "margin": 0.5}),
    ("thresholds", {"min_similarity": True, "min_gap": 0.0}),
])
def test_restore_maps_fields_that_do_not_fit_to_parse_error(key, fields):
    params = init_pipeline_params(PipelineConfig(d_query=2, d_cand=3, d_shared=4), Rng(1))
    record = pipeline_record(params, Thresholds(min_similarity=0.1, min_gap=0.04))
    record[key] = fields
    with pytest.raises(ParseError, match=key):
        restore_pipeline(record)


def test_restore_validates_the_config():
    record = pop_record(_pop_params())
    record["config"]["contrast"] = "nope"
    with pytest.raises(ConfigError, match="contrast"):
        restore_pop(record)


def _random_params(rng: Rng, kind: str, use_bias: bool):
    """Params of random dims whose entries span many binary exponents."""
    if kind == "pipeline":
        config = PipelineConfig(d_query=1 + rng.randrange(4), d_cand=1 + rng.randrange(4),
                                d_shared=1 + rng.randrange(4),
                                margin=rng.uniform(0.01, 2.0))
        params = init_pipeline_params(config, rng.fork())
    else:
        config = PopConfig(d_query=1 + rng.randrange(4), d_cand=1 + rng.randrange(4),
                           d_ent=1 + rng.randrange(4), n_sensors=1 + rng.randrange(4),
                           use_bias=use_bias)
        params = init_params(config, rng.fork())
    for arr in params.named_arrays().values():
        for index in np.ndindex(arr.shape):
            arr[index] = rng.normal() * 2.0 ** (rng.randrange(121) - 60)
    return params


@pytest.mark.parametrize("kind, use_bias, tuned", [
    ("pop", False, False),
    ("pop", True, False),
    ("trpop", False, False),
    ("pipeline", False, False),
    ("pipeline", False, True),
])
def test_save_load_restore_save_is_byte_identical(tmp_path, kind, use_bias, tuned):
    rng = Rng(20261018)
    for trial in range(10):
        params = _random_params(rng, kind, use_bias)
        extra = {"trial": trial, "weight": rng.normal()}
        first, second = tmp_path / f"{trial}a.json", tmp_path / f"{trial}b.json"
        if kind == "pipeline":
            thresholds = None
            if tuned:
                thresholds = Thresholds(min_similarity=rng.uniform(-1.0, 1.0),
                                        min_gap=rng.uniform(0.0, 1.0))
            save_checkpoint(pipeline_record(params, thresholds, extra), first)
            record = load_checkpoint(first)
            restored, loaded = restore_pipeline(record)
            assert loaded == thresholds
            save_checkpoint(pipeline_record(restored, loaded, record["extra"]), second)
        else:
            save_checkpoint(pop_record(params, kind, extra), first)
            record = load_checkpoint(first)
            restored = restore_pop(record)
            save_checkpoint(pop_record(restored, kind, record["extra"]), second)
        assert first.read_bytes() == second.read_bytes()
        for name, arr in params.named_arrays().items():
            assert restored.named_arrays()[name].tobytes() == arr.tobytes()


def test_checkpoint_file_is_sorted_readable_json(tmp_path):
    params = _pop_params(use_bias=True)
    path = tmp_path / "model.json"
    save_checkpoint(pop_record(params), path)
    text = path.read_text()
    record = json.loads(text)
    assert list(record.keys()) == sorted(record.keys())
    assert text.endswith("\n")
    # Indented output: one key per line, stable for diffing; each array is
    # one line of base64 text that numpy decodes in one call.
    assert '\n "config"' in text
    assert sorted(record["arrays"]) == sorted(params.named_arrays())
    for name, arr in params.named_arrays().items():
        assert f'\n  "{name}": "{record["arrays"][name]}"' in text
        decoded = np.frombuffer(base64.b64decode(record["arrays"][name]), "<f8")
        assert decoded.reshape(arr.shape).tobytes() == arr.tobytes()


def test_round_trip_keeps_edge_floats_and_the_query_map_layout(tmp_path):
    """Signed zeros, subnormals and the largest floats keep every bit, and a
    one-hot model's column-major query map is written in logical order and
    restored column-major."""
    edges = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1.5e-310,
             1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0, -0.1]
    config = PopConfig(d_query=5, d_cand=3, d_ent=4, n_sensors=3, use_bias=True)
    params = init_params(config, Rng(11))
    for offset, arr in enumerate(params.named_arrays().values()):
        arr.flat = [edges[(offset + i) % len(edges)] for i in range(arr.size)]
    params = laid_out(params, "one-hot")
    assert not params.query_map.flags.c_contiguous
    path = tmp_path / "model.json"
    save_checkpoint(pop_record(params, "trpop", {"encoding": "one-hot"}), path)
    stored = json.loads(path.read_text())["arrays"]
    for name, arr in params.named_arrays().items():
        assert base64.b64decode(stored[name]) == arr.tobytes(order="C")
    restored = restore_pop(load_checkpoint(path))
    assert restored.query_map.flags.f_contiguous
    for name, arr in params.named_arrays().items():
        got = restored.named_arrays()[name]
        assert got.dtype == np.float64 and got.flags.writeable
        assert got.tobytes() == arr.tobytes()
    assert np.signbit(restored.query_map).any()
