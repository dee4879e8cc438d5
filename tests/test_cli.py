"""End-to-end command-line tests driven through ``main(argv)``."""

import base64
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import popref
from popref import cli
from popref.checkpoint import load_checkpoint
from popref.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from popref.errors import (
    ConfigError,
    ContractViolation,
    EncodingError,
    GenerationError,
    NumericError,
    ParseError,
    PopRefError,
    UnsupportedInputError,
    ValidationError,
)
from popref.harness import parse_kv_file, run_experiment
from popref.training import GradcheckReport

_SPEC_TEXT = """
# shared settings for a small world and quick runs
task = object-only
world.n_classes = 12
world.images_per_class = 3
world.n_attributes = 10
world.d_img = 16
world.d_word = 8
world.attrs_per_object = 4
world.seed = 5
data.min_len = 2
data.max_len = 4
data.n_train = 80
data.n_val = 40
data.n_test = 40
data.seed = 1
train.epochs = 1
model.d_ent = 12
model.n_sensors = 5
"""
# The model.* keys above are the pointing network's, so a pipeline run reads
# the spec without them: a key of another model is a ConfigError.
_PIPELINE_SPEC_TEXT = "".join(f"{line}\n" for line in _SPEC_TEXT.splitlines()
                              if not line.startswith("model."))


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text(_SPEC_TEXT)
    return path


@pytest.fixture
def data_dir(tmp_path, spec_file):
    out = tmp_path / "data"
    code = main(["gen-data", "--spec", str(spec_file), "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_usage_errors_exit_1(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["gen-data"]) == EXIT_USAGE  # missing required --out
    assert main(["train", "--model", "rnn", "--data", "x", "--out-checkpoint", "y"]) \
        == EXIT_USAGE
    capsys.readouterr()


def test_gen_data_writes_three_splits(tmp_path, spec_file, capsys):
    out_dir = tmp_path / "data"
    assert main(["gen-data", "--spec", str(spec_file), "--out", str(out_dir)]) \
        == EXIT_OK
    for split, n in [("train", 80), ("val", 40), ("test", 40)]:
        path = out_dir / f"{split}.jsonl"
        assert path.exists()
        assert len(path.read_text().splitlines()) == n
    out = capsys.readouterr().out
    assert "train: 80 acts" in out
    assert "world_seed=5" in out


def test_gen_data_is_reproducible(tmp_path, spec_file):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--spec", str(spec_file), "--out", str(a)]) == EXIT_OK
    assert main(["gen-data", "--spec", str(spec_file), "--out", str(b)]) == EXIT_OK
    for split in ("train", "val", "test"):
        assert (a / f"{split}.jsonl").read_bytes() == (b / f"{split}.jsonl").read_bytes()


def test_gen_data_rejects_unknown_spec_key(tmp_path, capsys):
    spec = tmp_path / "bad.cfg"
    spec.write_text("world.n_class = 12\n")
    assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")]) \
        == EXIT_DATA
    assert "world.n_class" in capsys.readouterr().err


def test_gen_data_rejects_unknown_task_with_the_one_message(tmp_path, capsys):
    spec = tmp_path / "bogus.cfg"
    spec.write_text(_SPEC_TEXT.replace("task = object-only", "task = bogus"))
    out = tmp_path / "d"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err.count(
        "unknown task 'bogus'; expected one of ('object-only', 'object-attr')") == 1
    assert not out.exists()


def test_stats_prints_table(data_dir, capsys):
    code = main(["stats", "--train", str(data_dir / "train.jsonl"),
                 "--test", str(data_dir / "test.jsonl")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "object" in out


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["stats", "--train", str(tmp_path / "absent.jsonl")]) == EXIT_DATA
    capsys.readouterr()


def test_train_eval_pop_round_trip(tmp_path, spec_file, data_dir, capsys):
    ckpt = tmp_path / "pop.json"
    code = main(["train", "--model", "pop", "--data", str(data_dir / "train.jsonl"),
                 "--config", str(spec_file), "--out-checkpoint", str(ckpt)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "trained pop for 1 epochs (80 updates)" in out
    assert ckpt.exists()

    report = tmp_path / "metrics.json"
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--test", str(data_dir / "test.jsonl"),
                 "--report", str(report)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "Total" in out and "MultRef" in out
    metrics = json.loads(report.read_text())
    assert sum(c["n"] for c in metrics["counts"].values()) == 40


def test_dense_model_trains_and_scores_unknown_nouns_when_allowed(
        tmp_path, spec_file, data_dir, capsys):
    """Two missing-referent acts per split name a noun the world does not
    know; ``--allow-unknown`` backs it off to a zero query, which the dense
    model trains and scores like any other."""
    for split in ("train", "test"):
        path = data_dir / f"{split}.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        misses = [r for r in records if r["gold"]["anomaly_kind"] == "miss"][:2]
        assert len(misses) == 2
        for k, record in enumerate(misses):
            record["query"]["noun"] = f"unseen-{k}"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    ckpt, report = tmp_path / "pop.json", tmp_path / "metrics.json"
    assert main(["train", "--model", "pop", "--data", str(data_dir / "train.jsonl"),
                 "--config", str(spec_file), "--out-checkpoint", str(ckpt),
                 "--allow-unknown"]) == EXIT_OK
    assert main(["eval", "--checkpoint", str(ckpt), "--test", str(data_dir / "test.jsonl"),
                 "--report", str(report), "--allow-unknown"]) == EXIT_OK
    assert sum(c["n"] for c in json.loads(report.read_text())["counts"].values()) == 40
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--test", str(data_dir / "test.jsonl")]) == EXIT_DATA
    assert "unseen-0" in capsys.readouterr().err


def test_pipeline_needs_tuning_before_eval(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "pipe.json"
    spec_file = tmp_path / "pipeline.cfg"
    spec_file.write_text(_PIPELINE_SPEC_TEXT)
    code = main(["train", "--model", "pipeline",
                 "--data", str(data_dir / "train.jsonl"),
                 "--config", str(spec_file), "--out-checkpoint", str(ckpt)])
    assert code == EXIT_OK
    capsys.readouterr()

    # Untuned checkpoint: eval must refuse rather than guess thresholds.
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--test", str(data_dir / "test.jsonl")])
    assert code == EXIT_DATA
    assert "tune-thresholds" in capsys.readouterr().err

    code = main(["tune-thresholds", "--checkpoint", str(ckpt),
                 "--val", str(data_dir / "val.jsonl")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "min_similarity=" in out

    code = main(["eval", "--checkpoint", str(ckpt),
                 "--test", str(data_dir / "test.jsonl")])
    assert code == EXIT_OK
    capsys.readouterr()


def test_eval_rejects_corrupt_checkpoint(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "broken.json"
    ckpt.write_text("{not json")
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--test", str(data_dir / "test.jsonl")]) == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("field, value", [
    ("bogus", 1),          # unknown key
    ("d_query", None),     # missing key
    ("contrast", "nope"),  # a value the config rejects
])
def test_eval_rejects_a_checkpoint_config_that_does_not_fit(
        tmp_path, spec_file, data_dir, capsys, field, value):
    ckpt = tmp_path / "pop.json"
    assert main(["train", "--model", "pop", "--data", str(data_dir / "train.jsonl"),
                 "--config", str(spec_file), "--out-checkpoint", str(ckpt)]) == EXIT_OK
    record = json.loads(ckpt.read_text())
    if value is None:
        del record["config"][field]
    else:
        record["config"][field] = value
    ckpt.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--test", str(data_dir / "test.jsonl")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Data plus a pop checkpoint and a tuned pipeline checkpoint."""
    root = tmp_path_factory.mktemp("trained")
    spec = root / "spec.cfg"
    spec.write_text(_SPEC_TEXT)
    data = root / "data"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    (root / "pipeline.cfg").write_text(_PIPELINE_SPEC_TEXT)
    for model, config in (("pop", spec), ("pipeline", root / "pipeline.cfg")):
        assert main(["train", "--model", model, "--data", str(data / "train.jsonl"),
                     "--config", str(config),
                     "--out-checkpoint", str(root / f"{model}.json")]) == EXIT_OK
    assert main(["tune-thresholds", "--checkpoint", str(root / "pipeline.json"),
                 "--val", str(data / "val.jsonl")]) == EXIT_OK
    return root


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize("command", ["eval", "tune-thresholds"])
@pytest.mark.parametrize("name, edit", [
    pytest.param("bogus", lambda extra: {
        **extra, "world_config": {**extra["world_config"], "bogus": 1}},
        id="unknown-field"),
    pytest.param("n_classes", lambda extra: {
        **extra, "world_config": _without(extra["world_config"], "n_classes")},
        id="missing-field"),
    pytest.param("n_classes", lambda extra: {
        **extra, "world_config": {**extra["world_config"], "n_classes": "many"}},
        id="ill-typed-field"),
    pytest.param("world_seed", lambda extra: {**extra, "world_seed": "5"},
                 id="string-seed"),
    pytest.param("extra", lambda extra: "world_config", id="extra-not-an-object"),
    pytest.param("normalize_blocks", lambda extra: {**extra, "normalize_blocks": "no"},
                 id="string-normalize-blocks"),
    pytest.param("normalize_blocks", lambda extra: {**extra, "normalize_blocks": 1},
                 id="int-normalize-blocks"),
    pytest.param("encoding", lambda extra: {**extra, "encoding": "sparse"},
                 id="unknown-encoding"),
    pytest.param("world_seed", lambda extra: _without(extra, "world_seed"),
                 id="missing-world-seed"),
    pytest.param("normalize_blocks", lambda extra: _without(extra, "normalize_blocks"),
                 id="missing-normalize-blocks"),
    pytest.param("encoding", lambda extra: _without(extra, "encoding"),
                 id="missing-encoding"),
    pytest.param("task", lambda extra: _without(extra, "task"), id="missing-task"),
    pytest.param("task", lambda extra: {**extra, "task": "object-verb"},
                 id="unknown-task"),
    pytest.param("extra", lambda extra: None, id="absent-extra"),
])
def test_a_checkpoint_world_that_does_not_fit_exits_2(
        tmp_path, trained, capsys, command, name, edit):
    model, split = ("pop", "test") if command == "eval" else ("pipeline", "val")
    record = json.loads((trained / f"{model}.json").read_text())
    extra = edit(record.pop("extra"))
    if extra is not None:  # None leaves the record without an extra
        record["extra"] = extra
    ckpt = tmp_path / "edited.json"
    ckpt.write_text(json.dumps(record))
    capsys.readouterr()
    flag = "--test" if command == "eval" else "--val"
    assert main([command, "--checkpoint", str(ckpt),
                 flag, str(trained / "data" / f"{split}.jsonl")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err


def _point_gold_lineno(lines: list[str]) -> int:
    """The 1-based number of the first point-gold line after line 1."""
    return next(n for n, line in enumerate(lines, start=1)
                if n > 1 and json.loads(line)["gold"]["kind"] == "point")


@pytest.mark.parametrize("edit", [
    pytest.param(lambda r: r["gold"].update(index=len(r["items"]) + 5),
                 id="index-out-of-range"),
    pytest.param(lambda r: r["gold"].update(index=True), id="boolean-index"),
    pytest.param(lambda r: r["gold"].update(index=(r["gold"]["index"] + 1)
                                            % len(r["items"])),
                 id="index-at-a-non-matching-item"),
    pytest.param(lambda r: r.update(note="unchecked"), id="unknown-field"),
])
def test_eval_rejects_a_tampered_act_naming_its_line(tmp_path, trained, capsys, edit):
    lines = (trained / "data" / "test.jsonl").read_text().splitlines()
    lineno = _point_gold_lineno(lines)
    record = json.loads(lines[lineno - 1])
    edit(record)
    lines[lineno - 1] = json.dumps(record, sort_keys=True)
    tampered = tmp_path / "test.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(trained / "pop.json"),
                 "--test", str(tampered)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line {lineno}:" in err
    assert "Traceback" not in err


def _b64(values) -> str:
    """``values`` in the checkpoint's array format."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda r: r.update(arrays=None), "arrays", id="null-arrays"),
    pytest.param(lambda r: r["arrays"].update(entity_bias=[0.0] * 4), "entity_bias",
                 id="array-outside-the-config"),
    pytest.param(lambda r: r.update(notes="hand-edited"), "notes", id="unknown-key"),
    pytest.param(lambda r: r["arrays"].update(sensor_out=[[0.5] * 5]), "old text format",
                 id="old-text-format"),
    pytest.param(lambda r: r["arrays"].update(sensor_out=None), "sensor_out",
                 id="null-array"),
    pytest.param(lambda r: r["arrays"].update(sensor_out="!" + r["arrays"]["sensor_out"][1:]),
                 "sensor_out", id="not-base64"),
    pytest.param(lambda r: r["arrays"].update(sensor_out=_b64([0.5] * 4)),
                 "sensor_out", id="bytes-that-do-not-fit"),
    pytest.param(lambda r: r["arrays"].update(sensor_out=_b64([0.5] * 4 + [float("nan")])),
                 "sensor_out", id="nan-bytes"),
])
def test_eval_rejects_a_malformed_checkpoint_container(tmp_path, trained, capsys,
                                                       edit, named):
    record = json.loads((trained / "pop.json").read_text())
    edit(record)
    ckpt = tmp_path / "edited.json"
    ckpt.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--test", str(trained / "data" / "test.jsonl")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("at_line", [1, 3])
@pytest.mark.parametrize("reader", ["checkpoint", "jsonl", "config"])
def test_a_file_that_is_not_utf8_exits_2_naming_the_line(
        tmp_path, trained, capsys, reader, at_line):
    data = trained / "data"
    source = {"checkpoint": trained / "pop.json", "jsonl": data / "test.jsonl",
              "config": trained / "spec.cfg"}[reader]
    lines = source.read_bytes().splitlines(keepends=True)
    lines.insert(at_line - 1, b"\xff\xfe\n")
    bad = tmp_path / source.name
    bad.write_bytes(b"".join(lines))
    argv = {
        "checkpoint": ["eval", "--checkpoint", str(bad), "--test", str(data / "test.jsonl")],
        "jsonl": ["baseline", "--kind", "majority", "--test", str(bad)],
        "config": ["gen-data", "--spec", str(bad), "--out", str(tmp_path / "out")],
    }[reader]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line {at_line}: {bad} is not UTF-8 text" in err
    assert "Traceback" not in err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Every error the toolkit raises and the exit code main maps it to.
_EXIT_CODES = {
    ContractViolation: EXIT_DATA,
    ConfigError: EXIT_DATA,
    ParseError: EXIT_DATA,
    EncodingError: EXIT_DATA,
    GenerationError: EXIT_DATA,
    ValidationError: EXIT_DATA,
    UnsupportedInputError: EXIT_DATA,
    NumericError: EXIT_NUMERIC,
}


def test_the_exit_code_table_covers_every_error_class():
    assert set(_subclasses(PopRefError)) == set(_EXIT_CODES)


@pytest.mark.parametrize("error, code", [*_EXIT_CODES.items(), (None, EXIT_USAGE)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_exit_code_of_each_error_raised_under_main(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("planted failure")

    monkeypatch.setattr(cli, "_cmd_stats", fail)
    # Without an error to plant, the missing --train is the usage error.
    argv = ["stats", "--train", "acts.jsonl"] if error else ["stats"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if error:
        assert "planted failure" in err


def test_baseline_majority_and_random(data_dir, tmp_path, capsys):
    report = tmp_path / "maj.json"
    code = main(["baseline", "--kind", "majority",
                 "--test", str(data_dir / "test.jsonl"),
                 "--report", str(report)])
    assert code == EXIT_OK
    capsys.readouterr()
    metrics = json.loads(report.read_text())
    assert metrics["pointing"] == 0.0
    assert metrics["missref"] == 100.0

    code = main(["baseline", "--kind", "random", "--seed", "3", "--max-len", "4",
                 "--test", str(data_dir / "test.jsonl")])
    assert code == EXIT_OK
    capsys.readouterr()


def test_baseline_probability_requires_train_split(data_dir, capsys):
    code = main(["baseline", "--kind", "probability",
                 "--test", str(data_dir / "test.jsonl")])
    assert code == EXIT_DATA
    assert "--train" in capsys.readouterr().err

    code = main(["baseline", "--kind", "probability",
                 "--test", str(data_dir / "test.jsonl"),
                 "--train", str(data_dir / "train.jsonl")])
    assert code == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["random", "probability"])
@pytest.mark.parametrize("max_len", ["0", "-1"])
def test_baseline_rejects_a_non_positive_max_len(data_dir, capsys, kind, max_len):
    code = main(["baseline", "--kind", kind, f"--max-len={max_len}",
                 "--test", str(data_dir / "test.jsonl"),
                 "--train", str(data_dir / "train.jsonl")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--max-len" in err
    assert "Traceback" not in err


def test_baseline_cnn_perfect_labeler(data_dir, tmp_path, capsys):
    report = tmp_path / "cnn.json"
    code = main(["baseline", "--kind", "cnn", "--p-true", "1.0",
                 "--test", str(data_dir / "test.jsonl"),
                 "--report", str(report)])
    assert code == EXIT_OK
    capsys.readouterr()
    assert json.loads(report.read_text())["total"] == 100.0


def test_gradcheck_passes_and_fails_by_tolerance(capsys):
    code = main(["gradcheck", "--model", "pop", "--trials", "3", "--seed", "11"])
    assert code == EXIT_OK
    assert "pop: PASS" in capsys.readouterr().out

    # An absurd tolerance forces a numeric failure exit without any real bug.
    code = main(["gradcheck", "--model", "pipeline", "--trials", "2",
                 "--tolerance", "1e-30"])
    assert code == EXIT_NUMERIC
    assert "pipeline: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("spelling", [lambda value: [f"--tolerance={value}"],
                                      lambda value: ["--tolerance", value]],
                         ids=["joined", "spaced"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-4", "-inf", "-Infinity",
                                   "-nan", "-NaN"])
def test_gradcheck_rejects_a_tolerance_that_is_not_finite_and_positive(
        capsys, value, spelling):
    assert main(["gradcheck", "--trials", "1", *spelling(value)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert "tolerance" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("trials", ["0", "-3", "many"])
def test_gradcheck_rejects_a_non_positive_trial_count(capsys, trials):
    assert main(["gradcheck", "--trials", trials]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert "PASS" not in captured.out


def test_gradcheck_default_trial_counts(monkeypatch, capsys):
    calls = []

    def fake(name):
        def check(trials, seed, tolerance):
            calls.append((name, trials))
            return GradcheckReport(True, trials, 0.0, tolerance)
        return check

    monkeypatch.setattr(cli, "gradcheck_pop", fake("pop"))
    monkeypatch.setattr(cli, "gradcheck_pipeline", fake("pipeline"))
    assert main(["gradcheck"]) == EXIT_OK
    assert main(["gradcheck", "--trials", "1"]) == EXIT_OK
    assert calls == [("pop", 20), ("pipeline", 10), ("pop", 1), ("pipeline", 1)]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# One path from a config file to a trained model


_PARITY_SETTINGS = """
model.use_bias = true
model.sensor_nonlinearity = false
encoding.normalize_blocks = true
"""


def test_train_builds_the_same_model_as_run_experiment(tmp_path, capsys):
    spec = tmp_path / "parity.cfg"
    spec.write_text(_SPEC_TEXT + _PARITY_SETTINGS)
    data = tmp_path / "data"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == EXIT_OK
    ckpt = tmp_path / "cli.json"
    assert main(["train", "--model", "pop", "--data", str(data / "train.jsonl"),
                 "--config", str(spec), "--out-checkpoint", str(ckpt)]) == EXIT_OK
    capsys.readouterr()
    run_dir = tmp_path / "run"
    assert run_experiment(parse_kv_file(spec), run_dir)["status"] == "ok"

    cli = load_checkpoint(ckpt)
    harness = load_checkpoint(run_dir / "checkpoint.json")
    assert cli["config"]["use_bias"] is True
    assert cli["config"]["sensor_nonlinearity"] is False
    assert cli["extra"]["normalize_blocks"] is True
    assert cli["config"] == harness["config"]
    assert cli["extra"] == harness["extra"]
    assert sorted(cli["arrays"]) == sorted(harness["arrays"])
    # Same acts, settings and seeds: training reproduces the same weights.
    assert cli["arrays"] == harness["arrays"]


def test_nonfinite_config_number_exits_2_naming_the_key(tmp_path, data_dir, capsys):
    spec = tmp_path / "nan.cfg"
    spec.write_text(_SPEC_TEXT + "train.lr0 = nan\n")
    assert main(["train", "--model", "pop", "--data", str(data_dir / "train.jsonl"),
                 "--config", str(spec), "--out-checkpoint",
                 str(tmp_path / "c.json")]) == EXIT_DATA
    assert "train.lr0" in capsys.readouterr().err


def test_malformed_model_value_exits_2_naming_the_key(tmp_path, data_dir, capsys):
    spec = tmp_path / "bad.cfg"
    spec.write_text(_SPEC_TEXT.replace("model.d_ent = 12", "model.d_ent = eight"))
    commands = [
        ["train", "--model", "pop", "--data", str(data_dir / "train.jsonl"),
         "--config", str(spec), "--out-checkpoint", str(tmp_path / "c.json")],
        ["baseline", "--kind", "imgshuffle", "--config", str(spec),
         "--train", str(data_dir / "train.jsonl"),
         "--test", str(data_dir / "test.jsonl")],
    ]
    for argv in commands:
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "model.d_ent" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("model, line", [("pipeline", ""),
                                         ("pop", "model.margin = 0.9\n")])
def test_train_rejects_a_model_key_of_another_model(tmp_path, data_dir, capsys,
                                                    model, line):
    # The shared spec's model.d_ent and model.n_sensors are pop settings.
    spec = tmp_path / "foreign.cfg"
    spec.write_text(_SPEC_TEXT + line)
    ckpt = tmp_path / "c.json"
    assert main(["train", "--model", model, "--data", str(data_dir / "train.jsonl"),
                 "--config", str(spec), "--out-checkpoint", str(ckpt)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"model {model!r}" in err
    assert ("model.margin" if model == "pop" else "model.d_ent, model.n_sensors") in err
    assert not ckpt.exists()


def test_eval_rejects_an_empty_test_file(tmp_path, trained, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for model in ("pop", "pipeline"):
        assert main(["eval", "--checkpoint", str(trained / f"{model}.json"),
                     "--test", str(empty)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert f"no test acts in {empty}" in captured.err
        assert "--" not in captured.out


@pytest.mark.parametrize("line, key", [("model = pipeline", "model"),
                                       ("task = object-attr", "task")])
def test_train_rejects_a_config_key_that_conflicts(tmp_path, data_dir, capsys,
                                                   line, key):
    # data_dir holds object-only acts; the flag says pop.
    spec = tmp_path / "conflict.cfg"
    spec.write_text(_SPEC_TEXT.replace("task = object-only", "") + line + "\n")
    ckpt = tmp_path / "c.json"
    assert main(["train", "--model", "pop", "--data", str(data_dir / "train.jsonl"),
                 "--config", str(spec), "--out-checkpoint", str(ckpt)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"config key {key} = " in err
    assert not ckpt.exists()


def _python_m(*args, cwd):
    src = str(Path(popref.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-m", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=False)


def test_python_dash_m_runs_the_cli(tmp_path, spec_file):
    proc = _python_m("popref", "gradcheck", "--model", "pop", "--trials", "1",
                     cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "pop: PASS" in proc.stdout
    assert _python_m("popref", cwd=tmp_path).returncode == EXIT_USAGE

    out = tmp_path / "data"
    proc = _python_m("popref.cli", "gen-data", "--spec", str(spec_file),
                     "--out", str(out), cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (out / "train.jsonl").exists()
