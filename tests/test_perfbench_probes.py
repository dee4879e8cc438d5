"""The benchmark's probes still fit popref.

``perfbench/probes.py`` wraps popref functions by name and reads every
training gradient.  These tests fail when a rename leaves a probe pointing
at nothing, when a gradient stops offering what the tracer reads, or when
work moves out of the stage the benchmark times it in, so such a change is
caught here rather than by a failing or misleading benchmark run.  The
bench's check that each run's checkpoint loads (``experiment.py``'s
``checkpoint_loads``) is held here too: it must accept a checkpoint of every
kind and answer False, not raise, for a file popref's loader rejects.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from popref import (
    checkpoint,
    datagen,
    embeddings,
    errors,
    harness,
    pipeline_model,
    pop_model,
    training,
)
from popref.datagen import DatasetSpec, generate_splits
from popref.numerics import Rng
from popref.pop_model import PopTrainable, init_params
from popref.training import ColumnSparse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {
    "checkpoint": checkpoint,
    "datagen": datagen,
    "embeddings": embeddings,
    "harness": harness,
    "pipeline_model": pipeline_model,
    "pop_model": pop_model,
    "training": training,
}


def _load(name: str):
    path = PERFBENCH / f"{name}.py"
    if not path.exists():
        pytest.skip("perfbench/ is not beside this checkout")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def probes():
    return _load("probes")


def test_every_probed_name_resolves(probes):
    for attr in probes.STAGES:
        assert callable(getattr(harness, attr)), attr
    for table in (probes.TICKED, probes.TRACED):
        for short, names in table.items():
            assert short in MODULES, short
            for name in names:
                assert callable(probes._lookup(MODULES[short], name)), \
                    f"{short}.{name}"


def test_tracer_reads_a_trpop_step(probes, small_world):
    acts = generate_splits(small_world, DatasetSpec(n_train=8, n_val=0, n_test=0,
                                                    seed=2), "object-only")["train"]
    manifest = {}
    inputs = harness.build_inputs(manifest, "trpop", "object-only")
    encoded = harness.encode_split(small_world, acts, inputs.encoding,
                                   inputs.normalize_blocks)
    config = harness.build_model(manifest, "trpop", encoded.d_query,
                                 encoded.d_cand)
    trainable = PopTrainable(init_params(config, Rng(1)), encoded)

    tracer = probes.Tracer("guard")
    result = None
    for _ in range(probes.TOUCH_SAMPLE):  # the tracer samples every 8th step
        result = trainable.loss_and_grads(0)
        tracer._inspect_step((trainable, 0), result)
    grads = result[1]
    assert isinstance(grads["query_map"], ColumnSparse)

    dense = [np.asarray(g) for g in grads.values() if g.ndim == 2]
    touched = sum(int(np.count_nonzero(g.any(axis=0))) * g.shape[0] for g in dense)
    assert tracer.counts["steps"] == probes.TOUCH_SAMPLE
    assert tracer.counts["gradient_entries"] == sum(g.size for g in dense)
    assert tracer.counts["touched_entries"] == touched
    assert 0 < touched < tracer.counts["gradient_entries"]


# The batched scorers every prediction goes through, and the split each
# stage may score: the protest probe reads validation acts during training.
SCORERS = {"pop-objonly": (pop_model, "chunk_logits"),
           "trpop-objonly": (pop_model, "chunk_logits"),
           "pipeline-attr": (pipeline_model, "chunk_cosines")}
SCORED_IN = {"pop-objonly": {"val": {"train"}, "test": {"evaluate"}},
             "trpop-objonly": {"val": {"train"}, "test": {"evaluate"}},
             "pipeline-attr": {"val": {"tune"}, "test": {"evaluate"}}}


@pytest.mark.parametrize("workload", sorted(SCORERS))
def test_stage_clock_times_every_stage_and_all_scoring_in_its_stage(
        probes, monkeypatch, workload):
    # The clock replaces module attributes; monkeypatch puts them back.
    for module in MODULES.values():
        for attr, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, attr, value)
    for cls in (pop_model.PopTrainable, pipeline_model.PipelineTrainable):
        monkeypatch.setattr(cls, "loss_and_grads", cls.loss_and_grads)
    clock = probes.StageClock()
    clock.install(MODULES)

    module, name = SCORERS[workload]
    scorer = getattr(module, name)
    scored = []

    def spy(params, chunk):
        scored.append((clock._stage, {act_id.split("-")[0] for act_id in chunk.ids},
                       len(chunk)))
        return scorer(params, chunk)

    monkeypatch.setattr(module, name, spy)
    manifest = _load("workloads").manifest_for(workload, 3, toy=True)
    report = harness.run_experiment(manifest)
    assert report["status"] == "ok", report.get("error")

    expected = {"world", "data", "encode", "train", "evaluate"}
    if workload == "pipeline-attr":
        expected.add("tune")
    assert set(clock.seconds) == expected
    stages = {}
    for stage, splits, _ in scored:
        assert len(splits) == 1, splits  # a chunk never mixes splits
        stages.setdefault(splits.pop(), set()).add(stage)
    assert stages == SCORED_IN[workload]
    assert sum(n for stage, _, n in scored if stage == "evaluate") == \
        int(manifest["data.n_test"])


@pytest.mark.parametrize("workload, kind", [("pop-objonly", "pop"),
                                            ("trpop-objonly", "trpop"),
                                            ("pipeline-attr", "pipeline")])
def test_the_bench_loader_check_accepts_each_kind_and_rejects_bad_files(
        tmp_path, workload, kind):
    experiment = _load("experiment")
    modules = {**MODULES, "errors": errors}
    manifest = _load("workloads").manifest_for(workload, 3, toy=True)
    assert harness.run_experiment(manifest, tmp_path / "run")["status"] == "ok"
    path = tmp_path / "run" / "checkpoint.json"
    record = checkpoint.load_checkpoint(path)
    assert record["kind"] == kind
    assert experiment.checkpoint_loads(modules, path) is True

    params = (checkpoint.restore_pipeline(record)[0] if kind == "pipeline"
              else checkpoint.restore_pop(record))
    old_text = {**record, "arrays": {name: arr.tolist()
                                     for name, arr in params.named_arrays().items()}}
    good = path.read_bytes()
    bad = tmp_path / "bad.json"
    for content in (good[:len(good) // 2], b"\xff\xfe" + good,
                    json.dumps(old_text, sort_keys=True, indent=1).encode("utf-8")):
        bad.write_bytes(content)
        assert experiment.checkpoint_loads(modules, bad) is False
    assert experiment.checkpoint_loads(modules, tmp_path / "missing.json") is False
