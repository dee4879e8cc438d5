"""The benchmark's probes still fit popref.

``perfbench/probes.py`` wraps popref functions by name and reads every
training gradient.  These tests fail when a rename leaves a probe pointing
at nothing, or when a gradient stops offering what the tracer reads, so
such a change is caught here rather than by a failing benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from popref import (
    checkpoint,
    datagen,
    embeddings,
    harness,
    pipeline_model,
    pop_model,
    training,
)
from popref.datagen import DatasetSpec, generate_splits
from popref.numerics import Rng
from popref.pop_model import PopTrainable, init_params
from popref.training import ColumnSparse

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
MODULES = {
    "checkpoint": checkpoint,
    "datagen": datagen,
    "embeddings": embeddings,
    "harness": harness,
    "pipeline_model": pipeline_model,
    "pop_model": pop_model,
    "training": training,
}


@pytest.fixture(scope="module")
def probes():
    if not PROBES.exists():
        pytest.skip("perfbench/ is not beside this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    mode, normalize_blocks = harness.build_encoding(manifest, "trpop")
    encoded = harness.encode_split(small_world, acts, mode, normalize_blocks)
    config = harness.build_model(manifest, "trpop", encoded[0].query_vec.size,
                                 encoded[0].candidate_vecs[0].size)
    trainable = PopTrainable(init_params(config, Rng(1)))

    tracer = probes.Tracer("guard")
    result = None
    for _ in range(probes.TOUCH_SAMPLE):  # the tracer samples every 8th step
        result = trainable.loss_and_grads(encoded[0])
        tracer._inspect_step((trainable, encoded[0]), result)
    grads = result[1]
    assert isinstance(grads["query_map"], ColumnSparse)

    dense = [np.asarray(g) for g in grads.values() if g.ndim == 2]
    touched = sum(int(np.count_nonzero(g.any(axis=0))) * g.shape[0] for g in dense)
    assert tracer.counts["steps"] == probes.TOUCH_SAMPLE
    assert tracer.counts["gradient_entries"] == sum(g.size for g in dense)
    assert tracer.counts["touched_entries"] == touched
    assert 0 < touched < tracer.counts["gradient_entries"]
