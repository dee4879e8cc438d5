"""Shared fixtures: a small synthetic world that builds in milliseconds.

The suite runs with one BLAS thread, as the benchmark does, unless the
environment sets a count.  The count is set here, before anything imports
numpy, because BLAS reads it once, at load.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from popref.embeddings import WorldConfig, build_synthetic_world


@pytest.fixture(scope="session")
def small_world():
    config = WorldConfig(
        n_classes=12,
        images_per_class=3,
        n_attributes=10,
        d_img=16,
        d_word=8,
        attrs_per_object=4,
    )
    return build_synthetic_world(config, seed=5)
