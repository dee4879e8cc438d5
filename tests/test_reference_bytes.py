"""The bytes of full experiments, pinned.

``run_experiment`` runs the three benchmark workloads at seed 1 (the
manifests ``perfbench.workloads.manifest_for(name, 1)`` gives, copied here so
this test runs without ``perfbench/``), and the full sha256 of each
``report.json`` and ``checkpoint.json`` must equal its pin.  A change that
claims to keep every bit is held to it here.

Two more runs pin what the one-hot column path reads and writes:
``trpop-objonly`` at the held-out seed 7919, and a small ``trpop`` run on
object-attr acts (``trpop-attr``: 300/100/600 acts, 6 epochs, about 0.6 s),
whose queries are two-hot.  Their pins were taken while a one-hot split
still held its queries as a B x d_query float matrix, multiplied through a
row-major query map, so they hold the column path to those bytes.

The pins were taken with Python 3.11.7, numpy 2.4.6 and scipy-openblas
0.3.31.  Like the world-table pin in ``test_embeddings``, they assume that
build: a BLAS that sums in another order moves the last bits.

The ``checkpoint.json`` pins are of the base64 array format; when it
replaced the decimal lists, each new checkpoint was checked to decode to the
same float64 bytes as the old one, and the ``report.json`` pins stayed.

A change that moves these bytes on purpose updates the pins, and says in
``CHANGES.md`` why, and which tolerance it checked instead.  The ``pop`` and
``trpop`` pins hold training through the reassociated graph; the tolerance
it keeps to the per-act order is checked in ``test_tolerance_policy``.
"""

import hashlib

import pytest

from popref.harness import run_experiment

SEED = 1
MANIFESTS = {
    "pop-objonly": {"task": "object-only", "model": "pop",
                    "data.n_train": "667", "data.n_val": "83", "data.n_test": "3333"},
    "trpop-objonly": {"task": "object-only", "model": "trpop",
                      "data.n_train": "250", "data.n_val": "125", "data.n_test": "2000"},
    "pipeline-attr": {"task": "object-attr", "model": "pipeline", "data.max_len": "7",
                      "data.n_train": "83", "data.n_val": "1667", "data.n_test": "3333"},
    "trpop-attr": {"task": "object-attr", "model": "trpop", "train.epochs": "6",
                   "data.n_train": "300", "data.n_val": "100", "data.n_test": "600"},
}
# (manifest, seed) -> (report.json, checkpoint.json) sha256
PINS = {
    ("pop-objonly", SEED): (
        "c7200f55caeda5f70f557a42fb39b74e6048d9a79be48396074aefe0f03b41e1",
        "f0ac8fd21e61168e1e7b16bcb4252d2c8f64a28c46381b5ab6d08a74cd6ff408",
    ),
    ("trpop-objonly", SEED): (
        "452c77d39fc118ff7ed320128120f06d51b9577800a3cf685ad0a0e223c519c8",
        "6ccbe12464b3183915b6cb73526e62eb344f0d6d8b65c9eab92b5190ee9c83ce",
    ),
    ("pipeline-attr", SEED): (
        "299c3c41174b608c2c64f794a6619aebd0aabfd63aece2f73aeea9ec697b156a",
        "ce17120ad7ad7141d63d60d13a66600e6a55ef91b505a1621b037cf992312b18",
    ),
    ("trpop-objonly", 7919): (
        "d6609d84abbe3e6227b4cf1ebeb2d2a6296f1fa03c47a184e713fc7f3d4da5f0",
        "b9fef793f5a62a3d46a76ebbcbaf46c7913758af4d192609f96641012cb78584",
    ),
    ("trpop-attr", SEED): (
        "4df668cd8366813a9dcaecf348b82499303177373002c336f150aa48e9a2a34d",
        "18907346e6f57ff7019e60b02e0a6ec9ae0b838bb5bd523e5da1a2b7b39de2d1",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload, seed", [
    pytest.param(name, seed, id=name if seed == SEED else f"{name}-{seed}")
    for name, seed in sorted(PINS)])
def test_report_and_checkpoint_keep_their_bytes(workload, seed, tmp_path):
    manifest = dict(MANIFESTS[workload])
    for key in ("world.seed", "data.seed", "train.seed"):
        manifest[key] = str(seed)
    report = run_experiment(manifest, tmp_path)
    assert report["status"] == "ok", report
    got = (_sha256(tmp_path / "report.json"), _sha256(tmp_path / "checkpoint.json"))
    assert got == PINS[workload, seed]
