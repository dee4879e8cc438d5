"""The bytes of three full experiments, pinned.

``run_experiment`` runs the three benchmark workloads at seed 1 (the
manifests ``perfbench.workloads.manifest_for(name, 1)`` gives, copied here so
this test runs without ``perfbench/``), and the full sha256 of each
``report.json`` and ``checkpoint.json`` must equal its pin.  A change that
claims to keep every bit is held to it here.

The pins were taken with Python 3.11.7, numpy 2.4.6 and scipy-openblas
0.3.31.  Like the world-table pin in ``test_embeddings``, they assume that
build: a BLAS that sums in another order moves the last bits.

A change that moves these bytes on purpose updates the pins, and says in
``CHANGES.md`` why, and which tolerance it checked instead.
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
}
PINS = {
    "pop-objonly": (
        "d5577fc649219093043bf67a9f5225fda604e3caf71ee421b27d7d4f6d48af9e",
        "860ac36c9abffff99c68791a57560a5a9534f4e2f9875d4a4822feee18646cf5",
    ),
    "trpop-objonly": (
        "c366d5f1950d59d71b2645cdba19f607cfcde57f7a441fab9121055b7ec61eb2",
        "b6cc612f8a0e6aec8f6d5105c7c54ef9ea2767fe9441efb20adcf56100011703",
    ),
    "pipeline-attr": (
        "299c3c41174b608c2c64f794a6619aebd0aabfd63aece2f73aeea9ec697b156a",
        "7e6c3f9c1e993a0e64cb334b149b251a3b9810fe196b7f75a32cbc4553279506",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(MANIFESTS))
def test_report_and_checkpoint_keep_their_bytes(workload, tmp_path):
    manifest = dict(MANIFESTS[workload])
    for key in ("world.seed", "data.seed", "train.seed"):
        manifest[key] = str(SEED)
    report = run_experiment(manifest, tmp_path)
    assert report["status"] == "ok", report
    got = (_sha256(tmp_path / "report.json"), _sha256(tmp_path / "checkpoint.json"))
    assert got == PINS[workload]
