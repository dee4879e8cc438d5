"""One ``run_experiment`` call in a fresh process, timed by the stage clock.

    python3 perfbench/experiment.py MANIFEST.json OUT_DIR SPAWNED_AT [--trace]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time counts interpreter start and ``import popref``.
popref is imported from ``src/`` of the checkout this file sits in, never
from anywhere else.  Writes ``OUT_DIR/bench.json``; ``run_experiment``
itself writes ``report.json``, ``meta.json`` and ``checkpoint.json`` there.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_popref():
    """Import popref from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import popref
    import popref.harness  # noqa: F401 - loads every module on the path

    if Path(popref.__file__).resolve().parent != SRC / "popref":
        sys.exit(f"error: imported popref from {popref.__file__}, not {SRC}")
    return {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "popref" or name.startswith("popref.")
    }


def checkpoint_loads(modules, path: Path) -> bool:
    """The written checkpoint loads and restores through popref's loader."""
    checkpoint = modules["checkpoint"]
    errors = modules["errors"]
    try:
        record = checkpoint.load_checkpoint(path)
        if record["kind"] == "pipeline":
            checkpoint.restore_pipeline(record)
        else:
            checkpoint.restore_pop(record)
    except (OSError, errors.PopRefError):
        return False
    return True


def main(argv) -> int:
    manifest_path, out_dir, spawned_at = argv[:3]
    traced = "--trace" in argv[3:]
    modules = import_popref()
    sys.path.insert(0, str(HERE))
    from probes import StageClock, Tracer

    out = Path(out_dir)
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    harness = modules["harness"]
    tracer = None
    if traced:
        tracer = Tracer(run_id=out.name)
        tracer.install(modules)
    clock = StageClock()
    clock.install(modules)

    launch_s = time.monotonic() - float(spawned_at)
    clock.mark("rest")
    start = time.perf_counter()
    report = harness.run_experiment(manifest, out)
    experiment_s = time.perf_counter() - start
    clock.mark("end")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    train_started = clock.train_started_at
    result = {
        "experiment_s": experiment_s,
        "setup_s": (train_started - float(spawned_at)) if train_started else None,
        "launch_s": launch_s,
        "stages_s": clock.seconds,
        "parts": clock.parts(),
        "peak_rss_mb": peak_rss_mb,
        "status": report["status"],
        "error": report.get("error"),
        "updates": report.get("train", {}).get("updates", 0),
        "test_acts": sum(
            c["n"] for c in report.get("metrics", {}).get("counts", {}).values()),
        "test_total_acc": report.get("metrics", {}).get("total"),
        "checkpoint_loads": checkpoint_loads(modules, out / "checkpoint.json"),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(report)
        result["spans"] = {"run_id": tracer.run_id, "by_name": tracer.summary()}
    (out / "bench.json").write_text(json.dumps(result, sort_keys=True),
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
