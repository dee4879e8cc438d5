"""popref's benchmark: ``run_experiment`` on one workload, timed and checked.

    python3 perfbench/run.py --workload pop-objonly --seed 1 --seconds 40 --trace 0

Run from anywhere; popref is imported from ``src/`` next to this directory.
Each experiment runs in a fresh process (``experiment.py``), one after
another, until the next one would overrun ``--seconds`` (at least
``MIN_EXPERIMENTS``).  All experiments of a run use the same seed, so their
reports must be byte-identical.  Each metric is condensed over the
experiments as the median, except the four time metrics, which take each
small part of the work at its fastest (``time_metrics``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced experiments and reports the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced
``experiment_s``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
every metric by name with its unit, the checks and the machine.  The full
result set is also written to ``perfbench/_work/results/``.

Exit status: 0 when every experiment passed every check, 1 when one did not,
2 when the benchmark cannot run at all (no ``src/popref`` beside it).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from workloads import HELD_OUT_SEED, WORKLOADS, manifest_for  # noqa: E402

END_TO_END = {
    "experiment_s": "s",
    "setup_s": "s",
    "train_updates_per_s": "1/s",
    "eval_acts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_total_acc": "%",
}
# failed_share is printed with the end-to-end metrics but is not in the JSON
# metrics: it is 0 on a healthy run, and the JSON carries attempted/failed.
FAILED_SHARE_UNIT = "share"

PER_LAYER = {
    "pop_model.forward_us_p50": "us",
    "pop_model.forward_us_p99": "us",
    "pop_model.backward_us_p50": "us",
    "pop_model.backward_us_p99": "us",
    "pop_model.forward_calls": "count",
    "pop_model.predict_us_per_act": "us",
    "training.step_us": "us",
    "training.update_us": "us",
    "training.updates": "count",
    "training.touched_col_share": "share",
    "harness.evaluate_ms": "ms",
    "harness.probe_ms": "ms",
    "harness.report_write_ms": "ms",
    "pipeline_model.hinge_us": "us",
    "pipeline_model.hinge_active_ratio": "share",
    "pipeline_model.similarity_profile_us_per_act": "us",
    "pipeline_model.tune_ms": "ms",
    "pipeline_model.predict_us_per_act": "us",
    "datagen.generate_ms": "ms",
    "datagen.gen_us_per_act": "us",
    "datagen.acts_generated": "count",
    "embeddings.world_build_ms": "ms",
    "embeddings.encode_us_per_act": "us",
    "checkpoint.record_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}

CHECKS = ("exit_ok", "status_ok", "report_hash", "checkpoint_loads", "counts",
          "same_parts")
MIN_EXPERIMENTS = 3
HARD_LIMIT_S = 170.0  # every run ends within 180 s
# One process, one BLAS thread.  BLAS threads made no measurable difference
# to a training step here, and a pinned count keeps machines comparable.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy split sizes, for the self-test")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = "1"
    return env


def machine(seed: int, env: dict) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: env.get(name) for name in BLAS_ENV},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def source_digest() -> str:
    """Hash of popref's sources: the 'commit' a report hash is valid for."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "popref").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_one(manifest_path: Path, out_dir: Path, traced: bool, env: dict,
            timeout: float) -> dict:
    """Run one experiment process; returns its bench.json plus exit facts."""
    command = [sys.executable, str(HERE / "experiment.py"), str(manifest_path),
               str(out_dir)]
    spawned_at = time.monotonic()
    command.append(repr(spawned_at))
    if traced:
        command.append("--trace")
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "exit_ok": False, "wall_s": timeout,
                "stderr": f"timed out after {timeout:.0f} s"}
    wall_s = time.monotonic() - spawned_at
    bench = out_dir / "bench.json"
    if proc.returncode != 0 or not bench.is_file():
        return {"traced": traced, "exit_ok": False, "wall_s": wall_s,
                "stderr": proc.stderr[-2000:]}
    result = json.loads(bench.read_text(encoding="utf-8"))
    report = out_dir / "report.json"
    result["report_sha256"] = (hashlib.sha256(report.read_bytes()).hexdigest()
                               if report.is_file() else None)
    result.update(traced=traced, exit_ok=True, wall_s=wall_s)
    return result


def stage_labels(exp: dict) -> list[str]:
    return [stage for stage, _ in exp["parts"]]


def check(experiments, manifest, reference_hash):
    """Record each experiment's checks, and whether it failed any.

    ``same_parts``: the stage clock cut the experiment into the same parts,
    stage by stage, as the run's first experiment (see ``fastest_parts``).
    """
    n_test = int(manifest["data.n_test"])
    first = next((e for e in experiments if e["exit_ok"]), None)
    for exp in experiments:
        ok = exp["exit_ok"]
        exp["checks"] = {
            "exit_ok": ok,
            "status_ok": ok and exp["status"] == "ok",
            "report_hash": ok and exp["report_sha256"] == reference_hash,
            "checkpoint_loads": ok and exp["checkpoint_loads"],
            "counts": ok and exp["test_acts"] == n_test and exp["updates"] > 0,
            "same_parts": ok and stage_labels(exp) == stage_labels(first),
        }
        exp["failed"] = not all(exp["checks"].values())


def reference_hash(experiments, ledger_key: str):
    """The report hash every experiment must match.

    The ledger keeps the first hash seen for each (sources, manifest), so a
    report that changes between runs of the same code and seed fails too.
    """
    ledger_path = WORK / "report_hashes.json"
    ledger = {}
    if ledger_path.is_file():
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    if ledger_key not in ledger:
        first = next((e["report_sha256"] for e in experiments
                      if e["exit_ok"] and e["report_sha256"]), None)
        if first is None:
            return None
        ledger[ledger_key] = first
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True),
                               encoding="utf-8")
    return ledger[ledger_key]


def end_to_end(exp: dict) -> dict:
    stages = exp["stages_s"]
    return {
        "experiment_s": exp["experiment_s"],
        "setup_s": exp["setup_s"],
        "train_updates_per_s": exp["updates"] / stages["train"],
        "eval_acts_per_s": exp["test_acts"] / stages["evaluate"],
        "peak_rss_mb": exp["peak_rss_mb"],
        "test_total_acc": exp["test_total_acc"],
    }


def fastest_parts(experiments: list[dict]) -> list[float]:
    """Each part's fastest time over a run's experiments.

    All experiments of a run make the same calls in the same order, so the
    stage clock cuts them into the same parts (``probes.StageClock``), each
    1-15 ms of work.  The host's speed comes and goes in bursts of seconds,
    which slow whole stretches of an experiment; taking every part at its
    fastest over the run's experiments leaves out the bursts, and a change
    that slows any part still moves the sum by as much.
    """
    times = [[s for _, s in exp["parts"]] for exp in experiments]
    return [min(same_part) for same_part in zip(*times)]


def time_metrics(experiments: list[dict]) -> dict[str, float]:
    """The time metrics of a run, from each part at its fastest.

    Set-up is the launch of the experiment process (interpreter start and
    imports, one piece, at its fastest) plus every part before training.
    """
    stages = stage_labels(experiments[0])
    fastest = fastest_parts(experiments)

    def seconds(stage):
        return sum(s for label, s in zip(stages, fastest) if label == stage)

    first = experiments[0]
    return {
        "experiment_s": sum(fastest),
        "setup_s": (min(e["launch_s"] for e in experiments)
                    + sum(fastest[:stages.index("train")])),
        "train_updates_per_s": first["updates"] / seconds("train"),
        "eval_acts_per_s": first["test_acts"] / seconds("evaluate"),
    }


def summarize(rows: list[dict], units: dict) -> dict:
    """The median of each metric over experiments, with its quartiles and
    count beside it."""
    out = {}
    for name, unit in units.items():
        values = [row[name] for row in rows if row.get(name) is not None]
        if not values:
            continue
        q1, q3 = ((values[0], values[0]) if len(values) < 2 else
                  statistics.quantiles(values, n=4, method="inclusive")[::2])
        median = statistics.median(values)
        out[name] = {"value": median, "unit": unit, "of": "median",
                     "median": median, "q1": q1, "q3": q3, "n": len(values)}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "popref" / "__init__.py").is_file():
        print(f"error: no popref sources at {SRC}", file=sys.stderr)
        return 2
    manifest = manifest_for(args.workload, args.seed, toy=args.toy)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    env = child_env()

    experiments = []
    begun = time.monotonic()
    while True:
        elapsed = time.monotonic() - begun
        traced = bool(args.trace) and len(experiments) % 2 == 1
        exp = run_one(manifest_path, run_dir / f"exp{len(experiments)}", traced,
                      env, timeout=max(1.0, HARD_LIMIT_S - elapsed))
        experiments.append(exp)
        elapsed = time.monotonic() - begun
        longest = max(e["wall_s"] for e in experiments)
        if not exp["exit_ok"] or elapsed + longest > HARD_LIMIT_S:
            break
        if len(experiments) >= MIN_EXPERIMENTS and elapsed + longest > args.seconds:
            break

    ledger_key = hashlib.sha256(
        (source_digest() + json.dumps(manifest, sort_keys=True)).encode()
    ).hexdigest()
    agreed = reference_hash(experiments, ledger_key)
    check(experiments, manifest, agreed)
    good = [e for e in experiments if not e["failed"]]
    failed = len(experiments) - len(good)

    plain = [e for e in good if not e["traced"]]
    spanned = [e for e in good if e["traced"]]
    e2e = summarize([end_to_end(e) for e in plain], END_TO_END)
    if plain:
        # The time metrics take each part of the work at its fastest; see
        # time_metrics.  Memory and accuracy are the median experiment.
        for name, value in time_metrics(plain).items():
            e2e[name].update(value=value, of="fastest parts")
    if args.trace:
        layers = summarize([e["layers"] for e in spanned], PER_LAYER)
        if spanned and "experiment_s" in e2e:
            # Both sides condensed as experiment_s is: the fastest parts.
            overhead = (sum(fastest_parts(spanned))
                        - e2e["experiment_s"]["value"])
            layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            layers["trace.overhead_share"] = {
                "value": overhead / e2e["experiment_s"]["value"], "unit": "share"}
        reported, units = layers, PER_LAYER
    else:
        reported, units = e2e, END_TO_END
    correct = failed == 0 and all(name in reported for name in units)

    info = machine(args.seed, env)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"experiments {len(experiments)}  failed {failed}")
    print("machine " + json.dumps(info, sort_keys=True))
    passed = {name: sum(e["checks"][name] for e in experiments) for name in CHECKS}
    print("checks " + "  ".join(f"{k} {v}/{len(experiments)}"
                                for k, v in passed.items())
          + f"  report_sha256 {agreed}")
    for index, exp in enumerate(experiments):
        if exp["failed"]:
            broken = [name for name, ok in exp["checks"].items() if not ok]
            detail = exp.get("error") or exp.get("stderr") or ""
            print(f"failed experiment {index}: {', '.join(broken)} {detail}".rstrip())
    if args.trace and "experiment_s" in e2e:
        print(f"untraced experiment_s {e2e['experiment_s']['value']:.4f} s")
    for name, unit in units.items():
        if name in reported:
            m = reported[name]
            spread = (f"  ({m['of']} of {m['n']}; median {m['median']:.6g}, "
                      f"q1 {m['q1']:.6g}, q3 {m['q3']:.6g})" if "n" in m else "")
            print(f"{name} {m['value']:.6g} {unit}{spread}")
        else:
            print(f"{name} missing {unit}")
    print(f"failed_share {failed / len(experiments):.6g} {FAILED_SHARE_UNIT}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "manifest": manifest,
        "machine": info,
        "report_sha256": agreed,
        "metrics": reported,
        "end_to_end": e2e,
        "failed_share": failed / len(experiments),
        "experiments": experiments,
    }
    (results / f"{run_dir.name}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": len(experiments),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills the
    # running experiment process and waits for it instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.exit(main())
