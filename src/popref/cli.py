"""Command-line entry points.

Subcommands: ``gen-data`` (write train/val/test JSONL splits), ``train``
(fit a model and save a checkpoint), ``tune-thresholds`` (grid-search the
pipeline's protest heuristics on a validation file), ``eval`` (score a
checkpoint on a test file), ``baseline`` (run one of the six comparison
systems), ``gradcheck`` (verify analytic gradients against finite
differences), and ``stats`` (dataset combination-frequency report).

Exit codes: 0 on success, 1 for usage errors (bad flags/arguments), 2 for
data or contract errors (malformed files, invalid configs, broken
invariants), 3 for numeric failures (non-finite losses, failed gradient
checks).
"""

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from functools import partial

from . import baselines
from .checkpoint import (
    load_checkpoint,
    restore_inputs,
    restore_pipeline,
    restore_pop,
    save_checkpoint,
)
from .datagen import dataset_stats, generate_splits, read_jsonl, write_jsonl
from .embeddings import build_synthetic_world
from .errors import ConfigError, NumericError, PopRefError
from .harness import (
    MODEL_KINDS,
    TASKS,
    build_dataset_spec,
    build_inputs,
    build_model,
    build_world_config,
    encode_split,
    evaluate,
    fit,
    infer_task,
    parse_kv_file,
    per_act,
    validate_manifest_keys,
)
from .numerics import Rng
from .pipeline_model import gradcheck_pipeline, pipeline_predict_batch, tune_thresholds
from .pop_model import gradcheck_pop, predict_batch

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this tool reserves 2
    for data errors, so usage errors are remapped to 1.  A negative number in
    exponent form (``--tolerance -1e-4``) is read as a value, as argparse
    already reads ``-1`` and ``-0.5``, not as an unknown option; so are
    ``-inf``, ``-infinity`` and ``-nan``, in any case, as ``float`` reads them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_config(path) -> dict[str, str]:
    if path is None:
        return {}
    kv = parse_kv_file(path)
    validate_manifest_keys(kv)
    return kv


def _world_from(kv: dict[str, str], seed_override=None):
    config, seed = build_world_config(kv)
    if seed_override is not None:
        seed = seed_override
    return build_synthetic_world(config, seed)


def _print_metrics(metrics, report_path=None) -> None:
    print(metrics.to_text())
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(metrics.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"report written to {report_path}")


def _cmd_gen_data(args) -> int:
    kv = _load_config(args.spec)
    task = args.task or kv.get("task", "object-only")
    world = _world_from(kv, args.world_seed)
    spec = build_dataset_spec(kv)
    splits = generate_splits(world, spec, task)
    os.makedirs(args.out, exist_ok=True)
    for split, acts in splits.items():
        path = os.path.join(args.out, f"{split}.jsonl")
        write_jsonl(acts, path)
        print(f"{split}: {len(acts)} acts -> {path}")
    print(f"task={task} world_seed={world.seed} data_seed={spec.seed}")
    return EXIT_OK


def _cmd_train(args) -> int:
    kv = _load_config(args.config)
    acts = read_jsonl(args.data)
    if not acts:
        raise ConfigError(f"no training acts in {args.data}")
    task = infer_task(acts)
    for key, value, source in (("model", args.model, "--model"),
                               ("task", task, f"the acts in {args.data}")):
        if key in kv and kv[key] != value:
            raise ConfigError(
                f"config key {key} = {kv[key]!r} conflicts with {source} "
                f"({value!r})"
            )
    inputs = build_inputs(kv, args.model, task)
    encoded = _encode(inputs, acts, args.allow_unknown)
    config = build_model(kv, args.model, encoded.d_query, encoded.d_cand)
    fitted = fit(kv, args.model, config, encoded, inputs)

    save_checkpoint(fitted.record(), args.out_checkpoint)
    losses = ", ".join(f"{v:.4f}" for v in fitted.log.epoch_losses)
    print(f"trained {args.model} for {len(fitted.log.epoch_losses)} epochs "
          f"({fitted.log.updates} updates)")
    print(f"epoch mean losses: [{losses}]")
    print(f"checkpoint written to {args.out_checkpoint}")
    return EXIT_OK


def _encode(inputs, acts, allow_unknown: bool = False):
    """``acts`` encoded as ``inputs`` says, in the world they name."""
    world = build_synthetic_world(inputs.world_config, inputs.world_seed)
    return encode_split(world, acts, inputs.encoding, inputs.normalize_blocks,
                        allow_unknown=allow_unknown)


def _cmd_tune_thresholds(args) -> int:
    record = load_checkpoint(args.checkpoint)
    params, _ = restore_pipeline(record)
    encoded = _encode(restore_inputs(record), read_jsonl(args.val))
    thresholds = tune_thresholds(params, encoded)
    record["thresholds"] = asdict(thresholds)
    out = args.out or args.checkpoint
    save_checkpoint(record, out)
    print(f"min_similarity={thresholds.min_similarity} "
          f"min_gap={thresholds.min_gap}")
    print(f"checkpoint updated: {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    record = load_checkpoint(args.checkpoint)
    acts = read_jsonl(args.test)
    if not acts:
        raise ConfigError(f"no test acts in {args.test}")
    encoded = _encode(restore_inputs(record), acts, args.allow_unknown)
    if record["kind"] == "pipeline":
        params, thresholds = restore_pipeline(record)
        if thresholds is None:
            raise ConfigError(
                "pipeline checkpoint has no tuned thresholds; run "
                "tune-thresholds first"
            )
        metrics = evaluate(
            lambda acts: pipeline_predict_batch(params, thresholds, acts), encoded
        )
    else:
        params = restore_pop(record)
        metrics = evaluate(lambda acts: predict_batch(params, acts), encoded)
    _print_metrics(metrics, args.report)
    return EXIT_OK


def _cmd_baseline(args) -> int:
    acts = read_jsonl(args.test)
    if not acts:
        raise ConfigError(f"no test acts in {args.test}")

    if args.kind == "random":
        predictor = partial(baselines.random_predict, rng=Rng(args.seed),
                            max_len=args.max_len)
    elif args.kind == "majority":
        predictor = baselines.majority_predict
    elif args.kind == "probability":
        if not args.train:
            raise ConfigError(
                "the probability baseline needs --train to estimate label "
                "frequencies"
            )
        train_acts = read_jsonl(args.train)
        dist = baselines.estimate_label_distribution(train_acts, args.max_len)
        predictor = partial(baselines.probability_predict, dist=dist, rng=Rng(args.seed))
    elif args.kind == "cnn":
        if args.config:
            world = _world_from(_load_config(args.config))
            vocabulary = tuple(world.objects)
        else:
            vocabulary = tuple(sorted({it.object for a in acts for it in a.items}))
        labeler = baselines.SyntheticLabeler(
            vocabulary=vocabulary, p_true=args.p_true, seed=args.seed
        )
        predictor = partial(baselines.cnn_predict, labeler=labeler)
    elif args.kind == "attr-random":
        predictor = partial(baselines.attr_random_predict, rng=Rng(args.seed))
    elif args.kind == "imgshuffle":
        if not args.train:
            raise ConfigError("the image-shuffle run needs --train acts")
        kv = _load_config(args.config)
        world = _world_from(kv)
        result = baselines.run_imgshuffle(
            world, read_jsonl(args.train), acts, kv,
            shuffle_seed=args.shuffle_seed,
        )
        print(f"shuffle_seed={result.shuffle_seed}")
        _print_metrics(result.metrics, args.report)
        return EXIT_OK
    else:
        raise ConfigError(f"unknown baseline kind {args.kind!r}")

    _print_metrics(evaluate(per_act(predictor), acts), args.report)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    reports = []
    if args.model in ("pop", "all"):
        trials = 20 if args.trials is None else args.trials
        reports.append(("pop", gradcheck_pop(
            trials=trials, seed=args.seed, tolerance=args.tolerance
        )))
    if args.model in ("pipeline", "all"):
        trials = 10 if args.trials is None else args.trials
        reports.append(("pipeline", gradcheck_pipeline(
            trials=trials, seed=args.seed, tolerance=args.tolerance
        )))
    failed = False
    for name, report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: {status} ({report.trials} trials, "
              f"max rel error {report.max_rel_error:.3e}, "
              f"tolerance {report.tolerance:g})")
        for failure in report.failures:
            print(f"  {failure}")
        failed = failed or not report.passed
    return EXIT_NUMERIC if failed else EXIT_OK


def _cmd_stats(args) -> int:
    train_acts = read_jsonl(args.train)
    test_acts = read_jsonl(args.test) if args.test else None
    report = dataset_stats(train_acts, test_acts)
    print(report.to_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="popref",
        description="Reference-resolution toolkit: dataset generation, "
                    "model training, baselines, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate train/val/test JSONL splits")
    p.add_argument("--task", choices=TASKS, default=None,
                   help="dataset flavor (default: from spec file, else object-only)")
    p.add_argument("--world-seed", type=int, default=None,
                   help="override the world seed from the spec file")
    p.add_argument("--spec", default=None,
                   help="key-value file with world.* and data.* settings")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model and save a checkpoint")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--data", required=True, help="training acts (JSONL)")
    p.add_argument("--config", default=None,
                   help="key-value file with world.*, train.*, model.* settings")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--allow-unknown", action="store_true",
                   help="dense encoding: map unknown tokens to zero vectors "
                        "instead of failing")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tune-thresholds",
                       help="grid-search the pipeline protest thresholds")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--val", required=True, help="validation acts (JSONL)")
    p.add_argument("--out", default=None,
                   help="write the updated checkpoint here (default: in place)")
    p.set_defaults(func=_cmd_tune_thresholds)

    p = sub.add_parser("eval", help="evaluate a checkpoint on test acts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="test acts (JSONL)")
    p.add_argument("--report", default=None, help="write metrics JSON here")
    p.add_argument("--allow-unknown", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baseline", help="run a comparison system")
    p.add_argument("--kind", required=True,
                   choices=["random", "majority", "probability", "cnn",
                            "attr-random", "imgshuffle"])
    p.add_argument("--test", required=True, help="test acts (JSONL)")
    p.add_argument("--train", default=None,
                   help="training acts (probability, imgshuffle)")
    p.add_argument("--config", default=None,
                   help="key-value file (cnn vocabulary, imgshuffle world)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-len", type=_positive_int, default=5,
                   help="label-space size for random/probability")
    p.add_argument("--p-true", type=float, default=1.0,
                   help="synthetic labeler accuracy (cnn)")
    p.add_argument("--shuffle-seed", type=int, default=0,
                   help="image permutation seed (imgshuffle)")
    p.add_argument("--report", default=None, help="write metrics JSON here")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients against finite differences")
    p.add_argument("--model", choices=["pop", "pipeline", "all"], default="all")
    p.add_argument("--trials", type=_positive_int, default=None,
                   help="trials per model (defaults: 20 pointing, 10 pipeline)")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=20260815)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("stats", help="dataset combination-frequency report")
    p.add_argument("--train", required=True, help="acts (JSONL)")
    p.add_argument("--test", default=None,
                   help="second split for overlap percentages")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PopRefError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
