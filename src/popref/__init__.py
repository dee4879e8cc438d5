"""popref: point at a query's referent among candidates, or protest.

A numpy toolkit for reference resolution over variable-length candidate
scenes: a pointing network with an anomaly pathway (trained by hand-derived
backpropagation), a max-margin pipeline competitor with tuned protest
thresholds, six calibration baselines, seeded synthetic dataset generators,
and an evaluation harness with a CLI (``popref``).
"""

from .baselines import (
    LabelDistribution,
    SyntheticLabeler,
    attr_random_predict,
    cnn_predict,
    estimate_label_distribution,
    labels_match,
    majority_predict,
    probability_predict,
    random_predict,
    run_imgshuffle,
)
from .checkpoint import (
    load_checkpoint,
    pipeline_record,
    pop_record,
    restore_pipeline,
    restore_pop,
    save_checkpoint,
)
from .datagen import (
    PROTEST,
    DatasetSpec,
    Gold,
    Item,
    Query,
    ReferenceAct,
    dataset_stats,
    gen_object_attribute,
    gen_object_only,
    generate_splits,
    gold_arrays,
    matches,
    read_jsonl,
    scored,
    validate_act,
    write_jsonl,
)
from .embeddings import (
    EncodedAct,
    EncodedSplit,
    SyntheticWorld,
    Table,
    WorldConfig,
    build_synthetic_world,
    encode_act,
    encode_split,
    shuffle_images,
)
from .errors import (
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
from .harness import (
    Metrics,
    build_model,
    evaluate,
    fit,
    parse_kv_file,
    per_act,
    run_experiment,
)
from .numerics import Rng, derive_seed, fnv1a64
from .pipeline_model import (
    PipelineConfig,
    PipelineParams,
    Thresholds,
    extract_pairs,
    gradcheck_pipeline,
    init_pipeline_params,
    pipeline_predict,
    pipeline_predict_batch,
    train_pipeline,
    tune_thresholds,
)
from .pop_model import (
    PopConfig,
    PopParams,
    Prediction,
    backward,
    forward,
    gradcheck_pop,
    init_params,
    loss,
    predict,
    predict_batch,
)
from .training import TrainConfig, train

__version__ = "0.1.0"
