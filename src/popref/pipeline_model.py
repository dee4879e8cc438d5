"""The hand-engineered competitor: max-margin embeddings plus two thresholds.

Two linear maps project queries and candidates into a shared space, trained
with a max-margin ranking loss on (query, positive, negative) triples so
matching pairs score higher cosine similarity than mismatched ones.  At
prediction time the similarity profile is thresholded by two separately
tuned heuristics: protest when no candidate clears a minimum-similarity
floor (the missing-referent rule), or when the top two similarities sit
closer than a minimum gap (the multiple-referent rule); otherwise point at
the argmax.

Similarities are cosines, not raw dot products — the tuned thresholds only
make sense on a bounded scale.  Anomalous training acts contribute no
triples: a missing-referent act has no positive and a multiple-referent act
an ambiguous one.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .datagen import POINT
from .errors import ConfigError, NumericError
from .numerics import Rng, derive_seed, require_finite
from .pop_model import (
    CHUNK,
    Prediction,
    act_label,
    as_predictions,
    padded,
    stack,
)
from .training import (
    GradcheckReport,
    Params,
    Trainable,
    TrainConfig,
    TrainLog,
    gradcheck,
    train,
)

logger = logging.getLogger(__name__)

MISS_GRID = tuple(round(-1.0 + 0.05 * k, 2) for k in range(41))
GAP_GRID = tuple(round(0.01 * k, 2) for k in range(51))


@dataclass(frozen=True)
class PipelineConfig:
    d_query: int
    d_cand: int
    d_shared: int = 300
    margin: float = 0.5

    def validate(self) -> None:
        for name, dim in (("d_query", self.d_query), ("d_cand", self.d_cand),
                          ("d_shared", self.d_shared)):
            if dim < 1:
                raise ConfigError(f"{name} must be >= 1, got {dim}")
        require_finite(margin=self.margin)
        if self.margin <= 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")


@dataclass
class PipelineParams(Params):
    config: PipelineConfig
    query_map: np.ndarray
    object_map: np.ndarray

    @staticmethod
    def shapes(config: PipelineConfig) -> dict[str, tuple[int, ...]]:
        return {
            "query_map": (config.d_shared, config.d_query),
            "object_map": (config.d_shared, config.d_cand),
        }


@dataclass(frozen=True)
class Thresholds:
    """min_similarity catches missing referents; min_gap catches duplicates."""

    min_similarity: float
    min_gap: float

    def validate(self) -> None:
        for name, value in (("min_similarity", self.min_similarity),
                            ("min_gap", self.min_gap)):
            if not (-1.0 <= value <= 1.0):
                raise ConfigError(
                    f"{name} must lie in the cosine range [-1, 1], got {value}"
                )


def init_pipeline_params(config: PipelineConfig, rng: Rng) -> PipelineParams:
    """Glorot-uniform maps (see :meth:`Params.init`)."""
    return PipelineParams.init(config, rng)


def extract_pairs(encoded_acts):
    """Training triples (query, positive, negative) from successful acts only.

    The positive is the gold candidate; every other candidate in the same
    act yields one triple.
    """
    return [
        (act.query_vec, act.candidate_vecs[act.gold.index], candidate)
        for act in encoded_acts if act.gold.kind == POINT
        for k, candidate in enumerate(act.candidate_vecs) if k != act.gold.index
    ]


def _cosine(u: np.ndarray, v: np.ndarray, context: str = "") -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        logger.warning("zero-norm mapped vector%s; cosine defined as 0",
                       f" ({context})" if context else "")
        return 0.0
    return float(u @ v) / (nu * nv)


def _dcos(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partials of cos(u, v) w.r.t. u and v; zero at a zero-norm vector."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return np.zeros_like(u), np.zeros_like(v)
    c = float(u @ v) / (nu * nv)
    du = v / (nu * nv) - c * u / (nu * nu)
    dv = u / (nu * nv) - c * v / (nv * nv)
    return du, dv


def hinge_grads(query, positive, negative, params: PipelineParams) -> tuple[float, dict[str, np.ndarray]]:
    """Hinge loss and its exact subgradients for both maps.

    When the margin is satisfied the hinge is flat and all gradients are
    zero; otherwise the loss is margin - cos_pos + cos_neg and the chain
    rule runs through both cosines into the two linear maps.
    """
    query = np.asarray(query, dtype=np.float64)
    positive = np.asarray(positive, dtype=np.float64)
    negative = np.asarray(negative, dtype=np.float64)
    qv = params.query_map @ query
    pv = params.object_map @ positive
    nv = params.object_map @ negative
    cos_pos = _cosine(qv, pv, "positive")
    cos_neg = _cosine(qv, nv, "negative")
    value = params.config.margin - cos_pos + cos_neg
    if value <= 0.0:
        return 0.0, {name: np.zeros_like(arr)
                     for name, arr in params.named_arrays().items()}

    dq_pos, dp = _dcos(qv, pv)
    dq_neg, dn = _dcos(qv, nv)
    dqv = -dq_pos + dq_neg
    grads = {
        "query_map": np.outer(dqv, query),
        "object_map": np.outer(-dp, positive) + np.outer(dn, negative),
    }
    return value, grads


class PipelineTrainable(Trainable):
    """Adapter over (query, positive, negative) triples for the generic trainer."""

    def loss_and_grads(self, triple) -> tuple[float, dict[str, np.ndarray]]:
        query, positive, negative = triple
        return hinge_grads(query, positive, negative, self.params)


def train_pipeline(
    encoded_acts,
    config: PipelineConfig,
    train_config: TrainConfig,
) -> tuple[PipelineParams, TrainLog]:
    """Initialize, extract triples, and run online SGD."""
    params = init_pipeline_params(
        config, Rng(derive_seed(train_config.seed, "pipeline-init"))
    )
    triples = extract_pairs(encoded_acts)
    log = train(PipelineTrainable(params), triples, train_config)
    return params, log


def chunk_cosines(params: PipelineParams, acts) -> tuple[np.ndarray, np.ndarray]:
    """(cosine of every candidate of a chunk in order, lengths).

    Each map is applied to the whole chunk in one matmul.  The dot products
    are reassociated as ``candidate @ (object_map.T @ query_vec)``, so the
    only N x d_shared array is the mapped candidates, read for their norms.
    A non-finite query or candidate is a :class:`NumericError` naming its act.
    """
    cfg = params.config
    queries, candidates, lengths = stack(acts, cfg.d_query, cfg.d_cand)
    rows = np.repeat(np.arange(len(acts)), lengths)
    # A non-finite act is reported below as a NumericError, not as warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        query_vecs = queries @ params.query_map.T
        object_vecs = candidates @ params.object_map.T
        dots = np.einsum("nc,nc->n", candidates,
                         (query_vecs @ params.object_map)[rows])
        query_norms = np.sqrt(np.einsum("bd,bd->b", query_vecs, query_vecs))[rows]
        object_norms = np.sqrt(np.einsum("nd,nd->n", object_vecs, object_vecs))
        finite = np.isfinite(dots) & np.isfinite(query_norms * object_norms)
    if not finite.all():
        i = int(rows[np.argmin(finite)])
        raise NumericError(f"act {act_label(acts[i])!r}: non-finite mapped vectors")
    zero = (query_norms == 0.0) | (object_norms == 0.0)
    if zero.any():
        for i in sorted(set(rows[zero].tolist())):
            logger.warning("zero-norm mapped vector (act %r); cosine defined as 0",
                           act_label(acts[i]))
    cosines = np.divide(dots, query_norms * object_norms,
                        out=np.zeros_like(dots), where=~zero)
    return cosines, lengths


def similarity_profile(params: PipelineParams, act) -> np.ndarray:
    """Cosine similarity of the mapped query against each mapped candidate."""
    return chunk_cosines(params, [act])[0]


def protest_profiles(params: PipelineParams, acts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(best similarity, gap between the top two, argmax) of every act, as
    three arrays, :data:`~popref.pop_model.CHUNK` acts per matmul.

    The gap is inf for a single candidate, so the gap rule never fires
    there.  Ties in the argmax break toward the lowest index.
    """
    n = len(acts)
    max_sims, gaps = np.empty(n), np.empty(n)
    best = np.empty(n, dtype=np.intp)
    for lo in range(0, n, CHUNK):
        cosines, lengths = chunk_cosines(params, acts[lo:lo + CHUNK])
        # At least two columns: a lone candidate's runner-up is -inf.
        rows = padded(cosines, lengths, max(2, int(lengths.max())))
        top_two = np.sort(rows, axis=1)[:, -2:]
        hi = lo + lengths.size
        max_sims[lo:hi] = top_two[:, 1]
        gaps[lo:hi] = top_two[:, 1] - top_two[:, 0]
        best[lo:hi] = rows.argmax(axis=1)
    return max_sims, gaps, best


def _protests(max_sim, gap, min_similarity, min_gap):
    """The two protest rules, elementwise on arrays of profiles."""
    return (max_sim < min_similarity) | (gap < min_gap)


def pipeline_predict_batch(params: PipelineParams, thresholds: Thresholds,
                           acts) -> list[Prediction]:
    """:func:`pipeline_predict` for every act, from one
    :func:`protest_profiles` call."""
    max_sims, gaps, best = protest_profiles(params, acts)
    protest = _protests(max_sims, gaps, thresholds.min_similarity,
                        thresholds.min_gap)
    return as_predictions(protest, best)


def pipeline_predict(params: PipelineParams, thresholds: Thresholds, act) -> Prediction:
    """Apply the two protest heuristics, else point at the best candidate.

    Protest when the best similarity falls below ``min_similarity`` (nothing
    matches well enough), or — for two or more candidates — when the top two
    similarities differ by less than ``min_gap`` (two things match equally
    well).  See :func:`protest_profiles`.
    """
    return pipeline_predict_batch(params, thresholds, [act])[0]


def tune_thresholds(
    params: PipelineParams,
    encoded_val_acts,
    miss_grid=MISS_GRID,
    gap_grid=GAP_GRID,
) -> Thresholds:
    """Grid-search both thresholds for maximum overall validation accuracy.

    Ties resolve to the smaller thresholds (lexicographically, the
    minimum-similarity floor first): the grids are scanned in ascending
    order and only strictly better accuracy replaces the incumbent.
    """
    acts = list(encoded_val_acts)
    if not acts:
        raise ConfigError("threshold tuning needs a nonempty validation set")
    max_sims, gaps, argmaxes = protest_profiles(params, acts)
    gold_index = np.array([act.gold.index if act.gold.kind == POINT else -1
                           for act in acts])
    is_anomaly = gold_index < 0
    point_correct = argmaxes == gold_index

    best = (-1, Thresholds(min_similarity=miss_grid[0], min_gap=gap_grid[0]))
    for theta_miss in miss_grid:
        for theta_gap in gap_grid:
            protest = _protests(max_sims, gaps, theta_miss, theta_gap)
            correct = int(np.sum(np.where(protest, is_anomaly, point_correct)))
            if correct > best[0]:
                best = (correct, Thresholds(min_similarity=theta_miss,
                                            min_gap=theta_gap))
    return best[1]


def gradcheck_pipeline(
    trials: int = 10,
    seed: int = 20260815,
    tolerance: float = 1e-4,
    h: float = 1e-5,
) -> GradcheckReport:
    """Finite-difference verification of the hinge-loss gradients.

    Triples are resampled until the hinge is active with at least 1e-3 of
    slack, so the finite-difference probe never straddles the max(0, .) kink.
    """
    rng = Rng(seed)

    def sample(trial: int):
        config = PipelineConfig(
            d_query=2 + rng.randrange(3),
            d_cand=2 + rng.randrange(3),
            d_shared=3 + rng.randrange(3),
            margin=0.5,
        )
        for _ in range(200):
            params = init_pipeline_params(config, rng.fork())
            triple = (rng.normals(config.d_query), rng.normals(config.d_cand),
                      rng.normals(config.d_cand))
            if hinge_grads(*triple, params)[0] > 1e-3:
                return PipelineTrainable(params), triple, ""
        return "could not activate the hinge"

    return gradcheck(sample, trials, tolerance, h)
