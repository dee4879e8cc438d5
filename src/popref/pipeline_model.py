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
an ambiguous one.  A triple is three row indices into the encoded split.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .datagen import PROTEST, Gold, scored
from .embeddings import EncodedAct, EncodedSplit
from .errors import ConfigError, NumericError
from .numerics import Rng, derive_seed, outer, require_finite
from .pop_model import CHUNK, padded
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


def extract_pairs(split: EncodedSplit) -> np.ndarray:
    """Training triples from successful acts only, as a T x 3 int array:
    the act (its query row), and the table rows of its gold candidate (the
    positive) and of one other candidate (the negative), in act order, then
    candidate order.
    """
    offsets, cells = split.offsets, split.gold_cells
    lengths = np.diff(offsets)
    owner = np.repeat(np.arange(len(split)), lengths)  # the act of each candidate
    gold = cells[owner]
    keep = (gold < lengths[owner]) & (np.arange(owner.size) - offsets[owner] != gold)
    owner = owner[keep]
    return np.column_stack([owner, split.rows[offsets[owner] + gold[keep]],
                            split.rows[keep]])


def _cosine(u: np.ndarray, v: np.ndarray, nu: float, nv: float,
            context: str = "") -> float:
    """cos(u, v) given the norms ``nu`` and ``nv``; 0 at a zero-norm vector."""
    if nu == 0.0 or nv == 0.0:
        logger.warning("zero-norm mapped vector%s; cosine defined as 0",
                       f" ({context})" if context else "")
        return 0.0
    return float(u @ v) / (nu * nv)


def _dcos(u: np.ndarray, v: np.ndarray, nu: float, nv: float,
          c: float) -> tuple[np.ndarray, np.ndarray]:
    """Partials of ``c = cos(u, v)`` w.r.t. u and v, given the norms; zero at
    a zero-norm vector."""
    if nu == 0.0 or nv == 0.0:
        return np.zeros_like(u), np.zeros_like(v)
    du = v / (nu * nv) - c * u / (nu * nu)
    dv = u / (nu * nv) - c * v / (nv * nv)
    return du, dv


def hinge_grads(query, positive, negative, params: PipelineParams) -> tuple[float, dict[str, np.ndarray]]:
    """Hinge loss and its exact subgradients for both maps.

    When the margin is satisfied the hinge is flat and all gradients are
    zero; otherwise the loss is margin - cos_pos + cos_neg and the chain
    rule runs through both cosines into the two linear maps.
    """
    qv = params.query_map @ query
    pv = params.object_map @ positive
    nv = params.object_map @ negative
    norm_q, norm_p, norm_n = (float(np.linalg.norm(x)) for x in (qv, pv, nv))
    cos_pos = _cosine(qv, pv, norm_q, norm_p, "positive")
    cos_neg = _cosine(qv, nv, norm_q, norm_n, "negative")
    value = params.config.margin - cos_pos + cos_neg
    if value <= 0.0:
        return 0.0, {name: np.zeros_like(arr)
                     for name, arr in params.named_arrays().items()}

    dq_pos, dp = _dcos(qv, pv, norm_q, norm_p, cos_pos)
    dq_neg, dn = _dcos(qv, nv, norm_q, norm_n, cos_neg)
    dqv = -dq_pos + dq_neg
    grads = {
        "query_map": outer(dqv, query),
        "object_map": outer(-dp, positive) + outer(dn, negative),
    }
    return value, grads


class PipelineTrainable(Trainable):
    """The hinge over an encoded split: example ``t`` is its triple ``t``."""

    def __init__(self, params: PipelineParams, split: EncodedSplit):
        super().__init__(params, split)
        self._triples = extract_pairs(split).tolist()

    def __len__(self) -> int:
        return len(self._triples)

    def loss_and_grads(self, t: int) -> tuple[float, dict[str, np.ndarray]]:
        act, positive, negative = self._triples[t]
        split = self.split
        return hinge_grads(split.queries[act], split.table[positive],
                           split.table[negative], self.params)

    def example_id(self, t: int) -> str:
        return self.split.ids[self._triples[t][0]]


def train_pipeline(
    encoded_acts: EncodedSplit,
    config: PipelineConfig,
    train_config: TrainConfig,
) -> tuple[PipelineParams, TrainLog]:
    """Initialize, extract triples, and run online SGD."""
    params = init_pipeline_params(
        config, Rng(derive_seed(train_config.seed, "pipeline-init"))
    )
    log = train(PipelineTrainable(params, encoded_acts), train_config)
    return params, log


def chunk_cosines(params: PipelineParams, chunk: EncodedSplit) -> tuple[np.ndarray, np.ndarray]:
    """(cosine of every candidate of a chunk in order, lengths).

    Each map is applied to the whole chunk in one matmul.  The dot products
    are reassociated as ``candidate @ (object_map.T @ query_vec)``, so the
    only N x d_shared array is the mapped candidates, read for their norms.
    A non-finite query or candidate is a :class:`NumericError` naming its act.
    """
    cfg = params.config
    chunk.require_dims(cfg.d_query, cfg.d_cand)
    queries, candidates, lengths = chunk.queries, chunk.candidates, np.diff(chunk.offsets)
    rows = np.repeat(np.arange(len(chunk)), lengths)
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
        raise NumericError(f"act {chunk.ids[i]!r}: non-finite mapped vectors")
    zero = (query_norms == 0.0) | (object_norms == 0.0)
    if zero.any():
        for i in sorted(set(rows[zero].tolist())):
            logger.warning("zero-norm mapped vector (act %r); cosine defined as 0",
                           chunk.ids[i])
    cosines = np.divide(dots, query_norms * object_norms,
                        out=np.zeros_like(dots), where=~zero)
    return cosines, lengths


def similarity_profile(params: PipelineParams, act: EncodedAct) -> np.ndarray:
    """Cosine similarity of a hand-made act's mapped query and candidates."""
    return chunk_cosines(params, EncodedSplit.of([act]))[0]


def protest_profiles(params: PipelineParams, split: EncodedSplit) -> tuple[np.ndarray, ...]:
    """(best similarity, gap between the top two, argmax) of every act of a
    split, as three arrays, :data:`~popref.pop_model.CHUNK` acts per matmul.

    The gap is inf for a single candidate, so the gap rule never fires
    there.  Ties in the argmax break toward the lowest index.
    """
    n = len(split)
    max_sims, gaps = np.empty(n), np.empty(n)
    best = np.empty(n, dtype=np.intp)
    for lo in range(0, n, CHUNK):
        cosines, lengths = chunk_cosines(params, split[lo:lo + CHUNK])
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
                           split: EncodedSplit) -> np.ndarray:
    """Each act's choice, from one :func:`protest_profiles` call: protest
    when the best similarity falls below ``min_similarity`` or, for two or
    more candidates, the top two differ by less than ``min_gap``; else point
    at the best candidate."""
    max_sims, gaps, best = protest_profiles(params, split)
    protest = _protests(max_sims, gaps, thresholds.min_similarity,
                        thresholds.min_gap)
    return np.where(protest, PROTEST, best)


def pipeline_predict(params: PipelineParams, thresholds: Thresholds,
                     act: EncodedAct) -> int:
    """:func:`pipeline_predict_batch` of one hand-made act."""
    return int(pipeline_predict_batch(params, thresholds, EncodedSplit.of([act]))[0])


def tune_thresholds(params: PipelineParams, val: EncodedSplit) -> Thresholds:
    """Grid-search both thresholds over :data:`MISS_GRID` x :data:`GAP_GRID`
    for maximum overall accuracy on ``val``.

    Ties resolve to the smaller thresholds (lexicographically, the
    minimum-similarity floor first): the grids are scanned in ascending
    order and only strictly better accuracy replaces the incumbent.
    """
    if not len(val):
        raise ConfigError("threshold tuning needs a nonempty validation set")
    max_sims, gaps, argmaxes = protest_profiles(params, val)
    # An act's two possible answers are scored once; a grid cell picks one.
    right, _ = val.gold_arrays
    right_if_point = scored(argmaxes, right)
    right_if_protest = scored(PROTEST, right)

    best = (-1, Thresholds(min_similarity=MISS_GRID[0], min_gap=GAP_GRID[0]))
    for theta_miss in MISS_GRID:
        for theta_gap in GAP_GRID:
            protest = _protests(max_sims, gaps, theta_miss, theta_gap)
            correct = np.count_nonzero(np.where(protest, right_if_protest,
                                                right_if_point))
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

    Each trial's one triple is resampled until the hinge is active with at
    least 1e-3 of slack, so the finite-difference probe never straddles the
    max(0, .) kink.
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
            act = EncodedAct(rng.normals(config.d_query), np.array(
                [rng.normals(config.d_cand), rng.normals(config.d_cand)]), Gold.point(0))
            trainable = PipelineTrainable(params, EncodedSplit.of([act]))
            if trainable.loss_and_grads(0)[0] > 1e-3:
                return trainable, ""
        return "could not activate the hinge"

    return gradcheck(sample, trials, tolerance, h)
