"""The pointing network: score candidates against a query, or protest.

Architecture, per forward pass over one act's query and its n candidates:

* a shared entity map turns every candidate vector into an entity vector;
* a separate query map turns the query into the same space;
* the similarity profile is the dot product of the query vector with each
  entity vector — its raw entries become the n pointing logits;
* an anomaly pathway sharpens the profile (contrast nonlinearity), sums it,
  concatenates the candidate count, feeds the pair through a bank of sensor
  cells, combines the cells into one score, and squashes it into (0, 1) —
  that score becomes logit n + 1;
* softmax over the n + 1 logits yields the output distribution: argmax < n
  points at a candidate, argmax = n protests.

Because the entity map is shared and the anomaly pathway pools by summing,
permuting the candidates permutes the pointing probabilities identically and
leaves the protest probability unchanged, and one parameter set evaluates
sequences of any length.

Gradients are hand-derived (no autodiff).  The similarity profile feeds BOTH
the output logits and the anomaly pathway, so its gradient sums two paths;
:func:`gradcheck_pop` verifies every parameter against central finite
differences.

The same graph serves the dense-input and one-hot-input (tabula rasa) model
variants; they differ only in how acts are encoded upstream.

Inference needs only the similarity profile and the protest score, not the
entity vectors, so :func:`predict_batch` reassociates the similarities as
``C @ (entity_map.T @ query_vec)`` and scores :data:`CHUNK` acts per call.
Its logits agree with :func:`forward`'s to rounding; training keeps the
per-act :func:`forward`, whose trace backprop needs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .datagen import PROTEST, Gold
from .embeddings import EncodedAct, EncodedSplit
from .errors import ConfigError, NumericError
from .numerics import Rng, outer
from .training import ColumnSparse, GradcheckReport, Params, Trainable, gradcheck


def _relu(x):
    return np.maximum(x, 0.0)


def _drelu(x):
    # Subgradient 0 at the kink; gradcheck resamples away from it.
    return (np.asarray(x) > 0.0).astype(np.float64)


def _sigmoid(x):
    if isinstance(x, float):
        # The anomaly score: the same ufunc as below, without the masks.
        if x >= 0:
            return float(1.0 / (1.0 + np.exp(-x)))
        ex = np.exp(x)
        return float(ex / (1.0 + ex))
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if arr.ndim else float(out)


def _dsigmoid(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


def _identity(x):
    return np.asarray(x, dtype=np.float64)


def _didentity(x):
    return np.ones_like(np.asarray(x, dtype=np.float64))


def _tanh(x):
    return np.tanh(x)


def _dtanh(x):
    t = np.tanh(x)
    return 1.0 - t * t


# name -> (function, derivative-as-a-function-of-the-INPUT)
NONLINEARITIES = {
    "relu": (_relu, _drelu),
    "sigmoid": (_sigmoid, _dsigmoid),
    "identity": (_identity, _didentity),
    "tanh": (_tanh, _dtanh),
}


@dataclass(frozen=True)
class PopConfig:
    """Dimensions and switches of the pointing network.

    ``contrast`` names the profile-sharpening nonlinearity on the anomaly
    pathway, ``score_squash`` the one bounding the anomaly score.  The sensor
    cells apply the contrast nonlinearity too when ``sensor_nonlinearity`` is
    on (default), which is what lets multiple sensors express non-linear
    patterns in (cumulative similarity, cardinality) space; turn it off to
    ablate down to a purely linear sensor bank.  Biases are off by default —
    every map is then a plain linear transformation.
    """

    d_query: int
    d_cand: int
    d_ent: int = 300
    n_sensors: int = 100
    contrast: str = "relu"
    score_squash: str = "sigmoid"
    sensor_nonlinearity: bool = True
    use_bias: bool = False

    def validate(self) -> None:
        for name, dim in (("d_query", self.d_query), ("d_cand", self.d_cand),
                          ("d_ent", self.d_ent), ("n_sensors", self.n_sensors)):
            if dim < 1:
                raise ConfigError(f"{name} must be >= 1, got {dim}")
        for name, value in (("contrast", self.contrast),
                            ("score_squash", self.score_squash)):
            if value not in NONLINEARITIES:
                raise ConfigError(
                    f"unknown {name} nonlinearity {value!r}; "
                    f"expected one of {sorted(NONLINEARITIES)}"
                )


@dataclass
class PopParams(Params):
    """The learned arrays; :meth:`shapes` declares them.  Biases are None
    unless ``config.use_bias``."""

    config: PopConfig
    entity_map: np.ndarray
    query_map: np.ndarray
    sensor_in: np.ndarray
    sensor_out: np.ndarray
    entity_bias: np.ndarray | None = None
    query_bias: np.ndarray | None = None
    sensor_in_bias: np.ndarray | None = None
    sensor_out_bias: np.ndarray | None = None

    @staticmethod
    def shapes(config: PopConfig) -> dict[str, tuple[int, ...]]:
        """entity_map is shared across candidates; sensor_in acts on
        [cumulative similarity, cardinality]; each bias matches its map's
        output dimension."""
        shapes = {
            "entity_map": (config.d_ent, config.d_cand),
            "query_map": (config.d_ent, config.d_query),
            "sensor_in": (config.n_sensors, 2),
            "sensor_out": (1, config.n_sensors),
        }
        if config.use_bias:
            shapes["entity_bias"] = (config.d_ent,)
            shapes["query_bias"] = (config.d_ent,)
            shapes["sensor_in_bias"] = (config.n_sensors,)
            shapes["sensor_out_bias"] = (1,)
        return shapes


def init_params(config: PopConfig, rng: Rng) -> PopParams:
    """Glorot-uniform matrices, zero biases (see :meth:`Params.init`)."""
    return PopParams.init(config, rng)


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass, cached for exact backprop."""

    query_in: np.ndarray
    query_cols: np.ndarray     # indices of the query's nonzero entries
    candidates_in: np.ndarray  # n x d_cand
    entity_vecs: np.ndarray    # n x d_ent
    query_vec: np.ndarray
    sims: np.ndarray
    sharpened: np.ndarray
    cum_sim: float
    cardinality: float
    sensor_pre: np.ndarray
    sensors: np.ndarray
    anomaly_raw: float
    anomaly_score: float
    logits: np.ndarray
    probs: np.ndarray
    log_norm: float            # log of the softmax normaliser, logsumexp(logits)


def forward(params: PopParams, query_in: np.ndarray, candidates: np.ndarray,
            act_id: str = "<unnamed>") -> ForwardTrace:
    """Run the network over one act's query and n x d_cand candidates, of
    dimensions the caller checked; returns the full trace."""
    cfg = params.config
    n = candidates.shape[0]

    entity_vecs = candidates @ params.entity_map.T
    # A one-hot (or few-hot) query reads only its nonzero columns of the
    # query map.  With 0/1 entries, as the one-hot encoding makes, every
    # product is exact and the sum is bit-identical to the dense one.
    query_cols = np.flatnonzero(query_in)
    if query_cols.size < query_in.size:
        query_vec = params.query_map[:, query_cols] @ query_in[query_cols]
    else:
        query_vec = params.query_map @ query_in
    if cfg.use_bias:
        entity_vecs = entity_vecs + params.entity_bias
        query_vec = query_vec + params.query_bias

    sims = entity_vecs @ query_vec

    contrast, _ = NONLINEARITIES[cfg.contrast]
    squash, _ = NONLINEARITIES[cfg.score_squash]

    sharpened = contrast(sims)
    cum_sim = float(sharpened.sum())
    cardinality = float(n)
    pooled = np.array([cum_sim, cardinality])

    sensor_pre = params.sensor_in @ pooled
    if cfg.use_bias:
        sensor_pre = sensor_pre + params.sensor_in_bias
    sensors = contrast(sensor_pre) if cfg.sensor_nonlinearity else sensor_pre.copy()

    anomaly_raw = float((params.sensor_out @ sensors)[0])
    if cfg.use_bias:
        anomaly_raw += float(params.sensor_out_bias[0])
    anomaly_score = float(squash(anomaly_raw))

    # A saturated squash can hide a non-finite raw score, which backward
    # would turn into NaN updates.
    if not math.isfinite(anomaly_raw):
        raise NumericError(f"act {act_id!r}: non-finite anomaly score {anomaly_raw}")
    logits = np.concatenate([sims, [anomaly_score]])
    if not np.isfinite(logits).all():
        raise NumericError(f"act {act_id!r}: non-finite logits {logits}")
    # Softmax and its log-normaliser from one max-shifted exp.
    top = logits.max()
    exps = np.exp(logits - top)
    total = exps.sum()
    return ForwardTrace(
        query_in=query_in,
        query_cols=query_cols,
        candidates_in=candidates,
        entity_vecs=entity_vecs,
        query_vec=query_vec,
        sims=sims,
        sharpened=sharpened,
        cum_sim=cum_sim,
        cardinality=cardinality,
        sensor_pre=sensor_pre,
        sensors=sensors,
        anomaly_raw=anomaly_raw,
        anomaly_score=anomaly_score,
        logits=logits,
        probs=exps / total,
        log_norm=float(top) + math.log(float(total)),
    )


def loss(trace: ForwardTrace, target: int) -> float:
    """Negative log-likelihood of the gold cell (``EncodedSplit.gold_cells``)."""
    return trace.log_norm - float(trace.logits[target])


def backward(params: PopParams, trace: ForwardTrace, target: int) -> dict[str, np.ndarray]:
    """Exact gradient of :func:`loss` for every learned array.

    The query-map gradient is ``outer(dquery_vec, query_in)``.  When the
    query has zero entries it comes as a :class:`ColumnSparse` over the
    query's nonzero columns; every other gradient is a dense array.

    The chain runs softmax -> logits, then splits: the protest logit descends
    through the score squash, the sensor combiner, the sensor bank, and the
    pooled pair into the sharpened profile, while the pointing logits reach
    the similarity profile directly.  Both contributions are summed at the
    profile before flowing into the entity and query maps.
    """
    cfg = params.config
    n = trace.sims.shape[0]

    _, dcontrast = NONLINEARITIES[cfg.contrast]
    _, dsquash = NONLINEARITIES[cfg.score_squash]

    dlogits = trace.probs.copy()
    dlogits[target] -= 1.0

    # Anomaly pathway.
    danomaly_score = float(dlogits[n])
    danomaly_raw = danomaly_score * float(dsquash(trace.anomaly_raw))
    d_sensor_out = danomaly_raw * trace.sensors[np.newaxis, :]
    dsensors = danomaly_raw * params.sensor_out[0]
    if cfg.sensor_nonlinearity:
        dsensor_pre = dsensors * dcontrast(trace.sensor_pre)
    else:
        dsensor_pre = dsensors
    pooled = np.array([trace.cum_sim, trace.cardinality])
    d_sensor_in = outer(dsensor_pre, pooled)
    dcum_sim = float(dsensor_pre @ params.sensor_in[:, 0])
    dsims_via_anomaly = dcum_sim * dcontrast(trace.sims)

    # Both paths meet at the similarity profile.
    dsims = dlogits[:n] + dsims_via_anomaly

    dquery_vec = trace.entity_vecs.T @ dsims
    dentity_vecs = outer(dsims, trace.query_vec)

    # A one-hot (or few-hot) query touches only its nonzero columns of the
    # query map; hand the trainer just those.
    query_in = trace.query_in
    cols = trace.query_cols
    if cols.size < query_in.size:
        dquery_map = ColumnSparse(cols, outer(dquery_vec, query_in[cols]),
                                  query_in.size)
    else:
        dquery_map = outer(dquery_vec, query_in)

    grads = {
        "entity_map": dentity_vecs.T @ trace.candidates_in,
        "query_map": dquery_map,
        "sensor_in": d_sensor_in,
        "sensor_out": d_sensor_out,
    }
    if cfg.use_bias:
        grads["entity_bias"] = dentity_vecs.sum(axis=0)
        grads["query_bias"] = dquery_vec
        grads["sensor_in_bias"] = dsensor_pre
        grads["sensor_out_bias"] = np.array([danomaly_raw])
    return grads


# Acts per batched inference call, a slice of the split: enough that the
# matmuls outweigh the per-chunk Python, few enough that a chunk's
# temporaries (about 0.5 MB) stay below glibc's trim threshold.  At 128 the
# pop-objonly evaluate page-faulted its temporaries afresh on every chunk.
CHUNK = 64


def padded(values: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Per-act ``values`` (all acts' in order) as rows of a B x ``width``
    array, -inf past each act's length."""
    rows = np.full((lengths.size, width), -np.inf)
    rows[np.arange(width) < lengths[:, np.newaxis]] = values
    return rows


def chunk_logits(params: PopParams, chunk: EncodedSplit) -> tuple[np.ndarray, ...]:
    """(similarities of all candidates in order, protest score per act,
    lengths) of a chunk, a slice of a split, as :func:`forward` computes them
    but reassociated: ``sims = C @ (entity_map.T @ query_vec)``, so no entity
    vector is formed.  Agrees with :func:`forward`'s logits to rounding."""
    cfg = params.config
    chunk.require_dims(cfg.d_query, cfg.d_cand)
    queries, candidates, lengths = chunk.queries, chunk.candidates, np.diff(chunk.offsets)
    rows = np.repeat(np.arange(len(chunk)), lengths)
    contrast, _ = NONLINEARITIES[cfg.contrast]
    squash, _ = NONLINEARITIES[cfg.score_squash]
    starts = chunk.offsets[:-1]
    # A non-finite act is reported below as a NumericError, not as warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        query_vecs = queries @ params.query_map.T
        if cfg.use_bias:
            query_vecs += params.query_bias
        sims = np.einsum("nd,nd->n", candidates,
                         (query_vecs @ params.entity_map)[rows])
        if cfg.use_bias:
            sims += (query_vecs @ params.entity_bias)[rows]

        pooled = np.column_stack([np.add.reduceat(contrast(sims), starts), lengths])
        sensor_pre = pooled @ params.sensor_in.T
        if cfg.use_bias:
            sensor_pre += params.sensor_in_bias
        sensors = contrast(sensor_pre) if cfg.sensor_nonlinearity else sensor_pre
        anomaly_raw = sensors @ params.sensor_out[0]
        if cfg.use_bias:
            anomaly_raw += params.sensor_out_bias[0]
        scores = squash(anomaly_raw)

    finite = np.logical_and.reduceat(np.isfinite(sims), starts) & np.isfinite(scores)
    if not finite.all():
        i = int(np.argmin(finite))
        logits = np.append(sims[starts[i]:starts[i] + lengths[i]], scores[i])
        raise NumericError(f"act {chunk.ids[i]!r}: non-finite logits {logits}")
    return sims, scores, lengths


def predict_batch(params: PopParams, split: EncodedSplit) -> np.ndarray:
    """The answer to every act of a split, :data:`CHUNK` acts per call of
    :func:`chunk_logits`: an int array of choices, each the index of the
    candidate it points at or :data:`~popref.datagen.PROTEST`.

    Protest iff the score exceeds every similarity, which is the argmax of
    the output distribution landing on the last cell; otherwise point at the
    first maximal similarity.
    """
    choices = np.empty(len(split), dtype=np.intp)
    for lo in range(0, len(split), CHUNK):
        sims, scores, lengths = chunk_logits(params, split[lo:lo + CHUNK])
        rows = padded(sims, lengths, int(lengths.max()))
        best = rows.argmax(axis=1)  # argmax returns the first maximum
        protest = scores > rows[np.arange(lengths.size), best]
        choices[lo:lo + lengths.size] = np.where(protest, PROTEST, best)
    return choices


def predict(params: PopParams, act: EncodedAct) -> int:
    """:func:`predict_batch` of one hand-made act."""
    return int(predict_batch(params, EncodedSplit.of([act]))[0])


class PopTrainable(Trainable):
    """The network over an encoded split: example ``i`` is act ``i``, whose
    gold cell is checked here, once (see ``EncodedSplit.gold_cells``)."""

    def __init__(self, params: PopParams, split: EncodedSplit):
        super().__init__(params, split)
        self._targets = split.gold_cells.tolist()
        self._offsets = split.offsets.tolist()

    def __len__(self) -> int:
        return len(self.split)

    def loss_and_grads(self, i: int) -> tuple[float, dict[str, np.ndarray]]:
        split, target = self.split, self._targets[i]
        candidates = np.take(split.table, split.rows[self._offsets[i]:self._offsets[i + 1]],
                             axis=0)
        trace = forward(self.params, split.queries[i], candidates, split.ids[i])
        return loss(trace, target), backward(self.params, trace, target)


# Every (contrast, score_squash) pair, and the query encodings trials cycle.
_NONLINEARITY_PAIRS = [(c, q) for c in NONLINEARITIES for q in NONLINEARITIES]
_QUERY_KINDS = ("dense", "one-hot", "two-hot")


def _random_act(rng: Rng, d_query: int, d_cand: int, n: int, gold: Gold,
                query_kind: str) -> EncodedAct:
    if query_kind == "dense":
        query = rng.normals(d_query)
    else:
        query = np.zeros(d_query)
        query[rng.sample(range(d_query), 1 if query_kind == "one-hot" else 2)] = 1.0
    return EncodedAct(
        query_vec=query,
        candidates=np.array([rng.normals(d_cand) for _ in range(n)]),
        gold=gold,
        act_id="gradcheck",
    )


def gradcheck_pop(
    trials: int = 20,
    seed: int = 20260815,
    tolerance: float = 1e-4,
    h: float = 1e-5,
) -> GradcheckReport:
    """Compare hand-derived gradients to central finite differences.

    Each trial draws a small random configuration (lengths 2-5, cycling gold
    through point / missing-referent / multiple-referent, toggling biases and
    the sensor nonlinearity) and checks every parameter coordinate.  Trials
    cycle through all 16 (contrast, score_squash) pairs and through dense,
    one-hot and two-hot queries, so 48 trials cover every combination and
    the one-hot trials check the column-sparse query-map gradient.  Inputs
    are resampled while any relu input sits within 1e-3 of zero, since
    finite differences straddle the kink there.
    """
    rng = Rng(seed)
    golds = [Gold.point(0), Gold.miss(), Gold.mult(), Gold.point(1)]

    def sample(trial: int):
        contrast, squash = _NONLINEARITY_PAIRS[trial % len(_NONLINEARITY_PAIRS)]
        query_kind = _QUERY_KINDS[trial % len(_QUERY_KINDS)]
        n = 2 + rng.randrange(4)
        config = PopConfig(
            d_query=3 + rng.randrange(3),
            d_cand=2 + rng.randrange(3),
            d_ent=3 + rng.randrange(3),
            n_sensors=2 + rng.randrange(3),
            contrast=contrast,
            score_squash=squash,
            sensor_nonlinearity=bool(rng.randrange(2)),
            use_bias=bool(rng.randrange(2)),
        )
        gold = golds[trial % len(golds)]
        if gold.kind == "point" and gold.index >= n:
            gold = Gold.point(n - 1)

        for _ in range(100):
            params = init_params(config, rng.fork())
            act = _random_act(rng, config.d_query, config.d_cand, n, gold,
                              query_kind)
            trace = forward(params, act.query_vec, act.candidates)
            margin = np.inf
            if contrast == "relu":
                margin = float(np.min(np.abs(trace.sims)))
                if config.sensor_nonlinearity:
                    margin = min(margin, float(np.min(np.abs(trace.sensor_pre))))
            if squash == "relu":
                margin = min(margin, abs(trace.anomaly_raw))
            if margin > 1e-3:
                return PopTrainable(params, EncodedSplit.of([act])), (
                    f" (n={n}, gold={gold.kind}/{gold.anomaly_kind or gold.index}, "
                    f"bias={config.use_bias}, {contrast}/{squash}, "
                    f"{query_kind} query)"
                )
        return "could not avoid a relu kink"

    return gradcheck(sample, trials, tolerance, h)
