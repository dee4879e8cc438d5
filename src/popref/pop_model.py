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
variants.  A one-hot split holds each query as its columns, so the one-hot
variant maps a query by summing query-map columns, held contiguous by
:func:`laid_out`, and its query-map gradient is column-sparse.

One implementation runs the graph, batched and reassociated as
``sims = C @ (entity_map.T @ query_vec)`` so that no entity vector is formed:
:func:`chunk_logits` runs it over :data:`CHUNK` acts, :func:`forward` over
one act, and :func:`backward` follows it.  Training thus sums in another
order than a pass over entity vectors; the README's tolerance policy bounds
the difference.
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
    return np.heaviside(x, 0.0)


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


def laid_out(params: PopParams, encoding: str | None) -> PopParams:
    """``params``, with the query map of a ``one-hot`` model made
    column-major (the same values): every read and write of a one-hot
    model's query map is a whole column, and contiguous so.  A dense model
    keeps its row-major map, whose products sum in the order its bytes were
    pinned in."""
    if encoding == "one-hot":
        params.query_map = np.asfortranarray(params.query_map)
    return params


@dataclass
class ForwardTrace:
    """One act's logits, softmax and log-normaliser, and what :func:`backward` reads."""

    query_in: np.ndarray | None    # a dense query; None when query_cols holds it
    query_cols: np.ndarray | None  # a 0/1 query's k columns; None if dense
    candidates_in: np.ndarray  # n x d_cand
    query_vec: np.ndarray
    sims: np.ndarray
    pooled: np.ndarray         # (cumulative similarity, cardinality)
    sensor_pre: np.ndarray
    sensors: np.ndarray
    anomaly_raw: float
    logits: np.ndarray         # the n similarities, then the protest score
    probs: np.ndarray
    log_norm: float            # log of the softmax normaliser, logsumexp(logits)


# A non-finite act is reported as a NumericError, not as warnings.
@np.errstate(invalid="ignore", over="ignore")
def _graph(params: PopParams, query_vecs: np.ndarray, candidates: np.ndarray,
           offsets: np.ndarray, ids) -> tuple[np.ndarray, ...]:
    """The network from B mapped queries (rows of ``query_vecs``) to raw
    protest scores, act ``i`` against candidate rows
    ``offsets[i]:offsets[i + 1]``, with no entity vector formed: all
    similarities in order, then per act the pooled (cumulative similarity,
    cardinality) pair, sensor pre-activations and cells, and raw score, which
    the caller squashes.  A non-finite similarity or raw score is a
    :class:`NumericError` naming the act: a saturated squash would hide an
    infinite raw score, which backward turns into NaN updates.
    """
    cfg = params.config
    starts, lengths = offsets[:-1], offsets[1:] - offsets[:-1]
    contrast, _ = NONLINEARITIES[cfg.contrast]
    sims = np.einsum("nd,nd->n", candidates,
                     (query_vecs @ params.entity_map).repeat(lengths, axis=0))
    if cfg.use_bias:
        sims += (query_vecs @ params.entity_bias).repeat(lengths)

    pooled = np.empty((lengths.size, 2))
    pooled[:, 0] = np.add.reduceat(contrast(sims), starts)
    pooled[:, 1] = lengths
    sensor_pre = pooled @ params.sensor_in.T
    if cfg.use_bias:
        sensor_pre += params.sensor_in_bias
    sensors = contrast(sensor_pre) if cfg.sensor_nonlinearity else sensor_pre
    anomaly_raw = sensors @ params.sensor_out[0]
    if cfg.use_bias:
        anomaly_raw += params.sensor_out_bias[0]

    # count_nonzero is cheaper than .all() on a handful of values.
    if not (np.count_nonzero(np.isfinite(sims)) == sims.size
            and np.count_nonzero(np.isfinite(anomaly_raw)) == anomaly_raw.size):
        finite = np.logical_and.reduceat(np.isfinite(sims), starts) & np.isfinite(anomaly_raw)
        i = int(np.argmin(finite))
        what = (f"anomaly score {anomaly_raw[i]}" if not np.isfinite(anomaly_raw[i])
                else f"similarities {sims[starts[i]:offsets[i + 1]]}")
        raise NumericError(f"act {ids[i]!r}: non-finite {what}")
    return sims, pooled, sensor_pre, sensors, anomaly_raw


def _hot_queries(query_map: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The B mapped 0/1 queries whose ones are at ``cols`` (B x k): per act
    the sum of its k query-map columns, gathered as rows of ``query_map.T``
    (contiguous ones when the map is column-major, see :func:`laid_out`).
    Every product by an entry 1.0 is exact and a sum of one or two terms
    rounds the same in any order, so these are the bits of the dense
    product by the indicator, up to the sign of an exact zero."""
    rows = query_map.T
    out = rows[cols[:, 0]]
    for j in range(1, cols.shape[1]):
        out += rows[cols[:, j]]
    return out


def forward(params: PopParams, query_in: np.ndarray | None, candidates: np.ndarray,
            act_id: str = "<unnamed>", query_cols: np.ndarray | None = None) -> ForwardTrace:
    """Run the network over one act's query and n x d_cand candidates, of
    dimensions the caller checked: the graph :func:`chunk_logits` runs, over
    one act, then the squash of its raw score (as a float) and the softmax.
    The query is the dense ``query_in``, or, with ``query_in`` None, the 0/1
    query that is 1 at the k columns ``query_cols``, whose mapped vector
    is the sum of those k query-map columns (:func:`_hot_queries`)."""
    cfg = params.config
    if query_cols is None:
        query_vecs = (params.query_map @ query_in)[np.newaxis]
    else:
        query_vecs = _hot_queries(params.query_map, query_cols[np.newaxis])
    if cfg.use_bias:
        query_vecs += params.query_bias

    sims, pooled, sensor_pre, sensors, anomaly_raw = _graph(
        params, query_vecs, candidates, np.array([0, candidates.shape[0]]), [act_id])
    anomaly_raw = float(anomaly_raw[0])
    squash, _ = NONLINEARITIES[cfg.score_squash]
    logits = np.concatenate((sims, [squash(anomaly_raw)]))
    # Softmax and its log-normaliser from one max-shifted exp.
    top = logits.max()
    exps = np.exp(logits - top)
    total = exps.sum()
    return ForwardTrace(
        query_in=query_in,
        query_cols=query_cols,
        candidates_in=candidates,
        query_vec=query_vecs[0],
        sims=sims,
        pooled=pooled[0],
        sensor_pre=sensor_pre[0],
        sensors=sensors[0],
        anomaly_raw=anomaly_raw,
        logits=logits,
        probs=exps / total,
        log_norm=float(top) + math.log(float(total)),
    )


def loss(trace: ForwardTrace, target: int) -> float:
    """Negative log-likelihood of the gold cell (``EncodedSplit.gold_cells``)."""
    return trace.log_norm - float(trace.logits[target])


def backward(params: PopParams, trace: ForwardTrace, target: int) -> dict[str, np.ndarray]:
    """Exact gradient of :func:`loss` for every learned array.

    The query-map gradient is ``outer(dquery_vec, query_in)``.  When
    :func:`forward` was given a 0/1 query's columns it comes as a
    :class:`ColumnSparse` over them, whose k columns are copies of
    ``dquery_vec`` (each times a 1.0 entry: the same bits, held column-major
    so each column is contiguous); every other gradient is a dense array.

    The chain runs softmax -> logits, then splits: the protest logit descends
    through the score squash, the sensor combiner, the sensor bank, and the
    pooled pair into the sharpened profile, while the pointing logits reach
    the similarity profile directly.  Both contributions are summed at the
    profile, which reaches the maps through ``u = C.T @ dsims``: the
    entity-map gradient is ``outer(query_vec, u)``, ``dquery_vec`` is
    ``entity_map @ u``.
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
    d_sensor_in = outer(dsensor_pre, trace.pooled)
    dcum_sim = float(dsensor_pre @ params.sensor_in[:, 0])
    dsims_via_anomaly = dcum_sim * dcontrast(trace.sims)

    # Both paths meet at the similarity profile.
    dsims = dlogits[:n] + dsims_via_anomaly

    u = trace.candidates_in.T @ dsims
    dquery_vec = params.entity_map @ u
    if cfg.use_bias:
        dsims_sum = float(dsims.sum())
        dquery_vec += dsims_sum * params.entity_bias

    cols = trace.query_cols
    if cols is None:
        dquery_map = outer(dquery_vec, trace.query_in)
    else:
        dquery_map = ColumnSparse(cols, np.repeat(dquery_vec[np.newaxis], cols.size,
                                                  axis=0).T, cfg.d_query)

    grads = {
        "entity_map": outer(trace.query_vec, u),
        "query_map": dquery_map,
        "sensor_in": d_sensor_in,
        "sensor_out": d_sensor_out,
    }
    if cfg.use_bias:
        grads["entity_bias"] = dsims_sum * trace.query_vec
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
    lengths) of a chunk, a slice of a split: the mapped queries (the dense
    query matmul, or on a one-hot split the gathered query-map columns,
    :func:`_hot_queries`), the graph :func:`forward` runs over one act, and
    the squash."""
    cfg = params.config
    chunk.require_dims(cfg.d_query, cfg.d_cand)
    with np.errstate(invalid="ignore", over="ignore"):
        if chunk.query_cols is None:
            query_vecs = chunk.queries @ params.query_map.T
        else:
            query_vecs = _hot_queries(params.query_map, chunk.query_cols)
        if cfg.use_bias:
            query_vecs += params.query_bias
    sims, *_, anomaly_raw = _graph(params, query_vecs, chunk.candidates, chunk.offsets,
                                   chunk.ids)
    squash, _ = NONLINEARITIES[cfg.score_squash]
    return sims, squash(anomaly_raw), np.diff(chunk.offsets)


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
    gold cell is checked here, once (see ``EncodedSplit.gold_cells``).  The
    split's form fixes the query path: on a one-hot split (``query_cols``)
    each act's columns go to :func:`forward` and its query-map gradient is a
    :class:`ColumnSparse` (``column_sparse`` names ``query_map``); a dense
    split is dense on every act, 0/1 rows included."""

    def __init__(self, params: PopParams, split: EncodedSplit):
        super().__init__(params, split)
        self._targets = split.gold_cells.tolist()
        self._offsets = split.offsets.tolist()
        if split.query_cols is not None:
            self.column_sparse = frozenset({"query_map"})

    def __len__(self) -> int:
        return len(self.split)

    def loss_and_grads(self, i: int) -> tuple[float, dict[str, np.ndarray]]:
        split, target = self.split, self._targets[i]
        candidates = np.take(split.table, split.rows[self._offsets[i]:self._offsets[i + 1]],
                             axis=0)
        if split.query_cols is None:
            trace = forward(self.params, split.queries[i], candidates, split.ids[i])
        else:
            trace = forward(self.params, None, candidates, split.ids[i], split.query_cols[i])
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
    one-hot and two-hot queries, so 48 trials cover every combination.  A
    one- or two-hot trial's split holds its query as columns, so it checks
    the column path (gathered columns, :class:`ColumnSparse` gradient).  Inputs
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
                split = EncodedSplit.of([act], one_hot=query_kind != "dense")
                return PopTrainable(params, split), (
                    f" (n={n}, gold={gold.kind}/{gold.anomaly_kind or gold.index}, "
                    f"bias={config.use_bias}, {contrast}/{squash}, "
                    f"{query_kind} query)"
                )
        return "could not avoid a relu kink"

    return gradcheck(sample, trials, tolerance, h)
