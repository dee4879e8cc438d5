"""One-hot queries held as columns, against the float rows they replaced.

A one-hot split holds act ``i``'s query as its k columns (``query_cols[i]``),
not as a 0/1 row of ``d_query`` floats.  The float rows are what the
encoder built before: ``np.eye`` rows gathered block by block, kept verbatim
below as the reference.  The model maps such a query by gathering and
summing k query-map columns, where the rows were multiplied through the
map.  With 0/1 entries every product is exact, and a sum of one or two
nonzero terms rounds the same in any order, so the two agree bit for bit on
finite weights.  The one difference allowed is the sign of an exact zero:
a gathered column entry keeps a -0.0, which a product sum may turn into
+0.0.
"""

import dataclasses
from functools import partial
from itertools import repeat

import numpy as np
import pytest

from popref.checkpoint import load_checkpoint, restore_pop, save_checkpoint
from popref.datagen import DatasetSpec, generate_splits
from popref.embeddings import EncodedSplit, encode_split
from popref.errors import ContractViolation, EncodingError, ValidationError
from popref.harness import (
    DEFAULT_EPOCHS,
    build_inputs,
    build_model,
    build_train_config,
    fit,
)
from popref.numerics import Rng, derive_seed
from popref.pop_model import (
    PopConfig,
    PopTrainable,
    _hot_queries,
    chunk_logits,
    init_params,
    laid_out,
    predict_batch,
)
from popref.training import train


# The indicator lookup and gather as the one-hot encoder ran them, verbatim
# but for their names and the owner helper inlined.
def parent_lookup(ids: list[str], allow_unknown: bool, normalize: bool, table,
                  tokens: list, owners: np.ndarray, kind: str,
                  indicator: bool) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, rows) with token ``k``'s vector (from ``table``, or its
    indicator) in ``vectors[rows[k]]``; a dense unknown token may be zero."""
    def _owner(owners, k):
        return int(np.searchsorted(owners, k, side="right")) - 1

    rows = np.fromiter(map(table.index.get, tokens, repeat(-1)), dtype=np.intp,
                       count=len(tokens))
    vecs = np.eye(len(table.index)) if indicator else table.vecs
    if (rows < 0).any():
        if indicator or not allow_unknown:
            k = int(np.argmax(rows < 0))
            raise EncodingError(
                f"act {ids[_owner(owners, k)]!r}: unknown {kind} {tokens[k]!r}")
        vecs = np.vstack([vecs, np.zeros((1, vecs.shape[1]))])  # row -1
    if normalize and not indicator:  # each row over its own norm
        vecs = vecs.copy()
        with np.errstate(invalid="ignore"):  # a non-finite row stays so
            for row in vecs:
                norm = float(np.linalg.norm(row))
                if norm != 0.0:
                    row /= norm
    nonfinite = ~np.isfinite(vecs).all(axis=1)[rows]
    if nonfinite.any():
        k = int(np.argmax(nonfinite))
        raise ValidationError(f"act {ids[_owner(owners, k)]!r}: non-finite "
                              f"vector for {kind} {tokens[k]!r}")
    return vecs, rows


def parent_gathered(blocks: list, n: int) -> np.ndarray:
    """Row ``k`` of every (vectors, rows) block, side by side, in place."""
    out = np.empty((n, sum(vecs.shape[1] for vecs, _ in blocks)))
    col = 0
    for vecs, rows in blocks:
        np.take(vecs, rows, axis=0, out=out[:, col:col + vecs.shape[1]], mode="wrap")
        col += vecs.shape[1]
    return out


def parent_one_hot_queries(world, acts) -> np.ndarray:
    """The B x d_query float queries of a one-hot split, as the encoder
    built them: the noun's indicator, then the attribute's."""
    ids = [act.id for act in acts]
    per_act = np.arange(len(acts) + 1)
    lookup = partial(parent_lookup, ids, False, False)
    queries = [lookup(world.word_vecs, [act.query.noun for act in acts], per_act,
                      "object noun", True)]
    if acts[0].query.attribute is not None:
        queries.append(lookup(world.attr_vecs, [act.query.attribute for act in acts],
                              per_act, "attribute", True))
    return parent_gathered(queries, len(acts))


def _acts(world, task, n, seed=3):
    return generate_splits(world, DatasetSpec(n_train=n, n_val=0, n_test=0, seed=seed),
                           task)["train"]


def _densified(split: EncodedSplit) -> np.ndarray:
    out = np.zeros((len(split), split.d_query))
    out[np.arange(len(split))[:, np.newaxis], split.query_cols] = 1.0
    return out


def _same_but_zero_sign(got: np.ndarray, want: np.ndarray) -> None:
    """Equal values, and equal bytes everywhere but at exact zeros."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


@pytest.mark.parametrize("task, k", [("object-only", 1), ("object-attr", 2)])
@pytest.mark.parametrize("normalize_blocks", [False, True])
def test_query_columns_are_the_float_rows(small_world, task, k, normalize_blocks):
    acts = _acts(small_world, task, 50)
    split = encode_split(small_world, acts, "one-hot", normalize_blocks)
    rows = parent_one_hot_queries(small_world, acts)
    assert split.queries is None
    assert split.query_cols.shape == (len(acts), k)
    assert split.query_cols.dtype == np.intp
    assert split.d_query == rows.shape[1]
    assert np.all(np.diff(split.query_cols, axis=1) > 0)  # sorted, unique
    assert _densified(split).tobytes() == rows.tobytes()
    for i in range(len(split)):
        assert split[i].query_vec.tobytes() == rows[i].tobytes()

    part = split[7:31]
    assert part.queries is None
    assert np.shares_memory(part.query_cols, split.query_cols)
    assert part.query_cols.tolist() == split.query_cols[7:31].tolist()
    assert part.d_query == split.d_query
    assert part[3].query_vec.tobytes() == rows[10].tobytes()
    assert split[5:5].query_cols.shape == (0, k)
    # A model of other dimensions is told which act it cannot read.
    with pytest.raises(ContractViolation, match=f"act {acts[7].id!r}"):
        part.require_dims(split.d_query + 1, split.d_cand)


def test_hand_made_hot_split_holds_columns_and_refuses_other_queries(small_world):
    acts = list(encode_split(small_world, _acts(small_world, "object-attr", 6), "one-hot"))
    split = EncodedSplit.of(acts, one_hot=True)
    assert split.query_cols.tolist() == [np.flatnonzero(a.query_vec).tolist()
                                         for a in acts]
    assert EncodedSplit.of(acts).query_cols is None
    for i, scale in ((0, 2.0), (3, 0.0)):  # not 0/1; one 1 short
        bad = list(acts)
        query = bad[i].query_vec.copy()
        query[np.flatnonzero(query)[0]] = scale
        bad[i] = dataclasses.replace(bad[i], query_vec=query)
        with pytest.raises(ContractViolation, match=f"act {acts[i].act_id!r}"):
            EncodedSplit.of(bad, one_hot=True)


def _signed_zero_params(config: PopConfig, rng: np.random.Generator, use_bias: bool):
    """Random params whose query map holds +0.0 and -0.0 entries, and whole
    columns of each, so that some mapped queries are exact zeros."""
    params = init_params(dataclasses.replace(config, use_bias=use_bias),
                         Rng(int(rng.integers(1 << 31))))
    qmap = params.query_map
    qmap[rng.random(qmap.shape) < 0.2] = 0.0
    qmap[rng.random(qmap.shape) < 0.2] = -0.0
    cols = rng.permutation(qmap.shape[1])
    qmap[:, cols[:2]] = 0.0
    qmap[:, cols[2:4]] = -0.0
    if use_bias:
        params.query_bias[:] = rng.normal(size=params.query_bias.shape)
        params.query_bias[rng.random(params.query_bias.shape) < 0.3] = -0.0
    return params


@pytest.mark.parametrize("task", ["object-only", "object-attr"])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
def test_gathered_columns_give_the_bits_of_the_row_product(small_world, task, use_bias,
                                                           order):
    acts = _acts(small_world, task, 300)
    split = encode_split(small_world, acts, "one-hot")
    rows = parent_one_hot_queries(small_world, acts)
    dense = EncodedSplit(rows, split.table, split.rows, split.offsets, split.golds,
                         split.ids)
    config = PopConfig(d_query=split.d_query, d_cand=split.d_cand, d_ent=16, n_sensors=5)
    rng = np.random.default_rng(41)
    for _ in range(4):
        params = _signed_zero_params(config, rng, use_bias)
        params.query_map = np.asarray(params.query_map, order=order)
        _same_but_zero_sign(_hot_queries(params.query_map, split.query_cols),
                            rows @ params.query_map.T)
        lo = 0
        while lo < len(split):
            hi = lo + int(rng.integers(1, 141))
            got, want = chunk_logits(params, split[lo:hi]), chunk_logits(params, dense[lo:hi])
            for a, b in zip(got, want):
                _same_but_zero_sign(a, b)
            lo = hi
        assert predict_batch(params, split).tolist() == predict_batch(params, dense).tolist()


@pytest.mark.parametrize("task", ["object-only", "object-attr"])
def test_one_hot_query_map_stays_column_major_and_layout_keeps_bits(small_world, task,
                                                                    tmp_path):
    """``fit`` holds a one-hot model's query map column-major, and training,
    ``Params.copy`` and a checkpoint restore keep it so; a dense model's map
    stays row-major.  A row-major one-hot map trains to the same bytes, as
    layout only changes speed."""
    manifest = {"train.epochs": "2", "model.d_ent": "16", "model.n_sensors": "5"}
    inputs = build_inputs(manifest, "trpop", task)
    split = encode_split(small_world, _acts(small_world, task, 60), inputs.encoding)
    config = build_model(manifest, "trpop", split.d_query, split.d_cand)
    init = laid_out(init_params(config, Rng(derive_seed(0, "init", "trpop"))),
                    inputs.encoding)
    assert init.query_map.flags.f_contiguous and not init.query_map.flags.c_contiguous

    fitted = fit(manifest, "trpop", config, split, inputs)
    params = fitted.params
    assert params.query_map.flags.f_contiguous and not params.query_map.flags.c_contiguous
    assert params.query_map.tobytes("A") != init.query_map.tobytes("A")  # it trained
    copied = params.copy()
    assert copied.query_map.flags.f_contiguous
    path = tmp_path / "checkpoint.json"
    save_checkpoint(fitted.record(), path)
    restored = restore_pop(load_checkpoint(path))
    assert restored.query_map.flags.f_contiguous
    for other in (copied, restored):
        for name, arr in params.named_arrays().items():
            assert other.named_arrays()[name].tobytes() == arr.tobytes(), name

    row_major = init_params(config, Rng(derive_seed(0, "init", "trpop")))
    assert row_major.query_map.flags.c_contiguous
    log = train(PopTrainable(row_major, split), build_train_config(
        manifest, DEFAULT_EPOCHS["trpop"]))
    assert row_major.query_map.flags.c_contiguous
    assert log.epoch_losses == fitted.log.epoch_losses
    for name, arr in params.named_arrays().items():
        assert row_major.named_arrays()[name].tobytes() == arr.tobytes(), name

    dense = laid_out(init_params(dataclasses.replace(config, d_query=4), Rng(1)), "dense")
    assert dense.query_map.flags.c_contiguous and dense.copy().query_map.flags.c_contiguous
