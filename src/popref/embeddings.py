"""Input vector spaces for reference-resolution experiments.

Provides a seeded synthetic "embedding world" (class centroids with Gaussian
image noise, a fixed cross-modal linear map into word space, random attribute
vectors, and a sampled object-attribute compatibility relation), split
encoding into arrays (dense, or one-hot for the tabula-rasa variant), the
image-shuffling control transform, and :class:`Inputs`, the record of which
world a run's acts are looked up in and how they are encoded.

Worlds and tables are immutable after construction and safe for shared
concurrent reads.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from .datagen import check_task, gold_arrays
from .errors import ConfigError, ContractViolation, EncodingError, ValidationError
from .numerics import Rng, derive_seed, require_finite


@dataclass(frozen=True, eq=False)
class Table:
    """One vocabulary's vectors: ``token``'s is row ``index[token]`` of
    ``vecs``, and the row order is the one-hot order."""

    vecs: np.ndarray
    index: dict[str, int]

    @staticmethod
    def of(tokens: list[str], vecs: np.ndarray) -> "Table":
        """``tokens`` and their vectors, row ``i`` of ``vecs`` for token ``i``."""
        return Table(vecs, {token: row for row, token in enumerate(tokens)})

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __getitem__(self, token: str) -> np.ndarray:
        try:
            return self.vecs[self.index[token]]
        except KeyError:
            raise EncodingError(f"unknown token {token!r}") from None


@dataclass(frozen=True)
class WorldConfig:
    """Shape and noise parameters of a synthetic embedding world.

    The defaults give a desk-scale world: 200 object classes with 10 images
    each, 100 attributes, 64-dimensional visual vectors, and 32-dimensional
    word vectors.  Real-scale dimensionalities are configuration values, not
    requirements.
    """

    n_classes: int = 200
    images_per_class: int = 10
    n_attributes: int = 100
    d_img: int = 64
    d_word: int = 32
    sigma: float = 0.1
    sigma_word: float = 0.2
    attrs_per_object: int = 6

    def validate(self) -> None:
        if self.n_classes < 2:
            raise ConfigError(f"need >= 2 object classes, got {self.n_classes}")
        if self.images_per_class < 1:
            raise ConfigError(
                f"need >= 1 image per class, got {self.images_per_class}"
            )
        if self.n_attributes < 3:
            raise ConfigError(f"need >= 3 attributes, got {self.n_attributes}")
        if self.d_img < 1 or self.d_word < 1:
            raise ConfigError("vector dimensions must be >= 1")
        require_finite(sigma=self.sigma, sigma_word=self.sigma_word)
        if self.sigma < 0 or self.sigma_word < 0:
            raise ConfigError("noise scales must be >= 0")
        if self.attrs_per_object < 3:
            # The attribute-bearing generator samples three distinct
            # compatible attributes per query object.
            raise ConfigError(
                f"attrs_per_object must be >= 3, got {self.attrs_per_object}"
            )
        if self.attrs_per_object > self.n_attributes:
            raise ConfigError(
                f"attrs_per_object {self.attrs_per_object} exceeds "
                f"attribute count {self.n_attributes}"
            )


@dataclass
class SyntheticWorld:
    """All vector spaces and relations a dataset generator or encoder needs.

    ``compat`` maps each object to its sorted tuple of compatible attributes
    and
    ``inverse_compat`` maps each attribute back to its sorted tuple of
    objects; both directions are closed over ``attr_vecs``/``word_vecs``.
    ``class_centroids`` keeps the noise-free per-class visual prototypes so
    tests can run nearest-centroid checks.  ``image_permutation`` is None for
    freshly built worlds and records the id -> source-id map after
    :func:`shuffle_images`.
    """

    objects: list[str]
    images: dict[str, list[str]]
    image_vecs: Table
    word_vecs: Table
    attr_vecs: Table
    compat: dict[str, tuple[str, ...]]
    config: WorldConfig
    seed: int
    class_centroids: dict[str, np.ndarray] = field(default_factory=dict)
    inverse_compat: dict[str, tuple[str, ...]] = field(default_factory=dict)
    image_permutation: dict[str, str] | None = None

    @property
    def attributes(self) -> list[str]:
        """Attribute vocabulary in one-hot order."""
        return list(self.attr_vecs.index)

    def all_image_ids(self) -> list[str]:
        return list(self.image_vecs.index)

    def validate(self) -> None:
        """Check the structural invariants; raises ValidationError on breach."""
        seen_images: set[str] = set()
        for obj in self.objects:
            ids = self.images.get(obj, [])
            if not ids:
                raise ValidationError(f"object {obj!r} has no images")
            for image_id in ids:
                if image_id in seen_images:
                    raise ValidationError(
                        f"image id {image_id!r} listed under multiple objects"
                    )
                seen_images.add(image_id)
                if image_id not in self.image_vecs:
                    raise ValidationError(f"image id {image_id!r} has no vector")
            if obj not in self.word_vecs:
                raise ValidationError(f"object {obj!r} has no word vector")
            attrs = self.compat.get(obj, ())
            if len(attrs) < 3:
                raise ValidationError(
                    f"object {obj!r} has {len(attrs)} compatible attributes, need >= 3"
                )
            for attr in attrs:
                if attr not in self.attr_vecs:
                    raise ValidationError(
                        f"attribute {attr!r} in compat table has no vector"
                    )
        for attr, objs in self.inverse_compat.items():
            if len(objs) < 2:
                raise ValidationError(
                    f"attribute {attr!r} is compatible with {len(objs)} objects, need >= 2"
                )


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValidationError("cannot normalize a zero vector")
    return vec / norm


def _invert_compat(compat: dict[str, tuple[str, ...]]) -> dict[str, tuple[str, ...]]:
    inverse: dict[str, list[str]] = {}
    for obj, attrs in compat.items():
        for attr in attrs:
            inverse.setdefault(attr, []).append(obj)
    return {attr: tuple(sorted(objs)) for attr, objs in inverse.items()}


def build_synthetic_world(config: WorldConfig, seed: int) -> SyntheticWorld:
    """Sample a complete synthetic embedding world from a master seed.

    Construction, per object class c:

    * a unit-normalized visual centroid mu_c;
    * one vector per image: mu_c plus i.i.d. Gaussian noise of scale sigma;
    * a word vector R @ mu_c plus Gaussian noise of scale sigma_word, where R
      is one fixed random linear map into word space (standard-normal
      entries, so mapped centroids keep unit per-coordinate scale).

    Attributes are independent random unit vectors in word space.  The
    compatibility relation samples ``attrs_per_object`` attributes per
    object, then patches coverage so every attribute keeps >= 2 compatible
    objects.  Object, attribute, and image names are zero-padded to equal
    width, so no two distinct names are substrings of each other.
    """
    config.validate()
    obj_width = max(3, len(str(config.n_classes - 1)))
    attr_width = max(3, len(str(config.n_attributes - 1)))
    img_width = max(2, len(str(config.images_per_class - 1)))
    objects = [f"obj{i:0{obj_width}d}" for i in range(config.n_classes)]
    attr_names = [f"attr{i:0{attr_width}d}" for i in range(config.n_attributes)]

    rng_centroids = Rng(derive_seed(seed, "centroids"))
    rng_images = Rng(derive_seed(seed, "images"))
    rng_map = Rng(derive_seed(seed, "cross-modal-map"))
    rng_words = Rng(derive_seed(seed, "word-noise"))
    rng_attrs = Rng(derive_seed(seed, "attributes"))
    rng_compat = Rng(derive_seed(seed, "compat"))

    def rows(rng: Rng, count: int, dim: int, sigma: float = 1.0) -> np.ndarray:
        return rng.normals(count * dim, sigma=sigma).reshape(count, dim)

    centroid_rows = np.array([_unit(row) for row in
                              rows(rng_centroids, config.n_classes, config.d_img)])
    centroids = dict(zip(objects, centroid_rows))

    images = {obj: [f"{obj}-i{k:0{img_width}d}" for k in range(config.images_per_class)]
              for obj in objects}
    image_rows = rows(rng_images, config.n_classes * config.images_per_class,
                      config.d_img, config.sigma)
    per_class = image_rows.reshape(config.n_classes, config.images_per_class, config.d_img)
    per_class += centroid_rows[:, None]  # each image: its centroid plus noise
    image_vecs = Table.of([image_id for obj in objects for image_id in images[obj]],
                          image_rows)

    cross_modal = rows(rng_map, config.d_word, config.d_img)
    word_vecs = Table.of(objects, np.array([cross_modal @ c for c in centroid_rows])
                         + rows(rng_words, config.n_classes, config.d_word, config.sigma_word))
    attr_vecs = Table.of(attr_names, np.array([
        _unit(row) for row in rows(rng_attrs, config.n_attributes, config.d_word)]))

    compat_sets = {
        obj: set(rng_compat.sample(attr_names, config.attrs_per_object))
        for obj in objects
    }
    # Patch coverage: the attribute-bearing generator must always find a
    # second object for any sampled attribute.
    coverage: dict[str, set[str]] = {attr: set() for attr in attr_names}
    for obj, attrs in compat_sets.items():
        for attr in attrs:
            coverage[attr].add(obj)
    for attr in attr_names:
        while len(coverage[attr]) < 2:
            candidates = [obj for obj in objects if obj not in coverage[attr]]
            obj = rng_compat.choice(candidates)
            compat_sets[obj].add(attr)
            coverage[attr].add(obj)

    compat = {obj: tuple(sorted(attrs)) for obj, attrs in compat_sets.items()}
    world = SyntheticWorld(
        objects=objects,
        images=images,
        image_vecs=image_vecs,
        word_vecs=word_vecs,
        attr_vecs=attr_vecs,
        compat=compat,
        config=config,
        seed=int(seed),
        class_centroids=centroids,
        inverse_compat=_invert_compat(compat),
    )
    world.validate()
    return world


def nearest_centroid_accuracy(world: SyntheticWorld) -> float:
    """Fraction of image vectors whose nearest class centroid is their own.

    A brute-force sanity probe of world separability: at the default noise
    scale it should be essentially 1.0.
    """
    names = list(world.class_centroids.keys())
    matrix = np.stack([world.class_centroids[name] for name in names])
    correct = 0
    total = 0
    for obj in world.objects:
        for image_id in world.images[obj]:
            vec = world.image_vecs[image_id]
            dists = np.linalg.norm(matrix - vec, axis=1)
            total += 1
            if names[int(np.argmin(dists))] == obj:
                correct += 1
    return correct / total


@dataclass
class EncodedAct:
    """One act as network-ready arrays: a query vector and its n x d_cand lineup."""

    query_vec: np.ndarray
    candidates: np.ndarray
    gold: object
    act_id: str = ""

    def require_dims(self, d_query: int, d_cand: int) -> None:
        """A query of ``d_query`` entries and 1+ candidates of ``d_cand``."""
        query, lineup = np.shape(self.query_vec), np.shape(self.candidates)
        if query != (d_query,) or lineup[1:] != (d_cand,) or not lineup[0]:
            raise ContractViolation(
                f"act {self.act_id or '<unnamed>'!r}: a query of shape {query} and a "
                f"lineup of shape {lineup}, not ({d_query},) and (n >= 1, {d_cand})")


@dataclass(frozen=True, eq=False)
class EncodedSplit(Sequence):
    """A split's acts as network-ready arrays, stored once.

    Act ``i`` is the query ``queries[i]`` against candidates ``offsets[i]``
    up to ``offsets[i + 1]``, with gold ``golds[i]`` and id ``ids[i]``;
    :attr:`gold_arrays` holds the golds as int arrays.
    Candidate ``k`` is row ``rows[k]`` of ``table``: an object-only split's
    table is its world's image table, an attribute split's its own N x d_cand
    matrix.  Indexing gives an act, slicing a sub-split sharing the table.
    """

    queries: np.ndarray  # B x d_query
    table: np.ndarray    # T x d_cand
    rows: np.ndarray     # N
    offsets: np.ndarray  # B + 1, from 0 to N
    golds: list
    ids: list[str]

    @cached_property
    def gold_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~popref.datagen.gold_arrays` of :attr:`golds` (each act's
        right answer and gold category row), built on first read."""
        return gold_arrays(self.golds)

    @property
    def candidates(self) -> np.ndarray:
        """The N x d_cand candidates of every act in order, in one gather."""
        return np.take(self.table, self.rows, axis=0)

    @property
    def d_query(self) -> int:
        return self.queries.shape[1]

    @property
    def d_cand(self) -> int:
        return self.table.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        off = self.offsets
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self))
            if step != 1:
                raise ContractViolation("a split slices into contiguous runs only")
            hi = max(lo, hi)
            return EncodedSplit(self.queries[lo:hi], self.table, self.rows[off[lo]:off[hi]],
                                off[lo:hi + 1] - off[lo], self.golds[lo:hi],
                                self.ids[lo:hi])
        i = range(len(self))[key]
        return EncodedAct(self.queries[i],
                          np.take(self.table, self.rows[off[i]:off[i + 1]], axis=0),
                          self.golds[i], self.ids[i])

    def require_dims(self, d_query: int, d_cand: int) -> None:
        """:meth:`EncodedAct.require_dims` for every act, naming the first."""
        if len(self) and (self.d_query, self.d_cand) != (d_query, d_cand):
            self[0].require_dims(d_query, d_cand)

    @staticmethod
    def of(acts) -> "EncodedSplit":
        """The split of hand-made acts, in order.  Each must pass
        :meth:`EncodedAct.require_dims` with the first act's dimensions."""
        acts = list(acts)
        if not acts:
            return EncodedSplit(np.zeros((0, 0)), np.zeros((0, 0)),
                                np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp),
                                [], [])
        dims = np.size(acts[0].query_vec), np.shape(acts[0].candidates)[-1]
        for act in acts:
            act.require_dims(*dims)
        lengths = [len(act.candidates) for act in acts]
        return EncodedSplit(
            np.array([act.query_vec for act in acts], dtype=np.float64),
            np.concatenate([act.candidates for act in acts], dtype=np.float64),
            np.arange(sum(lengths)), np.cumsum([0] + lengths),
            [act.gold for act in acts], [act.act_id for act in acts])


ENCODINGS = ("dense", "one-hot")


@dataclass(frozen=True)
class Inputs:
    """What a run's acts are: the task that generates them, the encoding
    mode and block normalisation that turn them into vectors, and the
    synthetic world (config and seed) whose vectors they are looked up in.
    A checkpoint's ``extra`` holds exactly these fields."""

    task: str
    encoding: str
    normalize_blocks: bool
    world_config: WorldConfig
    world_seed: int

    def validate(self) -> None:
        check_task(self.task)
        if self.encoding not in ENCODINGS:
            raise ConfigError(
                f"unknown encoding {self.encoding!r}; expected one of {ENCODINGS}"
            )
        self.world_config.validate()


def _owner(owners: np.ndarray, k: int) -> int:
    """The act of token ``k``, when act ``i`` owns ``owners[i]:owners[i + 1]``."""
    return int(np.searchsorted(owners, k, side="right")) - 1


def _lookup(ids: list[str], allow_unknown: bool, normalize: bool, table: Table,
            tokens: list, owners: np.ndarray, kind: str,
            indicator: bool) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, rows) with token ``k``'s vector (from ``table``, or its
    indicator) in ``vectors[rows[k]]``; a dense unknown token may be zero."""
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


def _gathered(blocks: list, n: int) -> np.ndarray:
    """Row ``k`` of every (vectors, rows) block, side by side, in place."""
    out = np.empty((n, sum(vecs.shape[1] for vecs, _ in blocks)))
    col = 0
    for vecs, rows in blocks:
        np.take(vecs, rows, axis=0, out=out[:, col:col + vecs.shape[1]], mode="wrap")
        col += vecs.shape[1]
    return out


def encode_split(world: SyntheticWorld, acts, mode: str = "dense",
                 normalize_blocks: bool = False,
                 allow_unknown: bool = False) -> EncodedSplit:
    """Turn reference acts into one :class:`EncodedSplit`, one lookup of all
    the split's tokens per block.

    Object-only acts encode the query as the noun's word vector and each
    candidate as its image vector.  Attribute-bearing acts concatenate the
    attribute vector onto both sides.  In ``one-hot`` mode the noun and
    attributes become indicator vectors over the world's vocabularies, which
    cannot represent an unseen word; image vectors stay dense.  In dense
    blocks, ``allow_unknown`` backs unknown tokens off to zero vectors; by
    default they are an error, since a silent back-off corrupts experiments.
    ``normalize_blocks`` rescales each block to unit norm, countering
    cross-modal scale imbalance.  The checks run here, once, and each error
    names an act: an empty lineup or a non-finite vector is a
    :class:`ValidationError`; an unknown token, or attribute fields present
    on some parts of the split and absent on others, an :class:`EncodingError`.
    """
    if mode not in ENCODINGS:
        raise ConfigError(f"unknown encoding mode {mode!r}")
    acts = list(acts)
    ids = [act.id for act in acts]
    lengths = [len(act.items) for act in acts]
    if 0 in lengths:
        raise ValidationError(f"act {ids[lengths.index(0)]!r}: no candidate vectors")
    offsets = np.cumsum([0] + lengths)
    per_act = np.arange(len(acts) + 1)
    items = [item for act in acts for item in act.items]
    query_attrs = [act.query.attribute for act in acts]
    item_attrs = [item.attribute for item in items]
    has_attr = bool(acts) and query_attrs[0] is not None
    for attrs, owners in ((query_attrs, per_act), (item_attrs, offsets)):
        if attrs.count(None) != (0 if has_attr else len(attrs)):
            k = [attr is None for attr in attrs].index(has_attr)
            raise EncodingError(f"act {ids[_owner(owners, k)]!r}: attribute "
                                f"fields must be all-present or all-absent")

    lookup = partial(_lookup, ids, allow_unknown, normalize_blocks)
    one_hot, golds = mode == "one-hot", [act.gold for act in acts]
    queries = [lookup(world.word_vecs, [act.query.noun for act in acts], per_act,
                      "object noun", one_hot)]
    images = lookup(world.image_vecs, [item.image_id for item in items], offsets,
                    "image id", False)
    if not has_attr:  # the candidates stay rows of the image table
        return EncodedSplit(_gathered(queries, len(acts)), *images, offsets, golds, ids)
    queries.append(lookup(world.attr_vecs, query_attrs, per_act, "attribute", one_hot))
    attrs = lookup(world.attr_vecs, item_attrs, offsets, "attribute", one_hot)
    return EncodedSplit(_gathered(queries, len(acts)), _gathered([images, attrs], len(items)),
                        np.arange(len(items)), offsets, golds, ids)


def encode_act(
    act,
    world: SyntheticWorld,
    mode: str = "dense",
    *,
    allow_unknown: bool = False,
    normalize_blocks: bool = False,
) -> EncodedAct:
    """:func:`encode_split` of one act."""
    return encode_split(world, [act], mode, normalize_blocks, allow_unknown)[0]


def shuffle_images(world: SyntheticWorld, seed: int) -> SyntheticWorld:
    """Return a world whose image-id -> vector assignment is deranged.

    Uses Sattolo's variant of the Fisher-Yates shuffle, which produces one
    full cycle, so no image id keeps its original vector.  The permutation is
    a fixed function of the seed and therefore consistent between train- and
    test-time encoding.  The returned world records ``image_permutation``
    mapping each image id to the id whose vector it now carries.
    """
    ids = world.all_image_ids()
    if len(ids) < 2:
        raise ConfigError("image shuffling needs at least 2 image ids")
    rng = Rng(derive_seed(seed, "image-shuffle"))
    order = list(range(len(ids)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i)  # j < i: Sattolo's variant, a single-cycle shuffle
        order[i], order[j] = order[j], order[i]
    permutation = {ids[k]: ids[order[k]] for k in range(len(ids))}

    # ids are the table's rows in order, so id k's vector is row order[k]
    return replace(world,
                   image_vecs=Table(world.image_vecs.vecs[order], world.image_vecs.index),
                   image_permutation=permutation)
