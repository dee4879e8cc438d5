"""Input vector spaces for reference-resolution experiments.

Provides a seeded synthetic "embedding world" (class centroids with Gaussian
image noise, a fixed cross-modal linear map into word space, random attribute
vectors, and a sampled object-attribute compatibility relation), one-hot
encoding for the tabula-rasa model variant, the image-shuffling control
transform, and :class:`Inputs`, the record of which world a run's acts are
looked up in and how they are encoded.

Worlds and tables are immutable after construction and safe for shared
concurrent reads.
"""

from dataclasses import dataclass, field

import numpy as np

from .datagen import GENERATORS
from .errors import ConfigError, EncodingError, ValidationError
from .numerics import Rng, derive_seed, require_finite


class EmbeddingTable:
    """A token -> fixed-dimension vector map with a declared dimension."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError(f"embedding dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.entries: dict[str, np.ndarray] = {}

    def add(self, token: str, vec) -> None:
        if not token:
            raise ValidationError("embedding token must be nonempty")
        if token in self.entries:
            raise ValidationError(f"duplicate embedding token {token!r}")
        arr = np.asarray(vec, dtype=np.float64)
        if arr.shape != (self.dim,):
            raise ValidationError(
                f"vector for {token!r} has length {arr.size}, expected {self.dim}"
            )
        self.entries[token] = arr

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __getitem__(self, token: str) -> np.ndarray:
        try:
            return self.entries[token]
        except KeyError:
            raise EncodingError(f"unknown token {token!r}") from None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def tokens(self) -> list[str]:
        """Tokens in insertion order (the one-hot vocabulary order)."""
        return list(self.entries.keys())


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
    image_vecs: EmbeddingTable
    word_vecs: EmbeddingTable
    attr_vecs: EmbeddingTable
    compat: dict[str, tuple[str, ...]]
    config: WorldConfig
    seed: int
    class_centroids: dict[str, np.ndarray] = field(default_factory=dict)
    inverse_compat: dict[str, tuple[str, ...]] = field(default_factory=dict)
    image_permutation: dict[str, str] | None = None

    @property
    def attributes(self) -> list[str]:
        """Attribute vocabulary in one-hot order."""
        return self.attr_vecs.tokens

    def all_image_ids(self) -> list[str]:
        out = []
        for obj in self.objects:
            out.extend(self.images[obj])
        return out

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

    centroids = {
        obj: _unit(rng_centroids.normals(config.d_img)) for obj in objects
    }

    image_vecs = EmbeddingTable(config.d_img)
    images: dict[str, list[str]] = {}
    for obj in objects:
        ids = [f"{obj}-i{k:0{img_width}d}" for k in range(config.images_per_class)]
        images[obj] = ids
        for image_id in ids:
            noise = rng_images.normals(config.d_img, sigma=config.sigma)
            image_vecs.add(image_id, centroids[obj] + noise)

    cross_modal = np.array(
        [rng_map.normals(config.d_img) for _ in range(config.d_word)]
    )
    word_vecs = EmbeddingTable(config.d_word)
    for obj in objects:
        noise = rng_words.normals(config.d_word, sigma=config.sigma_word)
        word_vecs.add(obj, cross_modal @ centroids[obj] + noise)

    attr_vecs = EmbeddingTable(config.d_word)
    for attr in attr_names:
        attr_vecs.add(attr, _unit(rng_attrs.normals(config.d_word)))

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


def one_hot(token: str, vocab: list[str]) -> np.ndarray:
    """Indicator vector of ``token`` within an ordered vocabulary."""
    try:
        index = vocab.index(token)
    except ValueError:
        raise EncodingError(
            f"token {token!r} is not in the one-hot vocabulary"
        ) from None
    vec = np.zeros(len(vocab), dtype=np.float64)
    vec[index] = 1.0
    return vec


@dataclass
class EncodedAct:
    """A reference act rendered as network-ready vectors."""

    query_vec: np.ndarray
    candidate_vecs: list[np.ndarray]
    gold: object
    act_id: str = ""

    def validate(self) -> None:
        if not self.candidate_vecs:
            raise ValidationError(f"act {self.act_id!r}: no candidate vectors")
        dims = {v.shape for v in self.candidate_vecs}
        if len(dims) != 1:
            raise ValidationError(
                f"act {self.act_id!r}: candidate dims disagree: {sorted(dims)}"
            )
        vecs = [self.query_vec, *self.candidate_vecs]
        if not np.isfinite(np.concatenate(vecs, axis=None)).all():
            raise ValidationError(f"act {self.act_id!r}: non-finite vector entries")


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
        if self.task not in GENERATORS:
            raise ConfigError(
                f"unknown task {self.task!r}; expected one of {tuple(GENERATORS)}"
            )
        if self.encoding not in ENCODINGS:
            raise ConfigError(
                f"unknown encoding {self.encoding!r}; expected one of {ENCODINGS}"
            )
        self.world_config.validate()


def _dense_lookup(
    table: EmbeddingTable, token: str, kind: str, allow_unknown: bool
) -> np.ndarray:
    if token in table:
        return table[token]
    if allow_unknown:
        return np.zeros(table.dim, dtype=np.float64)
    raise EncodingError(f"unknown {kind} {token!r}")


def encode_act(
    act,
    world: SyntheticWorld,
    mode: str = "dense",
    *,
    allow_unknown: bool = False,
    normalize_blocks: bool = False,
) -> EncodedAct:
    """Turn a reference act into query/candidate vectors.

    Object-only acts encode the query as the noun's word vector and each
    candidate as its image vector.  Attribute-bearing acts concatenate the
    attribute vector onto both sides.  In ``one-hot`` mode the linguistic
    parts (noun, attributes) become indicator vectors over the world's
    vocabularies while image vectors stay dense; unknown tokens are always a
    hard error there, since an indicator vocabulary cannot represent unseen
    words.  In dense mode, ``allow_unknown`` backs unknown tokens off to zero
    vectors instead of raising; the default is a hard error because a silent
    back-off corrupts experiments.  ``normalize_blocks`` rescales each block
    (image / word / attribute) to unit norm before concatenation, countering
    cross-modal scale imbalance; off by default.
    """
    if mode not in ENCODINGS:
        raise ConfigError(f"unknown encoding mode {mode!r}")
    has_attr = act.query.attribute is not None
    for item in act.items:
        if (item.attribute is not None) != has_attr:
            raise EncodingError(
                f"act {act.id!r}: attribute fields must be all-present or all-absent"
            )

    def maybe_unit(vec: np.ndarray) -> np.ndarray:
        if not normalize_blocks:
            return vec
        norm = float(np.linalg.norm(vec))
        return vec if norm == 0.0 else vec / norm

    if mode == "dense":
        noun_vec = maybe_unit(
            _dense_lookup(world.word_vecs, act.query.noun, "object noun", allow_unknown)
        )

        def attr_of(name: str) -> np.ndarray:
            return maybe_unit(
                _dense_lookup(world.attr_vecs, name, "attribute", allow_unknown)
            )

    else:
        noun_vec = maybe_unit(one_hot(act.query.noun, world.objects))

        def attr_of(name: str) -> np.ndarray:
            return maybe_unit(one_hot(name, world.attributes))

    if has_attr:
        query_vec = np.concatenate([noun_vec, attr_of(act.query.attribute)])
    else:
        query_vec = noun_vec

    candidates = []
    for item in act.items:
        img = maybe_unit(
            _dense_lookup(world.image_vecs, item.image_id, "image id", allow_unknown)
        )
        if has_attr:
            candidates.append(np.concatenate([img, attr_of(item.attribute)]))
        else:
            candidates.append(img)

    encoded = EncodedAct(
        query_vec=query_vec,
        candidate_vecs=candidates,
        gold=act.gold,
        act_id=act.id,
    )
    encoded.validate()
    return encoded


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

    shuffled = EmbeddingTable(world.image_vecs.dim)
    for image_id in ids:
        shuffled.add(image_id, world.image_vecs[permutation[image_id]])
    return SyntheticWorld(
        objects=list(world.objects),
        images={obj: list(ids_) for obj, ids_ in world.images.items()},
        image_vecs=shuffled,
        word_vecs=world.word_vecs,
        attr_vecs=world.attr_vecs,
        compat=dict(world.compat),
        config=world.config,
        seed=world.seed,
        class_centroids=dict(world.class_centroids),
        inverse_compat=dict(world.inverse_compat),
        image_permutation=permutation,
    )
