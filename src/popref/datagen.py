"""Seeded generation of reference-act datasets, serialization, and statistics.

A reference act pairs one linguistic query with a short candidate sequence
and a gold outcome: either the index of the single matching candidate, or an
anomaly flag (no match at all, or more than one).  Two generators are
provided: object-only acts (query = a noun, candidates = object images) and
attribute-bearing acts (query = noun + attribute, candidates = images tagged
with attributes, built around a pool of one-coordinate confounders).

Both generators draw every act from its own child seed derived from the
master seed and the act's index, so a split can be sharded into ranges and
generated in parallel with byte-identical results.  The act streams of a
block of consecutive indices are seeded together and their first draws made
ahead as numpy lanes (:func:`~popref.numerics.lane_rngs`), as many as the
act can use without a rejection or retry; the draws themselves are the
plain :class:`~popref.numerics.Rng` methods, act by act.  Every act passes
the gold-consistency validator before it is emitted.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ContractViolation,
    GenerationError,
    ParseError,
    ValidationError,
    checked,
    read_text,
)
from .numerics import Rng, derive_seed, derive_seeds, lane_rngs, require_finite

POINT = "point"
ANOMALY = "anomaly"
MISS = "miss"
MULT = "mult"

# An answer to an act is the index of the candidate it points at, or PROTEST.
PROTEST = -1

# Gold categories, in the order of the rows of an evaluation's confusion table.
GOLD_CATEGORIES = (POINT, MISS, MULT)

_MAX_CONSTRAINT_RETRIES = 1000
# Acts whose streams are seeded and drawn ahead together.  Blocks, not whole
# splits, keep memory flat: a block's outputs drawn ahead take under 1 MB.
_LANE_ACTS = 256


@dataclass(frozen=True)
class Gold:
    """The annotated outcome of a reference act.

    Exactly one of ``index`` (for pointing) and ``anomaly_kind`` (for
    protests) is set; the two anomaly subtypes share the protest outcome and
    exist only so evaluation can itemize accuracy.
    """

    kind: str
    index: int | None = None
    anomaly_kind: str | None = None

    @property
    def choice(self) -> int:
        """The right answer: the gold index, or :data:`PROTEST` at an anomaly."""
        return self.index if self.kind == POINT else PROTEST

    @staticmethod
    def point(index: int) -> "Gold":
        return Gold(kind=POINT, index=index)

    @staticmethod
    def miss() -> "Gold":
        return Gold(kind=ANOMALY, anomaly_kind=MISS)

    @staticmethod
    def mult() -> "Gold":
        return Gold(kind=ANOMALY, anomaly_kind=MULT)

    def validate(self) -> None:
        if self.kind == POINT:
            if self.index is None or self.anomaly_kind is not None:
                raise ValidationError(f"inconsistent point gold: {self}")
            if self.index < 0:
                raise ValidationError(f"negative gold index: {self.index}")
        elif self.kind == ANOMALY:
            if self.index is not None or self.anomaly_kind not in (MISS, MULT):
                raise ValidationError(f"inconsistent anomaly gold: {self}")
        else:
            raise ValidationError(f"unknown gold kind {self.kind!r}")


def gold_arrays(golds: list[Gold]) -> tuple[np.ndarray, np.ndarray]:
    """Each gold's :attr:`Gold.choice` and its row in :data:`GOLD_CATEGORIES`,
    as two int arrays."""
    row = {cat: i for i, cat in enumerate(GOLD_CATEGORIES)}
    return (np.fromiter([gold.choice for gold in golds], np.intp, len(golds)),
            np.fromiter([row[gold.anomaly_kind or gold.kind] for gold in golds], np.intp,
                        len(golds)))


def scored(choices, right: np.ndarray) -> np.ndarray:
    """The one scoring rule: whether each answer in ``choices`` (one per
    act, or one for all) is its act's right answer in ``right``, the gold
    choices of :func:`gold_arrays`."""
    return choices == right


@dataclass(frozen=True)
class Query:
    noun: str
    attribute: str | None = None


@dataclass(frozen=True)
class Item:
    """One candidate: an object instance shown as a specific image."""

    object: str
    image_id: str
    attribute: str | None = None


@dataclass(frozen=True)
class ReferenceAct:
    id: str
    query: Query
    items: tuple[Item, ...]
    gold: Gold


@dataclass(frozen=True)
class DatasetSpec:
    """Lengths, anomaly rates, split sizes, and the master seed."""

    min_len: int = 2
    max_len: int = 5
    p_miss: float = 0.15
    p_mult: float = 0.15
    n_train: int = 40000
    n_val: int = 5000
    n_test: int = 10000
    seed: int = 0

    def validate(self) -> None:
        if not (2 <= self.min_len <= self.max_len):
            raise ConfigError(
                f"need 2 <= min_len <= max_len, got [{self.min_len}, {self.max_len}]"
            )
        require_finite(p_miss=self.p_miss, p_mult=self.p_mult)
        if self.p_miss < 0 or self.p_mult < 0:
            raise ConfigError("anomaly probabilities must be >= 0")
        if self.p_miss + self.p_mult >= 1:
            raise ConfigError(
                f"anomaly probabilities must sum below 1, got "
                f"{self.p_miss} + {self.p_mult}"
            )
        for name, n in (("n_train", self.n_train), ("n_val", self.n_val),
                        ("n_test", self.n_test)):
            if n < 0:
                raise ConfigError(f"{name} must be >= 0, got {n}")


def matches(item: Item, query: Query) -> bool:
    """Whether a candidate satisfies the query.

    Object-only queries match on the noun; attribute-bearing queries require
    BOTH coordinates to agree, so sharing just the object or just the
    attribute is a confounder, not a match.
    """
    if item.object != query.noun:
        return False
    if query.attribute is None:
        return True
    return item.attribute == query.attribute


def validate_act(
    act: ReferenceAct, min_len: int | None = None, max_len: int | None = None
) -> None:
    """Check gold consistency; raises ValidationError naming the act."""
    act.gold.validate()
    n = len(act.items)
    if n == 0:
        raise ValidationError(f"act {act.id!r}: empty candidate sequence")
    if min_len is not None and n < min_len:
        raise ValidationError(f"act {act.id!r}: length {n} below minimum {min_len}")
    if max_len is not None and n > max_len:
        raise ValidationError(f"act {act.id!r}: length {n} above maximum {max_len}")
    has_attr = act.query.attribute is not None
    for item in act.items:
        if (item.attribute is not None) != has_attr:
            raise ValidationError(
                f"act {act.id!r}: attribute fields must be all-present or all-absent"
            )
    match_count = sum(1 for item in act.items if matches(item, act.query))
    if act.gold.kind == POINT:
        if act.gold.index >= n:
            raise ValidationError(
                f"act {act.id!r}: gold index {act.gold.index} out of range for {n} items"
            )
        if not matches(act.items[act.gold.index], act.query):
            raise ValidationError(
                f"act {act.id!r}: item at gold index does not match the query"
            )
        if match_count != 1:
            raise ValidationError(
                f"act {act.id!r}: point gold requires exactly 1 match, found {match_count}"
            )
    elif act.gold.anomaly_kind == MISS:
        if match_count != 0:
            raise ValidationError(
                f"act {act.id!r}: missing-referent gold requires 0 matches, "
                f"found {match_count}"
            )
    else:
        if match_count < 2:
            raise ValidationError(
                f"act {act.id!r}: multiple-referent gold requires >= 2 matches, "
                f"found {match_count}"
            )


def _draw_anomaly(rng: Rng, spec: DatasetSpec) -> str | None:
    """One categorical draw over {miss, mult, success} with the marginal rates."""
    u = rng.random()
    if u < spec.p_miss:
        return MISS
    if u < spec.p_miss + spec.p_mult:
        return MULT
    return None


def _fresh_image(rng: Rng, images: list[str], avoid: str) -> str:
    """An image of the same object, distinct from ``avoid`` when possible."""
    pool = [im for im in images if im != avoid]
    return rng.choice(pool) if pool else avoid


def _generate(draw, draws: int, label: str, world, spec: DatasetSpec, rng: Rng,
              count: int, start: int, id_prefix: str):
    """Yield ``count`` acts; act ``i`` is drawn from
    ``Rng(derive_seed(rng.seed, label, start + i))``.

    ``draw`` returns the query, the candidates (slot 0 holds the query's own
    item unless a missing-referent edit replaced it) and the anomaly kind or
    None.  The candidates are then shuffled uniformly, a point gold names
    where slot 0 landed, and the act must pass :func:`validate_act`.  The
    streams of :data:`_LANE_ACTS` acts at a time come from
    :func:`~popref.numerics.lane_rngs` with ``draws`` outputs ahead: the
    most that ``draw`` and the shuffle use when no draw is rejected.
    """
    if start < 0 or count < 0:
        raise ContractViolation(f"need start >= 0 and count >= 0, got {start} and {count}")
    end = start + count
    for lo in range(start, end, _LANE_ACTS):
        hi = min(lo + _LANE_ACTS, end)
        seeds = derive_seeds(rng.seed, label, indices=np.arange(lo, hi, dtype=np.uint64))
        for index, act_rng in zip(range(lo, hi), lane_rngs(seeds, draws)):
            query, items, anomaly = draw(world, spec, act_rng)
            perm = list(range(len(items)))
            act_rng.shuffle(perm)
            gold = (Gold.point(perm.index(0)) if anomaly is None
                    else Gold(kind=ANOMALY, anomaly_kind=anomaly))
            act = ReferenceAct(id=f"{id_prefix}-{index:06d}", query=query,
                               items=tuple(items[p] for p in perm), gold=gold)
            validate_act(act, spec.min_len, spec.max_len)
            yield act


def _draw_object_only(world, spec: DatasetSpec, rng: Rng) -> tuple[Query, list[Item], str | None]:
    length = spec.min_len + rng.randrange(spec.max_len - spec.min_len + 1)
    objs = rng.sample(world.objects, length)
    items = [Item(obj, rng.choice(world.images[obj])) for obj in objs]
    query = Query(noun=objs[0])

    anomaly = _draw_anomaly(rng, spec)
    if anomaly == MISS:
        # Replace the query slot with an object absent from the sequence,
        # leaving zero matching candidates.
        in_seq = set(objs)
        fresh = rng.choice([obj for obj in world.objects if obj not in in_seq])
        items[0] = Item(fresh, rng.choice(world.images[fresh]))
    elif anomaly == MULT:
        # Overwrite a non-query slot with a second instance of the query
        # object under a different image.
        j = 1 + rng.randrange(length - 1)
        items[j] = Item(
            objs[0], _fresh_image(rng, world.images[objs[0]], items[0].image_id)
        )
    return query, items, anomaly


def gen_object_only(world, spec: DatasetSpec, rng: Rng, count: int,
                    start: int = 0, id_prefix: str = "act"):
    """Yield ``count`` object-only reference acts.

    Per act: draw the sequence length uniformly, fill the slots with distinct
    objects (sampling without replacement keeps gold semantics intact at any
    vocabulary size) and one uniform image each, take slot 0 as the query,
    then apply at most one anomaly edit and shuffle.  Act ``i`` is drawn from
    ``derive_seed(rng.seed, "object-only", start + i)``.
    """
    spec.validate()
    if len(world.objects) < spec.max_len + 1:
        raise ConfigError(
            f"world has {len(world.objects)} objects; object-only generation "
            f"needs at least max_len + 1 = {spec.max_len + 1}"
        )
    # length, sample, images, anomaly, its edit (2), shuffle (length - 1)
    draws = 3 * spec.max_len + 3
    yield from _generate(_draw_object_only, draws, "object-only", world, spec, rng,
                         count, start, id_prefix)


def _draw_object_attribute(world, spec: DatasetSpec, rng: Rng) -> tuple[Query, list[Item], str | None]:
    length = spec.min_len + rng.randrange(spec.max_len - spec.min_len + 1)

    query_obj = rng.choice(world.objects)
    own_attrs = list(world.compat[query_obj])
    attr1 = rng.choice(own_attrs)
    attr2, attr3 = rng.sample([a for a in own_attrs if a != attr1], 2)

    def partner(attr: str) -> str:
        # Every attribute has >= 2 compatible objects, so another exists.
        return rng.choice([obj for obj in world.inverse_compat[attr] if obj != query_obj])

    obj2 = partner(attr2)
    obj3 = partner(attr3)
    query_image = rng.choice(world.images[query_obj])

    # Six confounders, each sharing at most one coordinate with the query
    # pair; images sampled per entry.
    pool_pairs = [
        (attr2, query_obj),
        (attr1, obj2),
        (attr2, obj2),
        (attr3, query_obj),
        (attr1, obj3),
        (attr3, obj3),
    ]
    pool = [
        Item(obj, rng.choice(world.images[obj]), attribute=attr)
        for attr, obj in pool_pairs
    ]

    items = [Item(query_obj, query_image, attribute=attr1)]
    items.extend(rng.sample(pool, length - 1))
    query = Query(noun=query_obj, attribute=attr1)

    anomaly = _draw_anomaly(rng, spec)
    if anomaly == MISS:
        # Replace the query slot with any compatible pair other than the
        # query pair itself; no candidate then matches on both coordinates.
        for _ in range(_MAX_CONSTRAINT_RETRIES):
            obj = rng.choice(world.objects)
            attr = rng.choice(list(world.compat[obj]))
            if (obj, attr) != (query_obj, attr1):
                break
        else:
            raise GenerationError(
                f"could not sample a non-matching pair for object {query_obj!r}"
            )
        items[0] = Item(obj, rng.choice(world.images[obj]), attribute=attr)
    elif anomaly == MULT:
        j = 1 + rng.randrange(length - 1)
        items[j] = Item(
            query_obj,
            _fresh_image(rng, world.images[query_obj], query_image),
            attribute=attr1,
        )
    return query, items, anomaly


def gen_object_attribute(world, spec: DatasetSpec, rng: Rng, count: int,
                         start: int = 0, id_prefix: str = "act"):
    """Yield ``count`` attribute-bearing reference acts.

    Per act: sample the query pair (object, compatible attribute) and an
    image; sample two more attributes of the query object and one partner
    object per attribute; build the six-confounder pool; fill the sequence
    with the query item plus confounders sampled without replacement; apply
    at most one anomaly edit; shuffle.  A candidate matches only when BOTH
    its object and its attribute equal the query's.
    """
    spec.validate()
    if spec.max_len > 7:
        raise ConfigError(
            f"attribute-bearing acts draw non-query items from a 6-confounder "
            f"pool, so max_len must be <= 7, got {spec.max_len}"
        )
    # length, query pair (2), two attributes, two partners, image, pool (6),
    # sample (length - 1), anomaly, its edit (3), shuffle (length - 1)
    draws = 2 * spec.max_len + 16
    yield from _generate(_draw_object_attribute, draws, "object-attribute", world,
                         spec, rng, count, start, id_prefix)


GENERATORS = {
    "object-only": gen_object_only,
    "object-attr": gen_object_attribute,
}


def check_task(task: str) -> None:
    """Raise :class:`ConfigError` unless ``task`` names a generator."""
    if task not in GENERATORS:
        raise ConfigError(
            f"unknown task {task!r}; expected one of {tuple(GENERATORS)}"
        )


def generate_splits(world, spec: DatasetSpec, task: str) -> dict[str, list[ReferenceAct]]:
    """Generate the train/val/test splits for a task.

    Each split draws from its own child of ``spec.seed``, so regenerating any
    single split (or resizing another) leaves the rest byte-identical.
    """
    check_task(task)
    gen = GENERATORS[task]
    splits = {}
    for split, count in (("train", spec.n_train), ("val", spec.n_val),
                         ("test", spec.n_test)):
        split_rng = Rng(derive_seed(spec.seed, task, split))
        splits[split] = list(gen(world, spec, split_rng, count, id_prefix=split))
    return splits


def act_from_dict(record, lineno: int = 0) -> ReferenceAct:
    """The act a JSON record holds: exactly the fields :func:`write_jsonl`
    writes, each of its type, and gold-consistent.  Anything else is a
    :class:`ParseError` at ``lineno``."""
    try:
        act = checked(ReferenceAct, record, "act")
        validate_act(act)
    except (ParseError, ValidationError) as exc:
        raise ParseError(str(exc), line=lineno) from None
    return act


def write_jsonl(acts, path) -> None:
    """Write acts as one JSON object per line, keys sorted.

    A record is ``dataclasses.asdict(act)``: ``default=vars`` writes each
    dataclass as its fields, the same bytes without the deep copy that
    makes ``asdict`` three times slower here.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for act in acts:
            fh.write(json.dumps(act, default=vars, sort_keys=True))
            fh.write("\n")


def read_jsonl(path) -> list[ReferenceAct]:
    """Read acts back; a record :func:`act_from_dict` rejects raises
    ParseError with its line number."""
    acts = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from None
        acts.append(act_from_dict(record, lineno))
    return acts


_COMBO_KINDS = ("object", "object+image", "object+attribute", "object+attribute+image")


def _combos(acts) -> dict[str, tuple[int, set]]:
    """Per combination kind: its occurrences across candidate items, and its
    distinct combinations."""
    items = [item for act in acts for item in act.items]
    tagged = [item for item in items if item.attribute is not None]
    return {
        "object": (len(items), {i.object for i in items}),
        "object+image": (len(items), {(i.object, i.image_id) for i in items}),
        "object+attribute": (len(tagged), {(i.object, i.attribute) for i in tagged}),
        "object+attribute+image": (
            len(tagged), {(i.object, i.attribute, i.image_id) for i in tagged}),
    }


def _avg_frequency(combos: dict[str, tuple[int, set]]) -> dict[str, float | None]:
    return {kind: count / len(keys) if keys else None
            for kind, (count, keys) in combos.items()}


@dataclass
class StatsReport:
    """Average combination frequencies plus train/test overlap percentages.

    ``avg_frequency`` maps split name -> combination kind -> mean token count
    per distinct combination (None when the kind does not occur, e.g.
    attribute columns on object-only data).  ``unseen_pct`` gives, per kind,
    the percentage of the second split's distinct combinations that never
    occur in the first; it is None unless two splits were supplied.
    """

    avg_frequency: dict[str, dict[str, float | None]]
    unseen_pct: dict[str, float | None] | None

    def to_text(self) -> str:
        def fmt(value: float | None) -> str:
            return "--" if value is None else f"{value:.1f}"

        header = ["split"] + list(_COMBO_KINDS)
        lines = ["\t".join(header)]
        for split, freqs in self.avg_frequency.items():
            lines.append(
                "\t".join([split] + [fmt(freqs[kind]) for kind in _COMBO_KINDS])
            )
        if self.unseen_pct is not None:
            lines.append(
                "\t".join(
                    ["unseen-%"] + [fmt(self.unseen_pct[kind]) for kind in _COMBO_KINDS]
                )
            )
        return "\n".join(lines)


def dataset_stats(acts, test_acts=None) -> StatsReport:
    """Average combination frequencies, optionally with train/test overlap.

    Counts object, object+image, object+attribute, and full-triple
    combinations across candidate items.  The average frequency of a kind is
    its occurrences (the items that carry it) divided by its distinct
    combinations.  With a second stream, also reports the percentage of its
    distinct combinations that the first lacks, a set difference.
    """
    acts = list(acts)
    if not acts:
        raise ValidationError("dataset_stats needs a nonempty act stream")
    first = _combos(acts)
    avg = {"train" if test_acts is not None else "all": _avg_frequency(first)}
    unseen = None
    if test_acts is not None:
        test_acts = list(test_acts)
        if not test_acts:
            raise ValidationError("dataset_stats needs a nonempty test stream")
        second = _combos(test_acts)
        avg["test"] = _avg_frequency(second)
        unseen = {kind: 100.0 * len(keys - first[kind][1]) / len(keys) if keys else None
                  for kind, (_, keys) in second.items()}
    return StatsReport(avg_frequency=avg, unseen_pct=unseen)
