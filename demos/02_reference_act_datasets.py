"""Generate reference-act datasets and inspect what comes out.

A reference act is one episode: a speaker utters a query ("the mug", or
"the striped mug"), a listener sees a lineup of candidate images, and the
gold label says which candidate was meant — or that the act was anomalous
because no candidate matches (MissRef) or several do (MultRef).  The
generators emit a controlled mix: 70% successful acts, 15% of each anomaly,
with lineup lengths uniform over a configured range.  Everything is seeded,
sharded, and survives a JSONL round-trip byte-for-byte.
"""

import argparse
import collections
import os
import tempfile
from dataclasses import asdict

from popref.datagen import (
    ANOMALY,
    POINT,
    DatasetSpec,
    dataset_stats,
    generate_splits,
    read_jsonl,
    write_jsonl,
)
from popref.embeddings import WorldConfig, build_synthetic_world


def describe(act) -> str:
    query = act.query.noun
    if act.query.attribute:
        query = f"{act.query.attribute} {query}"
    lineup = ", ".join(
        it.object if it.attribute is None else f"{it.attribute} {it.object}"
        for it in act.items
    )
    if act.gold.kind == POINT:
        outcome = f"point at #{act.gold.index}"
    else:
        outcome = f"protest ({act.gold.anomaly_kind})"
    return f'"{query}?"  [{lineup}]  ->  {outcome}'


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-train", type=int, default=3000)
    args = parser.parse_args()

    world = build_synthetic_world(
        WorldConfig(n_classes=25, images_per_class=4, n_attributes=12,
                    d_img=16, d_word=8, attrs_per_object=4),
        args.seed,
    )
    spec = DatasetSpec(n_train=args.n_train, n_val=500, n_test=1000,
                       seed=args.seed)

    for task in ("object-only", "object-attr"):
        print(f"=== task: {task} ===")
        splits = generate_splits(world, spec, task)
        acts = splits["train"]

        shown = set()
        for act in acts:
            kind = act.gold.anomaly_kind if act.gold.kind == ANOMALY else POINT
            if kind not in shown:
                shown.add(kind)
                print(f"  {act.id}: {describe(act)}")
            if len(shown) == 3:
                break

        outcomes = collections.Counter(
            act.gold.anomaly_kind if act.gold.kind == ANOMALY else POINT
            for act in acts
        )
        lengths = collections.Counter(len(act.items) for act in acts)
        n = len(acts)
        print("  outcome mix: "
              + ", ".join(f"{k} {v / n:.1%}" for k, v in sorted(outcomes.items())))
        print("  lineup lengths: "
              + ", ".join(f"{k}: {v / n:.1%}" for k, v in sorted(lengths.items())))
        print()

    print("=== JSONL round-trip ===")
    splits = generate_splits(world, spec, "object-attr")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.jsonl")
        write_jsonl(splits["train"], path)
        size = os.path.getsize(path)
        reread = read_jsonl(path)
        same = all(asdict(a) == asdict(b)
                   for a, b in zip(splits["train"], reread))
        with open(path, "r", encoding="utf-8") as fh:
            first_line = fh.readline().strip()
        print(f"wrote {len(splits['train'])} acts ({size} bytes); "
              f"read back identical: {same}")
        print(f"raw line: {first_line[:120]}...")

    print()
    print("=== combination-frequency report (train vs test) ===")
    print(dataset_stats(splits["train"], splits["test"]).to_text())


if __name__ == "__main__":
    main()
