"""Build a synthetic embedding world and look at its geometry.

The world stands in for a real multimodal setup: every object class gets a
visual prototype (a unit-norm centroid), every image is that prototype plus
Gaussian noise, and every word vector is a linear image of the centroid plus
its own noise.  Because word vectors live in a different space than images,
nothing matches across modalities by accident — a model has to learn the
cross-modal map.  This script prints the sizes, the noise geometry, and the
object/attribute compatibility structure.
"""

import argparse
from dataclasses import replace

import numpy as np

from popref.embeddings import (
    WorldConfig,
    build_synthetic_world,
    nearest_centroid_accuracy,
)


def banner(title: str) -> None:
    print()
    print(f"--- {title} ---")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = WorldConfig(
        n_classes=30,
        images_per_class=5,
        n_attributes=15,
        d_img=32,
        d_word=16,
        sigma=0.1,
        sigma_word=0.2,
        attrs_per_object=4,
    )
    world = build_synthetic_world(config, args.seed)

    banner("vocabulary")
    print(f"{len(world.objects)} object classes, e.g. {world.objects[:4]}")
    print(f"{len(world.attributes)} attributes, e.g. {world.attributes[:4]}")
    n_images = len(world.all_image_ids())
    print(f"{n_images} images ({config.images_per_class} per class), "
          f"e.g. {world.images[world.objects[0]]}")
    print(f"image vectors: {config.d_img}-d, word vectors: {config.d_word}-d")

    banner("images cluster around their class centroid")
    obj = world.objects[0]
    centroid = world.class_centroids[obj]
    own = [np.linalg.norm(world.image_vecs[i] - centroid) for i in world.images[obj]]
    other = world.objects[1]
    foreign = [
        np.linalg.norm(world.image_vecs[i] - centroid) for i in world.images[other]
    ]
    print(f"distance of {obj} images to the {obj} centroid:   "
          f"mean {np.mean(own):.3f}")
    print(f"distance of {other} images to the {obj} centroid: "
          f"mean {np.mean(foreign):.3f}")
    print(f"nearest-centroid accuracy at sigma={config.sigma}: "
          f"{nearest_centroid_accuracy(world):.3f}")

    noisy = build_synthetic_world(replace(config, sigma=0.8), args.seed)
    print(f"nearest-centroid accuracy at sigma=0.8: "
          f"{nearest_centroid_accuracy(noisy):.3f}  (classes start to blur)")

    banner("object/attribute compatibility")
    for name in world.objects[:3]:
        print(f"{name} is compatible with {list(world.compat[name])}")
    attr = world.attributes[0]
    print(f"...and inversely, {attr} applies to "
          f"{len(world.inverse_compat[attr])} objects")


if __name__ == "__main__":
    main()
