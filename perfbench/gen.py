"""Seeded workload inputs: a class mixture seen through m feature channels.

Every channel describes the same n items and shares their class labels,
but draws its own class prototypes and uses its own noise level, so the
channels agree on who belongs together without agreeing on geometry.
The library only ever receives the arrays and files made here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Collection:
    labels: np.ndarray  # (n,) class id per item; item ids are 0..n-1
    prototypes: list[np.ndarray]  # per channel, (n_classes, d)
    noise: list[float]  # per channel
    vectors: list[np.ndarray]  # per channel, (n, d)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def make_collection(
    rng: np.random.Generator, n: int, d: int, m: int, per_class: int, noise: float
) -> Collection:
    """n items in about n/per_class classes; channel c adds noise * (1 + c/4)."""
    n_classes = max(1, n // per_class)
    labels = rng.integers(0, n_classes, size=n)
    prototypes, noises, vectors = [], [], []
    for c in range(m):
        protos = rng.normal(0.0, 1.0, size=(n_classes, d))
        sigma = noise * (1.0 + 0.25 * c)
        prototypes.append(protos)
        noises.append(sigma)
        vectors.append(protos[labels] + rng.normal(0.0, sigma, size=(n, d)))
    return Collection(labels=labels, prototypes=prototypes, noise=noises, vectors=vectors)


def draw_queries(
    rng: np.random.Generator, coll: Collection, n_ids: int, n_vectors: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Distinct stored ids, plus out-of-sample vectors drawn from channel 0's mixture.

    Returns (ids, vectors, vector_labels).
    """
    ids = [int(i) for i in rng.choice(coll.n, size=n_ids, replace=False)]
    labels = coll.labels[rng.integers(0, coll.n, size=n_vectors)]
    protos = coll.prototypes[0]
    vectors = protos[labels] + rng.normal(0.0, coll.noise[0], size=(n_vectors, protos.shape[1]))
    return ids, vectors, labels


def candidate_overlap(neighbor_lists: list[list[np.ndarray]]) -> dict[str, float]:
    """Work-size properties of a query stream, from each channel's k1 candidates.

    ``neighbor_lists[q][c]`` holds query q's candidates on channel c. Reports
    the mean and max fused union size and the share (in %) of union members
    that are candidates on more than one channel.
    """
    sizes, shared = [], 0
    for per_channel in neighbor_lists:
        ids, counts = np.unique(np.concatenate(per_channel), return_counts=True)
        sizes.append(ids.shape[0])
        shared += int((counts > 1).sum())
    return {
        "union_mean": float(np.mean(sizes)),
        "union_max": float(np.max(sizes)),
        "multi_channel_pct": 100.0 * shared / float(np.sum(sizes)),
    }
