"""Seeded random test-corpus generators shared by tests and the CLI."""

from __future__ import annotations

import random

import numpy as np

from .decompose import boost_matrix, factor_product, rotation_schedule_pairs
from .groups import PlanarFactor


def random_special_orthogonal(rng: random.Random, d: int) -> np.ndarray:
    """Product of one random planar rotation per coordinate pair."""
    return factor_product(d, [
        PlanarFactor("rotation", i, j, rng.uniform(0.0, 2.0 * np.pi))
        for i, j in rotation_schedule_pairs(d)
    ])


def random_spatial_rotation(rng: random.Random, n: int) -> np.ndarray:
    """Rotation of R^n fixing the first (time) axis."""
    R = np.eye(n)
    R[1:, 1:] = random_special_orthogonal(rng, n - 1)
    return R


def random_proper_lorentz(rng: random.Random, n: int, theta_max: float = 3.0) -> np.ndarray:
    """Random R * boost(theta) * R' with theta drawn from [0, theta_max];
    ``n`` below 2 raises ValueError."""
    if n < 2:
        raise ValueError(f"a Lorentz matrix needs size >= 2, got {n}")
    theta = rng.uniform(0.0, theta_max)
    return (
        random_spatial_rotation(rng, n)
        @ boost_matrix(n, theta)
        @ random_spatial_rotation(rng, n)
    )
