"""Shared utilities: deterministic RNG handling, simulated time, validation.

Every stochastic component in the library accepts an explicit
:class:`numpy.random.Generator`.  These helpers centralize seed-spawning and
the time conventions used across the simulator (simulation time is a float
number of seconds from epoch 0).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

#: Seconds in one day of simulated time.
DAY = 86_400.0
#: Seconds in one week of simulated time.
WEEK = 7 * DAY
#: Seconds in one hour of simulated time.
HOUR = 3_600.0


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for an unseeded generator.  Library code funnels all RNG
    construction through here so that scenario-level determinism is easy to
    audit.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(*key: int) -> np.random.Generator:
    """Return a generator keyed by a tuple of non-negative integers.

    Unlike :func:`spawn_rngs`, the derived stream depends only on the key
    material — not on how much of any parent stream was consumed first.
    Components use this for *decision streams* (e.g. "does scanner X react
    to prefix P?") that must stay stable when unrelated code changes how
    many draws it makes.
    """
    return np.random.default_rng(list(key))


def spawn_rngs(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Children are statistically independent of each other and of the parent's
    subsequent output, which lets sub-components evolve without perturbing
    one another's streams when the scenario is edited.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def day_of(t: float) -> int:
    """Return the zero-based simulation day containing time ``t``."""
    return int(t // DAY)


def week_of(t: float) -> int:
    """Return the zero-based simulation week containing time ``t``."""
    return int(t // WEEK)


def check_nonnegative(name: str, value: float) -> float:
    """Validate that ``value`` is a non-negative number and return it."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def weighted_choice(
    rng: np.random.Generator, items: Sequence, weights: Iterable[float]
):
    """Pick one element of ``items`` with the given (unnormalized) weights."""
    w = np.asarray(list(weights), dtype=float)
    if len(w) != len(items):
        raise ValueError("weights must match items in length")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    idx = rng.choice(len(items), p=w / total)
    return items[idx]


def sha256_file(path) -> str:
    """Hex SHA-256 of a file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
