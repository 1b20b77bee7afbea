"""Seeded draws of leading coefficients, subsets and size profiles: test
helpers for the sampled families of the acceptance criteria and the
lattice checks."""

import random


def random_leading(rng: random.Random, n: int, p: int) -> tuple:
    """Nonzero residues mod p, one per variable."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    return tuple(rng.randint(1, p - 1) for _ in range(n))


def random_subset(rng: random.Random, p: int, size: int) -> tuple:
    """A sorted subset of {0..p-1} of the given size."""
    if not 0 <= size <= p:
        raise ValueError(f"cannot pick {size} distinct residues mod {p}")
    return tuple(sorted(rng.sample(range(p), size)))


def random_sizes(rng: random.Random, n: int, low_fn, high: int) -> tuple:
    """One size per set; set i draws from [low_fn(i), high] (i is 1-based)."""
    sizes = []
    for i in range(1, n + 1):
        low = low_fn(i)
        if low > high:
            raise ValueError(f"set {i}: empty size range [{low}, {high}]")
        sizes.append(rng.randint(low, high))
    return tuple(sizes)
