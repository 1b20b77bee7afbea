"""Vectorized sweeps over set families in small prime fields.

Two independent fast routes to value-set cardinalities, both cross-checked
against the exact backtracking enumerator in the test suite:

  * a bitset fold over the full subset lattice (`lattice_min_cardinality`):
    one pass computes, for every one of the (2^p)^n families, the set of
    attainable values and reduces it to the minimum cardinality per size
    profile.  The fold of the first axis is streamed: the subsets of A_1 are
    walked depth first and each slab of (2^p)^(n-1) masks goes straight into
    the per-profile minimum, so the (2^p)^n mask grid that `fold_masks`
    returns is never built.  Peak memory is about (3p+3)*(2^p)^(n-1) bytes:
    50 MB and a fraction of a second for GF(7), n = 4;
  * a per-family vectorized evaluation (`family_cardinality_fast`) for
    seeded samples at primes too large for the lattice.

Every array these routes allocate is sized from the shapes first and refused
with `SearchSpaceTooLarge` when it would pass `LATTICE_BYTE_GUARD` bytes.

Elements of GF(p) are the residues 0..p-1 throughout, so a subset is a
p-bit mask and a set of attained values is again a p-bit mask.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from math import comb, prod

import numpy as np

from .errors import HypothesisViolated, SearchSpaceTooLarge
from .poly import SparsePoly

MAX_LATTICE_PRIME = 8  # value masks live in uint8
LATTICE_BYTE_GUARD = 1 << 30  # largest allocation, in bytes, a sweep may ask for


def _check_bytes(nbytes: int, what: str) -> None:
    if nbytes > LATTICE_BYTE_GUARD:
        raise SearchSpaceTooLarge(
            f"{what} needs about {nbytes} bytes, over the {LATTICE_BYTE_GUARD}-byte guard"
        )


# ---------- seeded randomness ----------


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from any printable labels (hash of the joined text)."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def random_tail(rng: random.Random, n: int, k: int, max_terms: int = 3) -> SparsePoly:
    """A small integer polynomial of total degree < k in n variables."""
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        while True:
            exps = tuple(rng.randint(0, k - 1) for _ in range(n))
            if sum(exps) < k:
                break
        coeff = rng.choice([1, -1]) * rng.randint(1, 3)
        terms[exps] = terms.get(exps, 0) + coeff
    return SparsePoly(n, terms)


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


# ---------- route 1: full subset-lattice fold ----------


def value_table(p: int, k: int, leading, tail: SparsePoly | None = None) -> np.ndarray:
    """uint8 grid of shape (p,)*n holding the bit 1 << f(x) for every tuple x,
    where f = sum a_i x_i^k + tail over GF(p)."""
    leading = tuple(int(a) for a in leading)
    n = len(leading)
    if not 2 <= p <= MAX_LATTICE_PRIME:
        raise HypothesisViolated(f"lattice route needs 2 <= p <= {MAX_LATTICE_PRIME}, got {p}")
    if any(a % p == 0 for a in leading):
        raise HypothesisViolated("leading coefficients must be nonzero mod p")
    if tail is not None and not tail.is_zero:
        if tail.nvars != n:
            raise HypothesisViolated(f"tail has {tail.nvars} variables, expected {n}")
        if tail.degree >= k:
            raise HypothesisViolated(f"tail degree {tail.degree} must be < k = {k}")
    total = _residue_values(p, np.ix_(*[np.arange(p, dtype=np.int64)] * n), k, leading, tail)
    return (np.uint8(1) << total.astype(np.uint8)).astype(np.uint8)


def _residue_values(p: int, axes, k: int, leading, tail: SparsePoly | None) -> np.ndarray:
    """int64 grid of f = sum a_i x_i^k + tail mod p over the open mesh ``axes``
    of np.ix_: each power is taken once per coordinate and broadcast."""
    total = sum((int(a) % p * pow_mod_grid(x, k, p) for a, x in zip(leading, axes)), np.int64(0)) % p
    if tail is not None and not tail.is_zero:
        for exps, c in tail.terms():
            term = int(c) % p
            for x, e in zip(axes, exps):
                if e:
                    term = term * pow_mod_grid(x, e, p) % p
            total += term
        total %= p
    return total


def pow_mod_grid(grid: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise grid**e mod p without overflow (square and multiply)."""
    out = np.ones_like(grid)
    base = grid % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _fold_axis(S: np.ndarray, axis: int, p: int, restricted: bool) -> np.ndarray:
    """Replace coordinate axis ``axis`` of S (size p) by a subset axis
    (size 2^p) whose entry m is the OR of S over the elements of m.  The axes
    before ``axis`` are still coordinates, so the injectivity constraint is
    exactly "skip x when some leading axis index equals x"."""
    M = 1 << p
    prefix = (p,) * axis
    trailing = S.ndim - axis - 1
    out = np.zeros(prefix + (M,) + S.shape[axis + 1 :], dtype=np.uint8)
    if restricted and axis > 0:
        grids = np.indices(prefix)
    sel = []
    for x in range(p):
        s_x = S[(slice(None),) * axis + (x,)]
        if restricted and axis > 0:
            bad = np.any(grids == x, axis=0).reshape(prefix + (1,) * trailing)
            s_x = np.where(bad, np.uint8(0), s_x)
        # ascontiguousarray promotes 0-d slices to 1-d; keep scalars scalar
        sel.append(np.ascontiguousarray(s_x) if np.ndim(s_x) else s_x)
    head = (slice(None),) * axis
    for m in range(1, M):
        x = (m & -m).bit_length() - 1
        out[head + (m,)] = out[head + (m & (m - 1),)] | sel[x]
    return out


def fold_masks(table: np.ndarray, p: int, restricted: bool = True) -> np.ndarray:
    """Fold the (p,)*n value grid into the (2^p,)*n grid of attained-value
    masks, one entry per family of subsets.  Axes fold last to first."""
    n = table.ndim
    _check_bytes((1 << p) ** n, f"the GF({p}), n = {n} mask grid")
    S = table
    for axis in range(n - 1, -1, -1):
        S = _fold_axis(S, axis, p, restricted)
    return S


def _popcount_order(p: int):
    """Masks 0..2^p-1 sorted by popcount, plus the group-start offsets."""
    M = 1 << p
    pops = np.bitwise_count(np.arange(M, dtype=np.uint32)).astype(np.int64)
    order = np.argsort(pops, kind="stable")
    starts = np.cumsum([0] + [comb(p, s) for s in range(p)])
    return order, starts


def _reduce_profiles(card: np.ndarray, p: int, axes) -> np.ndarray:
    """Minimum of ``card`` over the masks of each popcount, one subset axis
    of ``axes`` at a time; each reduced axis shrinks from 2^p to p+1."""
    order, starts = _popcount_order(p)
    for axis in axes:
        card = np.minimum.reduceat(card.take(order, axis=axis), starts, axis=axis)
    return card


def min_cardinality_by_sizes(mask_grid: np.ndarray, p: int) -> np.ndarray:
    """Reduce the (2^p,)*n mask grid to a (p+1,)*n array: entry [s1..sn] is
    the minimum value-set cardinality over all families with |A_i| = s_i."""
    n = mask_grid.ndim
    # the last axis first: its reduction shrinks the array the most cheaply
    return _reduce_profiles(np.bitwise_count(mask_grid), p, range(n - 1, -1, -1))


def lattice_min_cardinality(
    p: int,
    k: int,
    leading,
    tail: SparsePoly | None = None,
    restricted: bool = True,
) -> np.ndarray:
    """End-to-end lattice route: minimum cardinality per size profile, equal
    to ``min_cardinality_by_sizes(fold_masks(value_table(...)), p)``.

    Axes n-1..1 fold as in `fold_masks`, leaving S[x] = the slab of masks
    for A_1 = {x}.  The subsets of A_1 are then walked depth first, each one
    its parent plus a larger element, so a subset's slab is its parent's slab
    OR S[x]; only the chain of ancestor slabs is alive.  Each slab's
    popcounts fold into acc[|A_1|] at once.
    """
    n = len(leading)
    _check_bytes((3 * p + 3) * (1 << p) ** (n - 1), f"the GF({p}), n = {n} lattice")
    S = value_table(p, k, leading, tail)
    for axis in range(n - 1, 0, -1):
        S = _fold_axis(S, axis, p, restricted)
    acc = np.full((p + 1,) + S.shape[1:], np.iinfo(np.uint8).max, dtype=np.uint8)
    acc[0] = 0  # A_1 empty: no value is attained
    # an explicit stack, since a recursive closure would be a reference cycle
    # keeping S and acc alive until the cyclic collector runs
    chain = []  # (largest element, slab) for each prefix of the current subset
    x = 0
    while True:
        if x < p:
            cur = chain[-1][1] | S[x, ...] if chain else S[x, ...]
            chain.append((x, cur))
            row = acc[len(chain), ...]  # a view, even when n = 1
            np.minimum(row, np.bitwise_count(cur), out=row)
            x += 1
        elif chain:
            x = chain.pop()[0] + 1
        else:
            break
    return _reduce_profiles(acc, p, range(n - 1, 0, -1))


def check_lattice_bounds(min_card: np.ndarray, p: int, bound_fn):
    """Test every size profile against ``bound_fn(sizes) -> int | None``
    (None skips the profile).  Returns (checked, violations, tight) where
    violations and tight are tuples of (sizes, bound, minimum cardinality).
    """
    n = min_card.ndim
    checked = 0
    violations = []
    tight = []
    for sizes in itertools.product(range(1, p + 1), repeat=n):
        b = bound_fn(sizes)
        if b is None:
            continue
        checked += 1
        mc = int(min_card[sizes])
        if mc < b:
            violations.append((sizes, b, mc))
        elif mc == b:
            tight.append((sizes, b, mc))
    return checked, tuple(violations), tuple(tight)


# ---------- route 2: per-family vectorized evaluation ----------


def family_cardinality_fast(
    p: int,
    sets,
    k: int,
    leading=None,
    tail: SparsePoly | None = None,
    restricted: bool = True,
) -> int:
    """Value-set cardinality of one family over GF(p), residues as ints.

    Independent of the lattice route: evaluates f on the full tuple grid,
    applies the pairwise-distinct filter as a boolean mask, and counts
    distinct values.
    """
    n = len(sets)
    if leading is None:
        leading = (1,) * n
    # value, term, filter and np.unique's sorted copy, with room: n + 3 grids of 8 bytes a tuple
    _check_bytes(prod(len(s) for s in sets) * 8 * (n + 3), f"a family of {n} sets")
    axes = np.ix_(*(np.asarray(sorted(s), dtype=np.int64) % p for s in sets))
    total = _residue_values(p, axes, k, leading, tail)
    if restricted and n > 1:
        ok = np.ones(total.shape, dtype=bool)
        for j in range(n):
            for i in range(j):
                ok &= axes[i] != axes[j]
        vals = total[ok]
    else:
        vals = total.ravel()
    if vals.size == 0:
        return 0
    return int(np.unique(vals).size)
