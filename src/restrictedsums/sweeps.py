"""Vectorized sweeps over set families in prime fields, and per-family
counts over the rationals.

Two independent fast routes to value-set cardinalities, both cross-checked
against the exact backtracking enumerator in the test suite:

  * the subset lattice (`lattice_min_cardinality`): for every size profile
    (s_1, ..., s_n), the minimum value-set cardinality over every family of
    subsets of GF(p) with |A_i| = s_i.  Attained values are p-bit masks; the
    axes n..2 fold into subset axes, and the subsets of A_1 are walked depth
    first, each slab of (2^p)^(n-1) masks going straight into the
    per-profile minimum, so no (2^p)^n grid of masks is ever built.  Peak
    memory is about (3p+3)*(2^p)^(n-1) bytes: 50 MB and a fraction of a
    second for GF(7), n = 4;
  * a per-family vectorized evaluation (`family_cardinality_fast`) for
    seeded samples at primes too large for the lattice.  The same evaluation
    serves the CLI's `verify-bounds` and `tightness` scans, which take a
    family's restricted and unrestricted counts from one int64 grid and cut
    a grid past the byte guard into slabs along the first set, so every
    family the tuple guard admits is counted.  Over GF(p) the grid holds
    residues, whose products must fit int64, so it needs (p-1)^2 < 2^63.
    Over Q (``p=None``) the CLI scales the family to integers u = L*x and
    the form to L^k*f, and the grid holds those integer values unreduced; it
    needs integer coefficients and a bound from the shapes
    (`_integer_route_fits`) that no value or partial sum passes 2^63.
    Whatever fails these stays on the exact enumerator.

Every array these routes allocate is sized from the shapes first and refused
with `SearchSpaceTooLarge` when it would pass `LATTICE_BYTE_GUARD` bytes.

Elements of GF(p) are the residues 0..p-1 throughout, so on the lattice a
subset is a p-bit mask and a set of attained values is again a p-bit mask.
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


# ---------- route 1: the subset lattice ----------


def _value_table(p: int, k: int, leading, tail: SparsePoly | None = None) -> np.ndarray:
    """uint8 grid of shape (p,)*n holding the bit 1 << f(x) for every tuple x,
    where f = sum a_i x_i^k + tail over GF(p)."""
    n = len(leading)
    if not 2 <= p <= MAX_LATTICE_PRIME:
        raise HypothesisViolated(f"lattice route needs 2 <= p <= {MAX_LATTICE_PRIME}, got {p}")
    _check_residue_form(p, n, k, leading, tail)
    total = _residue_values(p, np.ix_(*[np.arange(p, dtype=np.int64)] * n), k, leading, tail)
    return (np.uint8(1) << total.astype(np.uint8)).astype(np.uint8)


def _residue_route_fits(p: int) -> bool:
    """Whether GF(p) residues multiply in int64: every product of two
    residues, at most (p-1)^2, must stay below 2^63."""
    return (p - 1) ** 2 < 1 << 63


def _integer_route_fits(k: int, leading, tail: SparsePoly | None, sets) -> bool:
    """Whether f = sum a_i u_i^k + tail, with integer coefficients, stays
    below 2^63 in absolute value, partial sums and products included, at
    every point of the integer sets: with M = max(|u|, 1) over the sets,
    M^k * sum |a_i| + sum |c_e| * M^|e| < 2^63."""
    terms = [] if tail is None else list(tail.terms())
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in [*leading, *(c for _, c in terms)]):
        return False
    top = max([1] + [abs(u) for s in sets for u in s])
    bound = top**k * sum(abs(a) for a in leading) + sum(abs(c) * top ** sum(e) for e, c in terms)
    return bound < 1 << 63


def _mod(v, p: int | None):
    """v mod p, or v itself over the integers (p None)."""
    return v if p is None else v % p


def _check_residue_form(p: int | None, n: int, k: int, leading, tail: SparsePoly | None) -> None:
    """Refuse what the residue evaluator would otherwise truncate or overflow
    (p None: plain integers, whose size `_integer_route_fits` settles)."""
    if n < 1:
        raise HypothesisViolated("need at least one variable")
    if p is not None and not _residue_route_fits(p):
        raise HypothesisViolated(f"residues mod {p} overflow int64 products; use the exact enumerator")
    if len(leading) != n:
        raise HypothesisViolated(f"{len(leading)} leading coefficients for {n} variables")
    if any(_mod(int(a), p) == 0 for a in leading):
        raise HypothesisViolated("leading coefficients must be nonzero" + ("" if p is None else f" mod {p}"))
    if tail is not None and not tail.is_zero:
        if tail.nvars != n:
            raise HypothesisViolated(f"tail has {tail.nvars} variables, expected {n}")
        if tail.degree >= k:
            raise HypothesisViolated(f"tail degree {tail.degree} must be < k = {k}")


def _residue_values(p: int | None, axes, k: int, leading, tail: SparsePoly | None) -> np.ndarray:
    """int64 grid of f = sum a_i x_i^k + tail mod p over the open mesh ``axes``
    of np.ix_: each power is taken once per coordinate and broadcast.  Each
    product, at most (p-1)^2, is reduced before it is summed.  With p None
    the grid holds f itself, unreduced, which `_integer_route_fits` must
    have shown to fit int64."""

    def power(x, e):
        return x**e if p is None else _pow_mod_grid(x, e, p)

    total = _mod(sum((_mod(_mod(int(a), p) * power(x, k), p) for a, x in zip(leading, axes)), np.int64(0)), p)
    if tail is not None and not tail.is_zero:
        for exps, c in tail.terms():
            term = _mod(int(c), p)
            for x, e in zip(axes, exps):
                if e:
                    term = _mod(term * power(x, e), p)
            total += term
        total = _mod(total, p)
    return total


def _pow_mod_grid(grid: np.ndarray, e: int, p: int) -> np.ndarray:
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
    """Replace coordinate axis ``axis`` >= 1 of S (size p) by a subset axis
    (size 2^p) whose entry m is the OR of S over the elements of m.  The axes
    before ``axis`` are still coordinates, so the injectivity constraint is
    exactly "skip x when some leading axis index equals x"."""
    M = 1 << p
    prefix = (p,) * axis
    trailing = S.ndim - axis - 1
    out = np.zeros(prefix + (M,) + S.shape[axis + 1 :], dtype=np.uint8)
    grids = np.indices(prefix)
    sel = []
    for x in range(p):
        s_x = S[(slice(None),) * axis + (x,)]
        if restricted:
            bad = np.any(grids == x, axis=0).reshape(prefix + (1,) * trailing)
            s_x = np.where(bad, np.uint8(0), s_x)
        sel.append(np.ascontiguousarray(s_x))
    head = (slice(None),) * axis
    for m in range(1, M):
        x = (m & -m).bit_length() - 1
        out[head + (m,)] = out[head + (m & (m - 1),)] | sel[x]
    return out


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


def lattice_min_cardinality(
    p: int,
    k: int,
    leading,
    tail: SparsePoly | None = None,
    restricted: bool = True,
) -> np.ndarray:
    """The (p+1,)*n uint8 array whose entry [s_1, ..., s_n] is the minimum
    value-set cardinality of f = sum a_i x_i^k + tail over every family of
    subsets A_i of GF(p) with |A_i| = s_i (injective tuples only when
    ``restricted``); a profile with an empty set attains no value.

    Axes n-1..1 fold into subset axes, leaving S[x] = the slab of masks for
    A_1 = {x}.  The subsets of A_1 are then walked depth first, each one
    its parent plus a larger element, so a subset's slab is its parent's slab
    OR S[x]; only the chain of ancestor slabs is alive.  Each slab's
    popcounts fold into acc[|A_1|] at once.
    """
    n = len(leading)
    _check_bytes((3 * p + 3) * (1 << p) ** (n - 1), f"the GF({p}), n = {n} lattice")
    S = _value_table(p, k, leading, tail)
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
    _check_bytes(prod(len(s) for s in sets) * _grid_bytes(n), f"a family of {n} sets")
    return _family_counts(p, sets, k, leading, tail, (restricted,))[0]


def _grid_bytes(n: int) -> int:
    # values, their reduction, the filter, the filtered and the sorted copy,
    # with room: n + 3 grids of 8 bytes a tuple
    return 8 * (n + 3)


def _family_counts(p: int | None, sets, k: int, leading, tail: SparsePoly | None, variants) -> tuple:
    """Value-set cardinality of one family for each flag of ``variants``
    (True: pairwise-distinct tuples only), all from one evaluation of f,
    over GF(p), or over the integers when p is None.

    The tuple grid is cut into boxes of at most `LATTICE_BYTE_GUARD` bytes,
    slabs along the first set, so a family of any size is counted; the
    distinct values of each box are merged into those of the boxes before.
    """
    n = len(sets)
    _check_residue_form(p, n, k, leading, tail)
    reduced = [[_mod(int(x), p) for x in s] for s in sets]
    for i, s in enumerate(reduced, start=1):
        if len(set(s)) != len(s):
            where = "" if p is None else f" mod {p}"
            raise HypothesisViolated(f"set {i} repeats an element{where}: {list(sets[i - 1])}")
    if p is None and not _integer_route_fits(k, leading, tail, reduced):
        raise HypothesisViolated("integer values may overflow int64; use the exact enumerator")
    coords = [np.asarray(s, dtype=np.int64) for s in reduced]
    budget = max(LATTICE_BYTE_GUARD // _grid_bytes(n), 1)
    seen = [None] * len(variants)
    for box in _boxes(coords, budget):
        axes = np.ix_(*box)
        total = _residue_values(p, axes, k, leading, tail)
        for j, restricted in enumerate(variants):
            if restricted and n > 1:
                ok = np.ones(total.shape, dtype=bool)
                for b in range(n):
                    for a in range(b):
                        ok &= axes[a] != axes[b]
                vals = total[ok]
            else:
                vals = total.ravel()
            seen[j] = _distinct(vals if seen[j] is None else np.concatenate((seen[j], vals)))
    return tuple(int(values.size) for values in seen)


def _boxes(coords, budget: int):
    """Cover the product of the coordinate arrays with boxes of at most
    ``budget`` tuples: slabs of the first array, and when one of its elements
    alone is over budget, that element times the boxes of the rest."""
    first, rest = coords[0], coords[1:]
    width = budget // max(prod(len(c) for c in rest), 1)
    if width >= len(first):
        yield coords
    elif width:
        for i in range(0, len(first), width):
            yield [first[i : i + width], *rest]
    else:
        for i in range(len(first)):
            for box in _boxes(rest, budget):
                yield [first[i : i + 1], *box]


def _distinct(vals: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, sorted: a sort and an adjacent
    difference (np.unique would import numpy.ma, a megabyte of memory)."""
    vals = np.sort(vals)
    keep = np.ones(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=keep[1:])
    return vals[keep]
