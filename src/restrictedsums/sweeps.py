"""Vectorized sweeps over set families in prime fields, and per-family
counts over the rationals.

Two fast routes to value-set cardinalities, both cross-checked
against the exact backtracking enumerator in the test suite:

  * the subset lattice (`lattice_min_cardinality`): for every size profile
    (s_1, ..., s_n), the minimum value-set cardinality over every family of
    subsets of GF(p) with |A_i| = s_i.  Attained values are p-bit masks; the
    axes n..2 fold into subset axes, those past the first laid out once by
    popcount profile before it folds, and the folded slabs are cut into
    tiles of `LATTICE_TILE_BYTES` a slab along the first subset axis.  Each
    tile walks the subsets of A_1 depth first and ends in one segmented
    minimum over the profiles while it is in cache, so no (2^p)^n grid of
    masks is ever built and the walk's memory does not grow with the slab.
    Peak memory is the folded slabs, p*(2^p)^(n-1) bytes, and about 2 MB
    more: 17 MB and about 50 ms for GF(7), n = 4.  The byte guard sizes
    it by (3p+3)*(2^p)^(n-1) bytes, an upper bound on that peak;
  * the per-family int64 grid (`_family_counts`), reached only through
    `_value_counts`, the one function that picks each form's route.  It
    serves the CLI's `verify-bounds` and `tightness` scans, the sampled
    families of the acceptance criteria and the proof replay's shrunk
    family.  A scan hands it all of a family's forms, one per k, in one
    call.  The grid is cut into boxes, slabs along the first set past the
    byte guard, so every family the tuple guard admits is counted; each
    box's open mesh and pairwise-distinct mask are built once, and the
    forms are evaluated on it one at a time (`_residue_values`: one column
    of Python ints per axis, a_i*x^k plus the tail's terms in x_i alone,
    added by broadcasting), each form's restricted and unrestricted counts
    from its one grid.  Over GF(p) a count marks residues in a table of p
    flags wherever a box holds at least p tuples, and otherwise sorts the
    values; for the replay it keeps instead the first tuple in product
    order that reaches each value, over GF(p) and over Q alike.
    Over GF(p) the grid holds residues, whose products must fit int64, so
    it needs (p-1)^2 < 2^63.  Over Q it scales the family to
    integers u = L*x and the form to D*L^k*f, D the lcm of the denominators
    of its coefficients, and the grid holds those integer values unreduced;
    it needs a bound from the shapes (`_integer_route_fits`) that no value
    or partial sum passes 2^63.
    Whatever fails these goes to the exact enumerator, which stays the
    oracle.

Every route reads a `FieldForm`, the form as `poly._field_form` mapped
and checked it once against the family's field, and reads the values of
its mapped coefficients.  The grid reads a `SetFamily`, whose sets are
distinct elements of one field; the lattice alone takes raw
(p, k, leading, tail) and maps the form itself.  Over Q a form can be
scaled by a nonzero constant without changing its value-set cardinality,
which is what lets the integer grid hold L^k*f.

Both routes drop tuples with a repeated coordinate by one mask, `_injective`:
the per-family grid is filtered with it, and the lattice zeroes its value
table with it, so its folds, plain ORs, need no injectivity logic.

The lattice refuses a prime past `MAX_LATTICE_PRIME` first, then is sized
from the shapes and refused with `SearchSpaceTooLarge` when it would pass
`LATTICE_BYTE_GUARD` bytes; a family grid is never refused by bytes, only
counted in slabs.

Elements of GF(p) are the residues 0..p-1 throughout, so on the lattice a
subset is a p-bit mask and a set of attained values is again a p-bit mask.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from math import lcm, prod

import numpy as np

from .enumeration import ValueSetResult, _check_tuple_guard, _enumerate
from .errors import HypothesisViolated, SearchSpaceTooLarge
from .fields import prime_field
from .poly import FieldForm, PowerSumForm, SparsePoly, _field_form

MAX_LATTICE_PRIME = 8  # value masks live in uint8
LATTICE_BYTE_GUARD = 1 << 30  # largest allocation, in bytes, a sweep may ask for
LATTICE_TILE_BYTES = 1 << 17  # bytes of a lattice tile's slab, so its walk stays in cache


# ---------- seeded randomness ----------


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from any printable labels (hash of the joined text)."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def random_tail(rng: random.Random, n: int, k: int, max_terms: int = 3) -> SparsePoly:
    """A small integer polynomial of total degree < k in n variables.  Each
    term's exponent vector is uniform over those of degree < k: stars and
    bars, n bars among k - 1 + n places, the gaps before them its exponents."""
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        bars = sorted(rng.sample(range(k - 1 + n), n))
        exps = tuple(b - a - 1 for a, b in zip([-1, *bars], bars))
        coeff = rng.choice([1, -1]) * rng.randint(1, 3)
        terms[exps] = terms.get(exps, 0) + coeff
    return SparsePoly(n, terms)


# ---------- route 1: the subset lattice ----------


def _value_table(form: FieldForm) -> np.ndarray:
    """uint8 grid of shape (p,)*n holding the bit 1 << f(x) for every tuple x
    of GF(p)^n, for a form mapped into GF(p), p <= `MAX_LATTICE_PRIME`."""
    p = form.field.p
    total = _residue_values(np.ix_(*[np.arange(p, dtype=np.int64)] * form.n), form)
    return (np.uint8(1) << total.astype(np.uint8)).astype(np.uint8)


def _residue_route_fits(p: int) -> bool:
    """Whether GF(p) residues multiply in int64: every product of two
    residues, at most (p-1)^2, must stay below 2^63."""
    return (p - 1) ** 2 < 1 << 63


def _integer_route_fits(form: FieldForm, sets) -> bool:
    """Whether f = sum a_i u_i^k + tail, a form over Q with integer
    coefficients, stays below 2^63 in absolute value, partial sums and
    products included, at every point of the integer sets: with
    M = max(|u|, 1) over the sets, M^k * sum |a_i| + sum |c_e| * M^|e| < 2^63."""
    top = max([1] + [abs(u) for s in sets for u in s])
    bound = top**form.k * sum(abs(a.value) for a in form.leading)
    return bound + sum(abs(c.value) * top ** sum(e) for e, c in form.tail.terms()) < 1 << 63


def _mod(v, p: int | None):
    """v mod p, or v itself over the integers (p None)."""
    return v if p is None else v % p


def _residue_values(axes, form: FieldForm) -> np.ndarray:
    """int64 grid of f mod p over the open mesh ``axes`` of np.ix_, for a
    form mapped into GF(p).  Each axis gets one column, a_i*x^k plus the
    tail's terms in x_i alone (the constant joins the first), worked out in
    Python ints and reduced mod p; the n columns are added by broadcasting.
    A mixed monomial is the broadcast product of its factors' power
    columns, reduced after each factor, as each product is at most
    (p-1)^2.  Over Q the grid holds f itself, unreduced, which
    `_integer_route_fits` must have shown to fit int64."""
    p = form.field.p
    points = [x.ravel().tolist() for x in axes]

    def column(i, terms):  # sum of c * x^e over the coordinates of axis i
        values = [_mod(sum(c * pow(x, e, p) for c, e in terms), p) for x in points[i]]
        return np.array(values, dtype=np.int64).reshape(axes[i].shape)

    own = [[(int(a.value), form.k)] for a in form.leading]  # each axis's one-variable terms
    mixed = []
    for exps, c in form.tail.terms():
        used = [i for i, e in enumerate(exps) if e]
        if len(used) > 1:
            mixed.append((int(c.value), exps))
        else:
            own[used[0] if used else 0].append((int(c.value), exps[used[0]] if used else 0))
    total = sum(itertools.starmap(column, enumerate(own[1:], start=1)), column(0, own[0]))
    for c, exps in mixed:
        term = c
        for i, e in enumerate(exps):
            if e:
                term = _mod(term * column(i, [(1, e)]), p)
        total += term
    return total if p is None else np.remainder(total, p, out=total)


def _fold_axis(S: np.ndarray, axis: int, p: int) -> np.ndarray:
    """Replace coordinate axis ``axis`` >= 1 of S (size p) by a subset axis
    (size 2^p) whose entry m is the OR of S over the elements of m."""
    M = 1 << p
    out = np.zeros(S.shape[:axis] + (M,) + S.shape[axis + 1 :], dtype=np.uint8)
    head = (slice(None),) * axis
    sel = [np.ascontiguousarray(S[head + (x,)]) for x in range(p)]
    for m in range(1, M):
        x = (m & -m).bit_length() - 1
        out[head + (m,)] = out[head + (m & (m - 1),)] | sel[x]
    return out


def _profile_groups(p: int, axes: int):
    """(order, starts) for ``axes`` subset axes of size 2^p read as one
    axis of (2^p)^axes positions in C order: ``order`` lists the positions
    of each popcount profile together, the profiles in C order, and run j
    starts at ``starts[j]``.  No run is empty, as reduceat needs: a profile
    (s_1, ...) has C(p, s_1)*... >= 1 positions."""
    key = np.zeros(1, dtype=np.int64)  # each position's profile, as its C-order index
    for _ in range(axes):
        key = (key[:, None] * (p + 1) + np.bitwise_count(np.arange(1 << p))).ravel()
    order = np.argsort(key, kind="stable")
    return order, np.searchsorted(key[order], np.arange((p + 1) ** axes))


def _walk_subsets(S: np.ndarray, p: int) -> np.ndarray:
    """acc with acc[s] = the fewest attained values, at each position of a
    slab, over the subsets A_1 of GF(p) with |A_1| = s: the minimum
    popcount of the OR of the slabs S[x] for x in A_1.

    The subsets are walked depth first, each one its parent plus a larger
    element, so a subset's slab is its parent's slab OR S[x]; only the
    chain of ancestor slabs is alive, in one buffer of p - 1 slabs, and
    each slab's popcounts fold into acc[|A_1|] at once.
    """
    slab = S.shape[1:]
    acc = np.full((p + 1,) + slab, np.iinfo(np.uint8).max, dtype=np.uint8)
    acc[0] = 0  # A_1 empty: no value is attained
    count = np.empty(slab, dtype=np.uint8)
    # lists of views, which index without numpy's overhead
    sources, rows = list(S), list(acc)
    links = list(np.empty((p - 1,) + slab, dtype=np.uint8))  # the slabs of prefixes of 2.. elements
    chain = []  # (largest element, slab) for each prefix of the current subset
    x = 0
    while True:
        if x < p:
            cur = sources[x]
            if chain:
                cur = np.bitwise_or(chain[-1][1], cur, out=links[len(chain) - 1])
            chain.append((x, cur))
            np.bitwise_count(cur, out=count)
            np.minimum(rows[len(chain)], count, out=rows[len(chain)])
            x += 1
        elif chain:
            x = chain.pop()[0] + 1
        else:
            return acc


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

    When ``restricted``, the value table is first zeroed at the tuples with
    a repeated coordinate, so the ORs below see only injective tuples.

    Axes n-1..2 fold into subset axes, read as one axis of (2^p)^(n-2)
    positions and permuted once (`_profile_groups`) so that the positions
    of each profile (|A_3|, ..., |A_n|) form one run.  Axis 1 folds only
    then, as its OR is blind to that order, leaving S[x] = the slab of
    masks for A_1 = {x}.  S is cut along axis 1 into tiles of about
    `LATTICE_TILE_BYTES` bytes a slab; each tile runs the whole walk over
    the subsets of A_1 (`_walk_subsets`) and one segmented minimum over
    the runs while it is in cache.  The tiles' blocks are joined, and
    axis 1 is reduced last, by the same helper for one axis.

    The byte guard's estimate, (3p+3)*(2^p)^(n-1), bounds the peak from
    above: the walk holds the folded slabs, p*(2^p)^(n-1) bytes, and a
    tile's buffers, and the last fold its output, the same size, its input,
    the permuted p^2*(2^p)^(n-2)-byte copy (the unpermuted one is freed by
    then), and that input's p rows copied out, p + 2p^2/2^p < 3p+3 times
    (2^p)^(n-1) bytes.
    """
    n = len(leading)
    form = _field_form(prime_field(p), n, PowerSumForm(k, leading, SparsePoly.zero(n) if tail is None else tail))
    if not 2 <= p <= MAX_LATTICE_PRIME:  # before the byte estimate, a p*(n-1)-bit int
        raise HypothesisViolated(f"lattice route needs 2 <= p <= {MAX_LATTICE_PRIME}, got {p}")
    nbytes = (3 * p + 3) * (1 << p) ** (n - 1)
    if nbytes > LATTICE_BYTE_GUARD:
        raise SearchSpaceTooLarge(
            f"the GF({p}), n = {n} lattice needs about {nbytes} bytes, "
            f"over the {LATTICE_BYTE_GUARD}-byte guard"
        )
    S = _value_table(form)
    if restricted:
        S[~_injective(np.ix_(*[np.arange(p)] * n))] = 0
    for axis in range(n - 1, 1, -1):
        S = _fold_axis(S, axis, p)
    order, starts = _profile_groups(p, max(n - 2, 0))
    S = S.reshape(p, -1, len(order)).take(order, axis=2)  # n = 1 gains two unit axes
    del order  # 8 bytes a position: kept, it would raise the walk's peak
    if n > 1:
        S = _fold_axis(S, 1, p)
    step = max(LATTICE_TILE_BYTES // S.shape[2], 1)
    tiles = (S[:, lo : lo + step] for lo in range(0, S.shape[1], step))
    acc = np.concatenate([np.minimum.reduceat(_walk_subsets(t, p), starts, axis=2) for t in tiles], axis=1)
    if n > 1:
        order, starts = _profile_groups(p, 1)
        acc = np.minimum.reduceat(acc.take(order, axis=1), starts, axis=1)
    return acc.reshape((p + 1,) * n)


def check_lattice_bounds(min_card: np.ndarray, p: int, bound_fn):
    """Test every size profile against ``bound_fn(sizes) -> int | None``
    (None skips the profile).  Returns (checked, violations, tight) where
    violations and tight are tuples of (sizes, bound, minimum cardinality).
    """
    n = min_card.ndim
    checked = 0
    violations = []
    tight = []
    # the nonempty profiles' minima, read once, in the order of the loop
    minima = min_card[(slice(1, None),) * n].ravel().tolist()
    for sizes, mc in zip(itertools.product(range(1, p + 1), repeat=n), minima):
        b = bound_fn(sizes)
        if b is None:
            continue
        checked += 1
        if mc < b:
            violations.append((sizes, b, mc))
        elif mc == b:
            tight.append((sizes, b, mc))
    return checked, tuple(violations), tuple(tight)


# ---------- route 2: per-family vectorized evaluation ----------


def _value_counts(family, forms, variants, guard_tuples: int, witnesses: bool = False) -> tuple:
    """Value-set cardinalities on a `SetFamily` of each form of ``forms``,
    forms mapped into its field (a scan's one per k), one per flag of
    ``variants`` (True: pairwise-distinct tuples only), with the
    enumerator's tuple guard: one result per form.  The one place that
    picks each form's route: the int64 grid of `_family_counts` where it
    provably fits, else the exact enumerator; the forms on the grid are
    counted together.  Over Q the grid holds D * L^k * f(x) at u = L*x, L
    the lcm of the elements' denominators, worked out once for the family,
    and D that of the form's coefficients, once per form; a nonzero scale
    keeps values apart and u_i = u_j iff x_i = x_j, so the counts are
    unchanged.

    With ``witnesses`` each flag gets the `ValueSetResult` the enumerator
    gives with witnesses: the values sorted, the first tuple in product
    order that reaches each, and the count of tuples examined.  The grid
    serves it wherever it counts: a residue is read back as its element,
    and a scaled value v as f = v / (D * L^k), in the same order.
    """
    field = family.field
    _check_tuple_guard(family.sizes, guard_tuples)
    grid = {}  # the index of each form on the grid: (the form it counts, its scale)
    if field.is_prime_field:
        sets = [[x.value for x in s] for s in family.sets]
        if _residue_route_fits(field.p):
            grid = {i: (form, 1) for i, form in enumerate(forms)}
    else:
        scale = lcm(*(x.value.denominator for s in family.sets for x in s))
        sets = [[int(x.value * scale) for x in s] for s in family.sets]
        for i, form in enumerate(forms):
            grid_form, unit = _scaled_form(form, scale)
            if _integer_route_fits(grid_form, sets):
                grid[i] = grid_form, unit
    counted = {}
    if grid:
        counted = dict(zip(grid, _family_counts(sets, [f for f, _ in grid.values()], variants, witnesses)))
    results = []
    for i, form in enumerate(forms):
        if i not in grid:
            runs = [_enumerate(family, form, restricted, guard_tuples, witnesses) for restricted in variants]
            results.append(tuple(runs) if witnesses else tuple(run.cardinality for run in runs))
        elif not witnesses:
            results.append(counted[i])
        else:
            runs = []
            for restricted, (grid_values, points, examined) in zip(variants, counted[i]):
                values = tuple(field.element(Fraction(v, grid[i][1])) for v in grid_values.tolist())
                first = {v: tuple(s[j] for s, j in zip(family.sets, row)) for v, row in zip(values, points.tolist())}
                runs.append(ValueSetResult(values, examined, restricted, first))
            results.append(tuple(runs))
    return tuple(results)


def _scaled_form(form: FieldForm, scale: int) -> tuple:
    """(D * L^k * f as a form in u = L*x, D * L^k) for a form over Q, with
    L = ``scale`` and D the lcm of the denominators of the form's
    coefficients: its leading coefficients become D*a_i and its tail
    coefficients D*c_e*L^(k-|e|), all integers."""
    form_scale = lcm(*(c.value.denominator for c in [*form.leading, *dict(form.tail.terms()).values()]))

    def scaled(c, power=1):  # D * c * power, an integer, as an element
        return form.field.element(c.value.numerator * (form_scale // c.value.denominator) * power)

    tail = {e: scaled(c, scale ** (form.k - sum(e))) for e, c in form.tail.terms()}
    grid_form = FieldForm(form.field, form.k, tuple(map(scaled, form.leading)), SparsePoly._trusted(form.n, tail))
    return grid_form, form_scale * scale**form.k


def _family_counts(sets, forms, variants, witnesses: bool = False) -> tuple:
    """Value-set cardinalities of one family for each form of ``forms``, one
    per flag of ``variants`` (True: pairwise-distinct tuples only), all
    over one GF(p), or over the integers when their field is Q.  Its one
    caller, `_value_counts`, has chosen this route: each set holds distinct
    residues mod p or lcm-scaled rationals, on which every form fits int64.

    The tuple grid is cut into boxes of at most `LATTICE_BYTE_GUARD` bytes,
    slabs along the first set, so a family of any size is counted.  Each
    box's open mesh and its pairwise-distinct mask are built once, and the
    forms are evaluated on it one at a time, so one form's grid is alive
    at a time.  The values of each box are merged into those of the boxes
    before (`_merge_values`).  With ``witnesses`` each flag gets instead
    (values, points, examined): the distinct values sorted, beside each the
    indices into the sets of the first tuple in product order that reaches
    it (`_first_seen`), and the number of tuples the flag admits.
    """
    coords = [np.asarray(s, dtype=np.int64) for s in sets]
    p = forms[0].field.p
    # values, their reduction, the filter, the filtered and the sorted copy,
    # with room: n + 3 grids of 8 bytes a tuple
    budget = max(LATTICE_BYTE_GUARD // (8 * (len(sets) + 3)), 1)
    seen = [[None] * len(variants) for _ in forms]
    # boxes of indices into the sets, so a witness is read off its box
    for box in _boxes([np.arange(len(c)) for c in coords], budget):
        axes = np.ix_(*map(np.take, coords, box))
        injective = _injective(axes) if True in variants else None
        for form_seen, form in zip(seen, forms):
            total = _residue_values(axes, form)
            for j, restricted in enumerate(variants):
                keep = injective if restricted else None
                if witnesses:
                    form_seen[j] = _first_seen(form_seen[j], total, keep, box)
                else:
                    vals = total.ravel() if keep is None else total[keep]
                    form_seen[j] = _merge_values(form_seen[j], vals, p, total.size)
            del total  # one form's grid at a time
    if witnesses:
        return tuple(map(tuple, seen))
    return tuple(tuple(int(np.count_nonzero(v) if v.dtype == bool else v.size) for v in s) for s in seen)


def _merge_values(seen, vals: np.ndarray, p: int | None, tuples: int) -> np.ndarray:
    """``seen``, the distinct values of the boxes before, with a box's values
    ``vals`` merged in.  Over GF(p) a box of at least p tuples marks its
    residues in a table of p flags, OR-ed with those before, and a table,
    once made, takes every later box; otherwise the values are kept sorted
    and distinct (`_distinct`)."""
    if seen is not None and seen.dtype == bool:
        seen[vals] = True
        return seen
    if p is None or p > tuples:
        return _distinct(vals if seen is None else np.concatenate((seen, vals)))
    table = np.bincount(vals, minlength=p) > 0
    if seen is not None:
        table[seen] = True
    return table


def _first_seen(seen, total: np.ndarray, keep, box) -> tuple:
    """``seen``, the (values, points, examined) of the boxes before, with
    the box ``box`` of index arrays merged in: ``total`` holds its values,
    of which the tuples ``keep`` marks count (all when None).  Boxes come
    in product order and C order runs through a box in product order, so a
    value's first tuple is its first in the earliest box that reaches it;
    a stable sort keeps that one."""
    flat = np.arange(total.size) if keep is None else np.flatnonzero(keep)
    examined = flat.size
    flat = flat[_first_of_each(total.ravel()[flat])]
    values = total.ravel()[flat]
    points = np.stack([b[i] for b, i in zip(box, np.unravel_index(flat, total.shape))], axis=-1)
    if seen is not None:
        values, points = np.concatenate((seen[0], values)), np.concatenate((seen[1], points))
        first = _first_of_each(values)
        values, points, examined = values[first], points[first], examined + seen[2]
    return values, points, examined


def _first_of_each(vals: np.ndarray) -> np.ndarray:
    """The position of the first occurrence of each distinct entry of a 1-D
    array, in the order of the entries' values: one stable argsort."""
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    keep = np.ones(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=keep[1:])
    return order[keep]


def _injective(axes) -> np.ndarray:
    """Boolean grid over the open mesh ``axes`` of np.ix_, True where the
    coordinates are pairwise distinct."""
    ok = np.ones(np.broadcast_shapes(*(x.shape for x in axes)), dtype=bool)
    for b in range(len(axes)):
        for a in range(b):
            ok &= axes[a] != axes[b]
    return ok


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
