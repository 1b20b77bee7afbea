"""Exhaustive value-set enumeration over explicit set families.

This is the ground-truth side of every bound check: walk all (injective)
tuples of a family with exact field arithmetic and collect the attained
values.  Guards keep accidental combinatorial explosions from hanging a run;
they raise :class:`SearchSpaceTooLarge` with the offending product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, prod

from .errors import (
    ArityMismatch,
    ConfigError,
    HypothesisViolated,
    Infeasible,
    NotPrime,
    SearchSpaceTooLarge,
)
from .fields import FieldDescriptor, FieldElement, parse_field
from .poly import FieldForm, PowerSumForm, _field_form

DEFAULT_TUPLE_GUARD = 10_000_000


@dataclass(frozen=True)
class SetFamily:
    """A tuple of finite subsets of one field, each sorted and duplicate-free."""

    field: FieldDescriptor
    sets: tuple

    @classmethod
    def from_elements(cls, field: FieldDescriptor, sets) -> "SetFamily":
        normalized = []
        for i, raw in enumerate(sets, start=1):
            elems = [field.element(x) for x in raw]
            if len({e.value for e in elems}) != len(elems):
                raise ValueError(f"set {i} has duplicate elements: {list(raw)}")
            normalized.append(tuple(sorted(elems, key=lambda e: e.sort_key())))
        return cls(field, tuple(normalized))

    @property
    def n(self) -> int:
        return len(self.sets)

    @cached_property
    def sizes(self) -> tuple:
        return tuple(len(s) for s in self.sets)

    @cached_property
    def shared_set(self) -> bool:
        """Whether every set is the same set, read once from the element
        values (the sets are sorted and of one field)."""
        first = [x.value for x in self.sets[0]]
        return all([x.value for x in s] == first for s in self.sets[1:])

    def subfamily(self, sizes) -> "SetFamily":
        """Keep the first ``sizes[i]`` elements of each set (canonical order)."""
        sizes = tuple(sizes)
        if len(sizes) != self.n:
            raise ArityMismatch(f"{len(sizes)} sizes for {self.n} sets")
        for have, want in zip(self.sizes, sizes):
            if want > have:
                raise HypothesisViolated(f"cannot shrink a set of size {have} to {want}")
        return SetFamily(self.field, tuple(s[:w] for s, w in zip(self.sets, sizes)))


def _config_field(text) -> FieldDescriptor:
    """`parse_field` for a config: every refusal is a `ConfigError`."""
    try:
        return parse_field(text)
    except (ValueError, TypeError, NotPrime) as exc:
        raise ConfigError(str(exc)) from exc


def family_from_json(source) -> SetFamily:
    """Parse ``{"field": "gf(7)", "sets": [[0,1,2], [0,1,2]]}``.

    Rational elements may be written as ints or "a/b" strings.
    """
    if isinstance(source, str):
        source = json.loads(source)
    if not isinstance(source, dict):
        raise ConfigError(f"family JSON must be an object, got {type(source).__name__}")
    unknown = set(source) - {"field", "sets"}
    if unknown:
        raise ConfigError(f"unknown family keys: {sorted(unknown)}")
    if "field" not in source or "sets" not in source:
        raise ConfigError('family JSON needs "field" and "sets"')
    field = _config_field(source["field"])
    sets = source["sets"]
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise ConfigError('"sets" must be a list of lists')
    try:
        return SetFamily.from_elements(field, sets)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def family_to_json(family: SetFamily) -> dict:
    def encode(e: FieldElement):
        if isinstance(e.value, Fraction):
            return str(e.value) if e.value.denominator != 1 else int(e.value)
        return e.value

    return {
        "field": str(family.field),
        "sets": [[encode(e) for e in s] for s in family.sets],
    }


@dataclass(frozen=True)
class ValueSetResult:
    values: tuple
    tuples_examined: int
    restricted: bool
    witnesses: dict | None = None

    @property
    def cardinality(self) -> int:
        return len(self.values)


def _check_tuple_guard(sizes, guard_tuples: int) -> None:
    """Refuse a family whose tuple grid is larger than the guard."""
    space = prod(sizes)
    if space > guard_tuples:
        raise SearchSpaceTooLarge(f"family spans {space} tuples, guard is {guard_tuples}")


def _enumerate(family, form: FieldForm, restricted, guard_tuples, collect_witnesses):
    """The value set on ``family`` of a form mapped into its field, which
    the caller has checked once for all its enumerations."""
    field, n = family.field, family.n
    _check_tuple_guard(family.sizes, guard_tuples)
    # a_i * x^k once per element, not once per tuple
    lead = [{x: a * x**form.k for x in s} for a, s in zip(form.leading, family.sets)]
    tail = form.tail
    tail_is_zero = tail.is_zero
    seen: dict = {}
    used: set = set()
    point: list = []
    examined = 0

    def rec(i, acc):
        nonlocal examined
        if i == n:
            value = acc if tail_is_zero else acc + tail.eval(point)
            examined += 1
            if value not in seen:
                seen[value] = tuple(point) if collect_witnesses else None
            return
        contrib = lead[i]
        for x in family.sets[i]:
            if restricted and x in used:
                continue
            point.append(x)
            if restricted:
                used.add(x)
            rec(i + 1, acc + contrib[x])
            if restricted:
                used.remove(x)
            point.pop()

    rec(0, field.zero)
    values = tuple(sorted(seen, key=lambda e: e.sort_key()))
    witnesses = {v: seen[v] for v in values} if collect_witnesses else None
    return ValueSetResult(values, examined, restricted, witnesses)


def restricted_value_set(
    family: SetFamily,
    f: PowerSumForm,
    guard_tuples: int = DEFAULT_TUPLE_GUARD,
    collect_witnesses: bool = False,
) -> ValueSetResult:
    """Values of f over tuples with pairwise distinct coordinates."""
    return _enumerate(family, _field_form(family.field, family.n, f), True, guard_tuples, collect_witnesses)


def unrestricted_value_set(
    family: SetFamily,
    f: PowerSumForm,
    guard_tuples: int = DEFAULT_TUPLE_GUARD,
    collect_witnesses: bool = False,
) -> ValueSetResult:
    """Values of f over all tuples of the family."""
    return _enumerate(family, _field_form(family.field, family.n, f), False, guard_tuples, collect_witnesses)


@dataclass(frozen=True)
class MultiplicityProfile:
    """Combinatorial model of choosing n distinct k-th roots.

    The available root targets are the integers 1..q (k distinct roots each)
    and q+1 (r distinct roots, 0 <= r < k).  A selection is a multiplicity
    vector within those caps summing to n; its value is the weighted sum.
    All arithmetic is over the integers, no complex roots are materialized.
    """

    k: int
    q: int
    r: int
    n: int

    def __post_init__(self):
        if any(type(v) is not int for v in (self.k, self.q, self.r, self.n)):
            raise HypothesisViolated(f"k, q, r and n must be integers (not bools), got {self}")
        if self.k < 1 or self.q < 0 or not 0 <= self.r < self.k:
            raise HypothesisViolated(f"need k >= 1, q >= 0, 0 <= r < k; got {self}")
        if not 1 <= self.n <= self.size:
            raise Infeasible(f"cannot choose {self.n} distinct roots from {self.size}")

    @property
    def size(self) -> int:
        return self.k * self.q + self.r

    @cached_property
    def vectors(self) -> int:
        """The multiplicity vectors `multiplicity_value_set` visits, those
        within the caps that sum to n, counted exactly in closed form.
        Inclusion-exclusion over the j targets of cap k forced past it, in
        C(q, j) ways, leaves m = n - j(k + 1) roots.  With y <= min(r, m) of
        them at target q + 1, the rest spread over the q targets in
        C(m - y + q - 1, q - 1) ways, which sum over y, by the hockey stick,
        to C(m + q, q) - C(m - min(r, m) + q - 1, q).  With q = 0 the n <= r
        roots all go to target 1."""
        k, q, r, n = self.k, self.q, self.r, self.n
        if q == 0:
            return int(n <= r)
        total = 0
        for j in range(min(q, n // (k + 1)) + 1):
            m = n - j * (k + 1)
            total += (-1) ** j * comb(q, j) * (comb(m + q, q) - comb(m - min(r, m) + q - 1, q))
        return total


def _check_vector_guard(profile: MultiplicityProfile, guard_tuples: int) -> None:
    """Refuse a sharpness-model profile with more multiplicity vectors than
    the guard."""
    vectors = profile.vectors
    if vectors > guard_tuples:
        raise SearchSpaceTooLarge(f"profile spans {vectors} multiplicity vectors, guard is {guard_tuples}")


def multiplicity_value_set(profile: MultiplicityProfile) -> ValueSetResult:
    """All achievable weighted sums of the multiplicity model, exactly."""
    caps = [profile.k] * profile.q + [profile.r]
    values: set[int] = set()
    examined = 0

    def rec(idx, left, acc):
        nonlocal examined
        if idx == len(caps):
            if left == 0:
                values.add(acc)
                examined += 1
            return
        remaining_capacity = sum(caps[idx:])
        if left > remaining_capacity:
            return
        for take in range(min(caps[idx], left) + 1):
            rec(idx + 1, left - take, acc + take * (idx + 1))

    rec(0, profile.n, 0)
    return ValueSetResult(tuple(sorted(values)), examined, True)
