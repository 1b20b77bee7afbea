"""Permutations and falling factorials: test helpers for the sign and
determinant checks of the coefficient closed form."""

from typing import Iterable


class NotInvariant(Exception):
    """The subset is not closed under the permutation."""


class Permutation:
    """A bijection on an arbitrary finite set of hashable points."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict):
        m = dict(mapping)
        if set(m.keys()) != set(m.values()):
            raise ValueError("mapping is not a bijection on its domain")
        object.__setattr__(self, "_map", m)

    def __setattr__(self, name, _value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, points: Iterable) -> "Permutation":
        return cls({x: x for x in points})

    @classmethod
    def from_one_line(cls, images: Iterable[int]) -> "Permutation":
        """Images of 1..n in order, e.g. (2, 1, 3)."""
        images = tuple(images)
        return cls({i: img for i, img in enumerate(images, start=1)})

    @property
    def domain(self) -> frozenset:
        return frozenset(self._map)

    def __call__(self, x):
        return self._map[x]

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def cycles(self) -> tuple:
        """Cycle decomposition; each cycle starts at its smallest point."""
        seen = set()
        out = []
        for start in sorted(self._map):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            x = self._map[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self._map[x]
            out.append(tuple(cycle))
        return tuple(out)

    def sign(self) -> int:
        """(-1) ** (number of points minus number of cycles)."""
        return -1 if (len(self._map) - len(self.cycles())) % 2 else 1

    def restrict(self, subset: Iterable) -> "Permutation":
        subset = set(subset)
        if not subset <= self.domain:
            raise NotInvariant(f"{sorted(subset, key=repr)} is not inside the domain")
        if {self._map[x] for x in subset} != subset:
            raise NotInvariant("subset is not closed under the permutation")
        return Permutation({x: self._map[x] for x in subset})

    def __repr__(self):
        return f"Permutation({self.cycles()})"


def falling_factorial(y, i: int):
    """y * (y-1) * ... * (y-i+1); the empty product 1 for i == 0."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ValueError(f"need a nonnegative integer, got {i!r}")
    out = 1
    for t in range(i):
        out *= y - t
    return out
