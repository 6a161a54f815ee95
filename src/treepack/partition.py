"""Canonical partitions of a dense vertex set and the refinement order."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .integers import exact_int


@dataclass(frozen=True)
class Partition:
    """A partition of ``{0, ..., n-1}`` stored as its canonical label array.

    ``class_of[v]`` is the index of the class containing ``v``. Labels are
    numbered in order of first occurrence (a restricted growth string), so
    classes are ordered by their smallest member and two equal partitions
    are the same value (plain ``==`` and ``hash`` compare partitions).
    ``num_classes`` is the class count the constructor's validation
    counts, stored outside ``==``, ``hash`` and ``repr``. ``classes``, each
    listing its vertices in increasing order, is built from the labels on
    first use.

    Instances are immutable and freely shareable. Use the factory
    classmethods; the constructor rejects a label array that is not in
    canonical form or holds a label that is not exactly an ``int``.
    """

    class_of: tuple[int, ...]
    num_classes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_of", tuple(self.class_of))
        for label in self.class_of:
            if type(label) is not int:
                raise ValueError(f"label must be an int, not {label!r}")
        first_seen = list(dict.fromkeys(self.class_of))
        if first_seen != list(range(len(first_seen))):
            raise ValueError("labels must be numbered 0, 1, ... by first occurrence")
        object.__setattr__(self, "num_classes", len(first_seen))

    @classmethod
    def from_class_map(cls, labels: Iterable[int]) -> "Partition":
        """Build a partition from an arbitrary per-vertex label sequence.

        Labels are renumbered by first occurrence, which yields the
        canonical class order directly.
        """
        renumber: dict[int, int] = {}
        return cls(tuple([renumber.setdefault(label, len(renumber)) for label in labels]))

    @classmethod
    def from_classes(
        cls, classes: Iterable[Iterable[int]], n: int | None = None
    ) -> "Partition":
        """Build a partition from nonempty vertex sets in any order, each vertex exactly an ``int``."""
        groups = [list(c) for c in classes]
        if not all(groups):
            raise ValueError("classes must partition a dense vertex range")
        total = sum(len(c) for c in groups)
        if n is not None and total != n:
            raise ValueError(f"classes cover {total} vertices, expected {n}")
        labels = [0] * total
        seen: set[int] = set()
        for index, group in enumerate(groups):
            for v in group:
                if type(v) is not int or not 0 <= v < total or v in seen:
                    raise ValueError("classes must partition a dense vertex range")
                seen.add(v)
                labels[v] = index
        return cls.from_class_map(labels)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.from_class_map(range(exact_int(n, "n")))

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        """The one-class partition of ``{0, ..., n-1}``."""
        return cls.from_class_map([0] * exact_int(n, "n"))

    @property
    def n(self) -> int:
        return len(self.class_of)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes in canonical order, each with increasing members."""
        members: list[list[int]] = [[] for _ in range(self.num_classes)]
        for v, index in enumerate(self.class_of):
            members[index].append(v)
        return tuple(map(tuple, members))

    def refines(self, other: "Partition") -> bool:
        """True if every class of ``self`` is a subset of a class of ``other``."""
        if self.n != other.n:
            raise ValueError("partitions are over different ground sets")
        # Each label of ``self`` must meet exactly one label of ``other``.
        return len(set(zip(self.class_of, other.class_of))) == self.num_classes

    def strictly_refines(self, other: "Partition") -> bool:
        return self != other and self.refines(other)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.classes)

    def __str__(self) -> str:
        body = ", ".join("{" + ", ".join(map(str, c)) + "}" for c in self.classes)
        return "{" + body + "}"
