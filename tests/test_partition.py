from __future__ import annotations

import itertools

import pytest

from treepack import Partition

from graphs import random_partition_labels


def test_from_classes_canonicalizes_any_ordering():
    a = Partition.from_classes([[2], [1, 0], [3, 4]])
    b = Partition.from_classes([[4, 3], [0, 1], [2]])
    assert a == b
    assert a.classes == ((0, 1), (2,), (3, 4))
    assert a.class_of == (0, 0, 1, 2, 2)


def test_canonicalization_is_idempotent():
    p = Partition.from_class_map([5, 5, 2, 9, 2])
    q = Partition.from_classes(p.classes)
    assert p == q


def test_invalid_partitions_are_rejected():
    with pytest.raises(ValueError):
        Partition.from_classes([[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        Partition.from_classes([[0], [2]])  # gap
    with pytest.raises(ValueError):
        Partition.from_classes([[0], [1]], n=3)  # wrong total
    with pytest.raises(ValueError):
        Partition((1, 0))  # labels not in first-occurrence order
    with pytest.raises(ValueError):
        Partition((0, 2))  # a label skipped
    # A vertex is exactly an int: True once passed as vertex 1, and 1.0 raised TypeError.
    dense = "^classes must partition a dense vertex range$"
    for classes in ([[0], [True]], [[0], [1.0]], [[0], ["1"]], [[0], [[1]]]):
        for n in (None, 2):
            with pytest.raises(ValueError, match=dense):
                Partition.from_classes(classes, n)
    # An empty class was silently dropped, giving one class fewer.
    for classes, n in (([[0, 1, 2, 3], []], 4), ([[], [0]], None), ([[0], [], [1]], 2)):
        with pytest.raises(ValueError, match=dense):
            Partition.from_classes(classes, n)
    # A vertex is listed once: a repeat inside one class was silently dropped.
    for classes in ([[0, 0], [1]], [[0, 1], [True]]):
        with pytest.raises(ValueError, match=dense):
            Partition.from_classes(classes)
        with pytest.raises(ValueError, match="^classes cover 3 vertices, expected 2$"):
            Partition.from_classes(classes, 2)


def test_a_label_list_is_stored_as_a_tuple():
    # A list was kept as given: unhashable, and unequal to the same labels as a tuple.
    p = Partition([0, 1, 0])
    assert p.class_of == (0, 1, 0) and type(p.class_of) is tuple
    assert p == Partition((0, 1, 0)) and hash(p) == hash(Partition((0, 1, 0)))


@pytest.mark.parametrize("labels", [(0, True), (0, 1.0)], ids=repr)
def test_every_label_is_exactly_an_int(labels):
    # Both were accepted: (0, True) with 2 classes, and (0, 1.0) until str()
    # raised TypeError.
    with pytest.raises(ValueError, match=f"^label must be an int, not {labels[1]!r}$"):
        Partition(labels)


def test_trivial_and_singletons():
    assert Partition.trivial(4).classes == ((0, 1, 2, 3),)
    assert Partition.singletons(3).classes == ((0,), (1,), (2,))
    assert Partition.trivial(1) == Partition.singletons(1)


@pytest.mark.parametrize("factory", [Partition.singletons, Partition.trivial])
@pytest.mark.parametrize("n", [True, 2.0], ids=repr)
def test_trivial_and_singletons_take_an_exact_int(factory, n):
    # singletons(True) was once the one-vertex partition, and trivial(2.0)
    # raised a bare TypeError.
    with pytest.raises(ValueError, match=f"^n must be an int, not {n!r}$"):
        factory(n)


def test_refines_basic_cases():
    singles = Partition.singletons(3)
    trivial = Partition.trivial(3)
    p = Partition.from_classes([[0, 1], [2]])
    q = Partition.from_classes([[0], [1, 2]])
    assert singles.refines(p)
    assert singles.refines(trivial)
    assert p.refines(trivial)
    assert not p.refines(q)
    assert not q.refines(p)


def test_refines_requires_same_ground_set():
    with pytest.raises(ValueError):
        Partition.trivial(3).refines(Partition.trivial(4))


def test_strictly_refines():
    trivial = Partition.trivial(4)
    pairs = Partition.from_classes([[0, 1], [2, 3]])
    assert not trivial.strictly_refines(trivial)
    assert Partition.singletons(4).strictly_refines(trivial)
    assert pairs.strictly_refines(trivial)
    assert not pairs.strictly_refines(pairs)


def test_class_containing():
    singles = Partition.singletons(5)
    assert singles.classes[singles.class_of[3]] == (3,)
    trivial = Partition.trivial(5)
    assert trivial.class_of[4] == 0
    p = Partition.from_classes([[0, 2], [1]])
    assert p.classes[p.class_of[2]] == (0, 2)
    assert all(v in p.classes[p.class_of[v]] for v in range(p.n))


def test_str_lists_the_classes_in_canonical_order():
    assert str(Partition.from_classes([[3, 1], [2, 0]])) == "{{0, 2}, {1, 3}}"
    assert str(Partition.singletons(3)) == "{{0}, {1}, {2}}"
    assert str(Partition.trivial(1)) == "{{0}}"
    assert str(Partition.trivial(0)) == "{}"


def _random_partitions(count: int, n: int) -> list[Partition]:
    return [
        Partition.from_class_map(random_partition_labels(seed, n))
        for seed in range(count)
    ]


def test_refinement_is_a_partial_order():
    # reflexive, antisymmetric, transitive over random triples, n <= 8
    for n in range(1, 9):
        parts = _random_partitions(30, n)
        for p in parts:
            assert p.refines(p)
        for p in parts:
            for q in parts:
                if p.refines(q) and q.refines(p):
                    assert p == q
        for p in parts[:12]:
            for q in parts[:12]:
                for r in parts[:12]:
                    if p.refines(q) and q.refines(r):
                        assert p.refines(r)


def test_representation_unique_under_permutation():
    base = [[0, 3], [1], [2, 4]]
    reference = Partition.from_classes(base)
    for ordering in itertools.permutations(base):
        assert Partition.from_classes(ordering) == reference


def _is_restricted_growth(labels: tuple[int, ...]) -> bool:
    largest = -1
    for label in labels:
        if not 0 <= label <= largest + 1:
            return False
        largest = max(largest, label)
    return True


def test_constructor_accepts_exactly_restricted_growth_strings():
    for n in range(6):
        for labels in itertools.product(range(n), repeat=n):
            if _is_restricted_growth(labels):
                p = Partition(labels)
                assert p.class_of == labels
                assert p.num_classes == max(labels, default=-1) + 1
                # The stored count takes no part in ==, hash or repr.
                other = Partition(labels)
                object.__setattr__(other, "num_classes", -1)
                assert other == p and hash(other) == hash(p) == hash((labels,))
                assert repr(other) == repr(p) == f"Partition(class_of={labels!r})"
            else:
                with pytest.raises(ValueError):
                    Partition(labels)


def test_classes_are_vertex_groups_by_smallest_member():
    for n in range(9):
        for seed in range(30):
            labels = random_partition_labels(seed, n)
            groups: dict[int, list[int]] = {}
            for v, label in enumerate(labels):
                groups.setdefault(label, []).append(v)
            expected = tuple(sorted(tuple(g) for g in groups.values()))
            p = Partition.from_class_map(labels)
            assert p.classes == expected
            assert p.num_classes == len(expected)
            assert list(p) == list(expected)


def _refines_by_classes(p: Partition, q: Partition) -> bool:
    """Reference: every class of ``p`` is a subset of a class of ``q``."""
    return all(
        any(set(mine) <= set(theirs) for theirs in q.classes) for mine in p.classes
    )


def test_refines_matches_class_subset_definition():
    for n in range(1, 9):
        parts = _random_partitions(30, n)
        parts += [Partition.from_class_map([c // 2 for c in p.class_of]) for p in parts]
        parts += [Partition.trivial(n), Partition.singletons(n)]
        for p in parts:
            for q in parts:
                assert p.refines(q) == _refines_by_classes(p, q)
