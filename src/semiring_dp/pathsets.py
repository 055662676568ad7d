"""Exhaustive path-set values: the enumerate-everything semiring.

Running a polymorphic recurrence with these operators materializes the
label sequence of every solution the recurrence combines.  Mapping each
label through a weight function and folding reproduces the recurrence's
value in any other semiring, so the path-set run serves as a
brute-force oracle for the efficient direct runs.  The operators are
deliberately exponential; a storage budget aborts runs that grow past
desk scale.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from .lifting import ConstraintAlgebra
from .semirings import Semiring

DEFAULT_LABEL_BUDGET = 10**6


class PathBudgetError(RuntimeError):
    """A path-set operation would exceed the storage budget."""


class PathSet:
    """An immutable finite set of finite label sequences.

    Labels must be hashable and mutually orderable, so iteration has a
    canonical sorted order and comparisons are deterministic; equality
    is plain set equality with no duplicate sequences.
    """

    __slots__ = ("paths", "labels_stored")

    def __init__(self, paths: Iterable[Iterable[Any]] = ()):
        self.paths = frozenset(tuple(p) for p in paths)
        self.labels_stored = sum(len(p) for p in self.paths)

    def sorted_paths(self) -> list[tuple]:
        return sorted(self.paths)

    def __eq__(self, other) -> bool:
        return isinstance(other, PathSet) and self.paths == other.paths

    def __hash__(self) -> int:
        return hash(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.sorted_paths())

    def __contains__(self, path) -> bool:
        return tuple(path) in self.paths

    def __repr__(self) -> str:
        inner = ", ".join(repr(list(p)) for p in self.sorted_paths())
        return f"PathSet([{inner}])"


def generator_semiring(budget: int = DEFAULT_LABEL_BUDGET) -> Semiring:
    """Path sets under (union, cross-join, empty set, {empty sequence}).

    ``budget`` caps the labels an operation may store; an operation
    estimated to exceed it raises ``PathBudgetError``.
    """
    if budget < 1:
        raise ValueError("budget must be positive")

    def check(estimate: int) -> None:
        if estimate > budget:
            raise PathBudgetError(
                f"path-set operation needs ~{estimate} stored labels, "
                f"over the budget of {budget}"
            )

    def union(x: PathSet, y: PathSet) -> PathSet:
        check(x.labels_stored + y.labels_stored)
        return PathSet(x.paths | y.paths)

    def cross_join(x: PathSet, y: PathSet) -> PathSet:
        """Concatenate every sequence of ``x`` with every sequence of ``y``."""
        check(len(y.paths) * x.labels_stored + len(x.paths) * y.labels_stored)
        return PathSet(a + b for a in x.paths for b in y.paths)

    return Semiring("paths", union, cross_join, PathSet(), PathSet([()]))


def singleton_weights(label) -> PathSet:
    """The weight map that embeds each label as its own one-step path."""
    return PathSet([(label,)])


def _weight_fn(weights) -> Callable[[Any], Any]:
    if isinstance(weights, Mapping):
        def lookup(label):
            try:
                return weights[label]
            except KeyError:
                raise KeyError(f"weight map has no entry for label {label!r}") from None

        return lookup
    return weights


def evaluate_paths(s: Semiring, weights, paths: PathSet):
    """Map labels through ``weights``, mul within a sequence, add across.

    The empty set yields ``s.zero``; an empty sequence contributes
    ``s.one``.  This is the structure-preserving map out of path sets:
    it sends unions to adds, cross-joins to muls and identities to
    identities, which the property tests check directly.
    """
    w = _weight_fn(weights)
    return s.sum(s.prod(w(label) for label in path) for path in paths)


def constraint_fold(alg: ConstraintAlgebra, path: Iterable[Any]):
    """Left fold of the algebra over a path's labels.

    Starts from the identity when the algebra has one; identity-less
    algebras start from the first label's value and reject empty paths.
    """
    labels = list(path)
    if alg.identity is None:
        if not labels:
            raise ValueError(f"{alg.name}: no identity, cannot fold an empty path")
        acc = alg.label_map(labels[0])
        labels = labels[1:]
    else:
        acc = alg.identity
    for label in labels:
        acc = alg.combine(acc, alg.label_map(label))
    return acc


def filter_paths(alg: ConstraintAlgebra, paths: PathSet) -> PathSet:
    """Keep exactly the sequences whose constraint fold ``alg`` accepts.

    For identity-less algebras the empty sequence has no fold value and
    is always dropped.
    """
    kept = []
    for path in paths.paths:
        if not path and alg.identity is None:
            continue
        if alg.accepts(constraint_fold(alg, path)):
            kept.append(path)
    return PathSet(kept)
