"""Exhaustive path-set values: the enumerate-everything semiring.

Running a polymorphic recurrence with these operators materializes the
label sequence of every solution the recurrence combines.  Mapping each
label through a weight function and folding reproduces the recurrence's
value in any other semiring, so the path-set run serves as a
brute-force oracle for the efficient direct runs.  The operators are
deliberately exponential; a storage budget aborts runs that grow past
desk scale.

A path set keeps its sequences in insertion order, as the keys of a
dict, so union and cross-join build their results in C-level loops and
only evaluation and printing sort them.  Evaluation walks the sequences
in sorted order, where a sequence shares its longest common prefix with
the one before it, and keeps the running products of that prefix: each
product is still the left fold from ``one`` and the sum still runs in
sorted order, but each shared prefix's labels are weighed once, so a
stateful weight map sees fewer calls.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count, product, starmap
from operator import concat, is_not
from typing import Any, Callable, Iterable, Mapping

from .lifting import ConstraintAlgebra, _identity_map
from .semirings import Semiring

DEFAULT_LABEL_BUDGET = 10**6


class PathBudgetError(RuntimeError):
    """A path-set operation would exceed the storage budget."""


class PathSet:
    """An immutable finite set of finite label sequences.

    Labels must be hashable and mutually orderable, so iteration has a
    canonical sorted order and comparisons are deterministic; equality
    is plain set equality with no duplicate sequences.  The sequences
    are stored as the keys of an insertion-ordered dict that is never
    mutated; ``paths`` is its set-like keys view.
    """

    __slots__ = ("_order", "labels_stored")

    def __init__(self, paths: Iterable[Iterable[Any]] = ()):
        self._order = dict.fromkeys(map(tuple, paths))
        self.labels_stored = sum(map(len, self._order))

    @classmethod
    def _of(cls, order: dict) -> PathSet:
        """A path set over ``order``'s keys, which must be tuples, taking the dict as it is."""
        x = object.__new__(cls)
        x._order = order
        x.labels_stored = sum(map(len, order))
        return x

    @property
    def paths(self):
        return self._order.keys()

    def sorted_paths(self) -> list[tuple]:
        return sorted(self._order)

    def __eq__(self, other) -> bool:
        return isinstance(other, PathSet) and self._order.keys() == other._order.keys()

    def __hash__(self) -> int:
        return hash(frozenset(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self.sorted_paths())

    def __contains__(self, path) -> bool:
        return tuple(path) in self._order

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
        return PathSet._of(x._order | y._order)

    def cross_join(x: PathSet, y: PathSet) -> PathSet:
        """Concatenate every sequence of ``x`` with every sequence of ``y``."""
        check(len(y._order) * x.labels_stored + len(x._order) * y.labels_stored)
        return PathSet._of(dict.fromkeys(starmap(concat, product(x._order, y._order))))

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

    Each sequence's product is the left fold of ``mul`` from ``one``,
    and the products are summed in sorted order.  A sequence shares the
    running products of the prefix it has in common with the sequence
    before it (the same label objects, compared by identity), so only
    the labels after that prefix are weighed and multiplied in.
    """
    w = _weight_fn(weights)
    mul = s.mul
    prefix = [s.one]  # prefix[k]: the product of the previous sequence's first k labels
    previous = ()
    products = []
    for path in paths.sorted_paths():
        # a sequence sorts after every prefix of it, so where no label differs,
        # the previous sequence is a prefix of this one
        shared = next(compress(count(), map(is_not, previous, path)), len(previous))
        del prefix[shared + 1:]
        acc = prefix[shared]
        # mostly one or two labels: a plain loop beats accumulate and a slice assignment
        for label in path[shared:]:
            acc = mul(acc, w(label))
            prefix.append(acc)
        products.append(acc)
        previous = path
    return s.sum(products)


_NO_LABEL = object()


def constraint_fold(alg: ConstraintAlgebra, path: Iterable[Any]):
    """Left fold of the algebra over a path's labels.

    Starts from the identity when the algebra has one; identity-less
    algebras start from the first label's value and reject empty paths.
    """
    # the default label map gives each label back: no call per label for it
    values = iter(path) if alg.label_map is _identity_map else map(alg.label_map, path)
    start = alg.identity
    if start is None:
        start = next(values, _NO_LABEL)
        if start is _NO_LABEL:
            raise ValueError(f"{alg.name}: no identity, cannot fold an empty path")
    return reduce(alg.combine, values, start)


def filter_paths(alg: ConstraintAlgebra, paths: PathSet) -> PathSet:
    """Keep exactly the sequences whose constraint fold ``alg`` accepts.

    For identity-less algebras the empty sequence has no fold value and
    is always dropped.  The kept sequences keep their order.
    """
    accepts = alg.accepts
    keep_empty = alg.identity is not None
    kept = dict.fromkeys(
        path for path in paths._order
        if (path or keep_empty) and accepts(constraint_fold(alg, path))
    )
    return PathSet._of(kept)
