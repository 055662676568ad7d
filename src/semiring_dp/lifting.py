"""Constraint algebras and semiring lifting.

Lifting a semiring over a finite constraint algebra turns scalar
recurrence values into dense vectors indexed by constraint values; the
lifted product is a generalized convolution driven by the algebra's
combine operator.  Projecting the accepted entries back down recovers a
scalar, which is how a separable constraint is applied to a recurrence
without ever enumerating and filtering solutions.  Vectors are tuples;
the summed-gap lifting over a base whose rows take float arrays keeps
each as one such array (``summed_gap_arrays``), with the same entries.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import Any, Callable

from .semirings import Semiring

LiftedVector = tuple


def _identity_map(label: Any) -> Any:
    return label


@dataclass(frozen=True)
class ConstraintAlgebra:
    """A finite carrier with a combine operator, used to grade solutions.

    ``combine`` may return values outside ``carrier``; lifted products
    drop such results, which is how unbounded operators (counting under
    addition, say) are truncated to a finite carrier.  ``identity``,
    when present, must lie in the carrier.  ``inverse`` marks the
    algebra group-like and unlocks the O(1)-per-entry product against a
    single lifted edge.  ``label_map`` converts a recurrence's edge
    labels into carrier values; ``accept`` says which fold results the
    constraint accepts, for projections and the filtering oracle alike
    (through ``accepts``).  Left out (None), it is membership in the
    current carrier; a given predicate must be total on raw fold
    results (including out-of-carrier ones).
    ``associative`` is False for operators that only support
    left-to-right folding; those are excluded from generic lifted
    semiring construction but still work with per-edge products.
    """

    name: str
    carrier: tuple
    combine: Callable[[Any, Any], Any]
    identity: Any | None
    accept: Callable[[Any], bool] | None = None
    inverse: Callable[[Any], Any] | None = None
    label_map: Callable[[Any], Any] = _identity_map
    associative: bool = True

    def __post_init__(self):
        index = {m: i for i, m in enumerate(self.carrier)}
        if len(index) != len(self.carrier):
            raise ValueError(f"{self.name}: carrier has duplicate elements")
        if self.identity is not None and self.identity not in index:
            raise ValueError(f"{self.name}: identity {self.identity!r} not in carrier")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.carrier)

    @property
    def group_like(self) -> bool:
        return self.inverse is not None

    def index_of(self, m) -> int | None:
        return self._index.get(m)

    def __contains__(self, m) -> bool:
        return m in self._index

    def accepts(self, m) -> bool:
        """Whether the constraint accepts fold result ``m``."""
        return m in self._index if self.accept is None else self.accept(m)


def lifted_zero(base: Semiring, alg: ConstraintAlgebra) -> LiftedVector:
    return (base.zero,) * alg.size


def lifted_one(base: Semiring, alg: ConstraintAlgebra) -> LiftedVector:
    """Unit vector at the algebra identity; requires an identity."""
    if alg.identity is None:
        raise ValueError(f"{alg.name}: no identity, so no lifted multiplicative unit")
    k = alg.index_of(alg.identity)
    return tuple(base.one if i == k else base.zero for i in range(alg.size))


def lift_edge(base: Semiring, alg: ConstraintAlgebra, weight, key) -> LiftedVector:
    """Vector holding ``weight`` at carrier position ``key``, zero elsewhere."""
    k = alg.index_of(key)
    if k is None:
        raise ValueError(f"{alg.name}: constraint value {key!r} outside carrier")
    return tuple(weight if i == k else base.zero for i in range(alg.size))


def lifted_semiring(base: Semiring, alg: ConstraintAlgebra) -> Semiring:
    """The semiring of carrier-indexed vectors of ``base`` values.

    add is elementwise, one ``base.add_rows``; mul convolves: entry m
    accumulates x[m'] * y[m''] over all carrier pairs with
    combine(m', m'') == m, costing O(size^2) base operations.  Requires an identity (for the unit
    vector) and an associative combine.
    """
    if alg.identity is None:
        raise ValueError(f"{alg.name}: lifting needs an algebra identity")
    if not alg.associative:
        raise ValueError(
            f"{alg.name}: combine is not associative; only per-edge products apply"
        )
    carrier = alg.carrier
    size = alg.size
    index_of = alg.index_of
    combine = alg.combine

    def add(x, y):
        return tuple(base.add_rows(x, y))

    def mul(x, y):
        out = [base.zero] * size
        for i, m1 in enumerate(carrier):
            for j, m2 in enumerate(carrier):
                k = index_of(combine(m1, m2))
                if k is None:
                    continue  # combine left the carrier: contributes nothing
                out[k] = base.add(out[k], base.mul(x[i], y[j]))
        return tuple(out)

    def eq(x, y):
        return all(base.eq(a, b) for a, b in zip(x, y))

    return Semiring(
        f"{base.name}[{alg.name}]",
        add,
        mul,
        lifted_zero(base, alg),
        lifted_one(base, alg),
        eq,
    )


def edge_lifted_semiring(base: Semiring, alg: ConstraintAlgebra, edge_product) -> Semiring:
    """Lifted vectors times sparse lifted edges, given as pairs (weight, key).

    mul(vec, (weight, key)) is edge_product(base, alg, vec, weight, key),
    the product with lift_edge(base, alg, weight, key); add is elementwise,
    one ``base.add_rows``.  Vectors are tuples; ``summed_gap_arrays`` is
    the form of ``subset_size_edge_product`` whose vectors are float arrays.
    """
    add_rows = base.add_rows

    def mul(vec, edge):
        weight, key = edge
        return edge_product(base, alg, vec, weight, key)

    return Semiring(f"{base.name}[{alg.name}]", lambda x, y: tuple(add_rows(x, y)), mul,
                    lifted_zero(base, alg), lifted_one(base, alg))


def summed_gap_arrays(base: Semiring, alg: ConstraintAlgebra) -> Semiring:
    """``edge_lifted_semiring(base, alg, subset_size_edge_product)`` with each vector one float array.

    ``base`` takes float array rows (``base.array_rows``).  add is one
    ``base.add_rows``; mul(vec, (weight, key)) shifts ``vec`` up by
    ``key`` (down, for a negative key) with one ``base.mul_rows`` of the
    entries that stay in the carrier, ``base.zero`` elsewhere.  So every
    entry is the tuple form's, made by the same base op, and a counted
    base tallies the tuple form's ops.  Rows of vectors are lists.
    """
    import numpy as np
    size = alg.size

    def mul(vec, edge):
        weight, key = edge
        out = np.full(size, base.zero)
        lo, hi = max(key, 0), min(size + key, size)  # entry m reads m - key
        if lo < hi:
            out[lo:hi] = base.mul_rows(vec[lo - key : hi - key], weight)
        return out

    return Semiring(f"{base.name}[{alg.name}]", base.add_rows, mul,
                    np.array(lifted_zero(base, alg), dtype=float),
                    np.array(lifted_one(base, alg), dtype=float),
                    lambda x, y: x.tolist() == y.tolist())


def project(base: Semiring, alg: ConstraintAlgebra, vec: LiftedVector):
    """One ``base.sum`` of the entries whose carrier value ``alg`` accepts."""
    return base.sum(compress(vec, map(alg.accepts, alg.carrier)))


def mul_by_lifted_edge_general(
    base: Semiring, alg: ConstraintAlgebra, vec: LiftedVector, weight, key
) -> LiftedVector:
    """Product of ``vec`` with the lifted edge (weight at ``key``), O(size).

    Works for any algebra: iterate the carrier once, pushing each entry
    to combine(m, key) and dropping results that leave the carrier.
    """
    out = [base.zero] * alg.size
    for i, m in enumerate(alg.carrier):
        k = alg.index_of(alg.combine(m, key))
        if k is None:
            continue
        out[k] = base.add(out[k], base.mul(vec[i], weight))
    return tuple(out)


def mul_group(base: Semiring, alg: ConstraintAlgebra, x: LiftedVector, y: LiftedVector) -> LiftedVector:
    """Full lifted product using inverses: O(size) base ops per entry.

    Entry m folds x[m'] * y[inverse(m') . m]; index expressions that
    leave the carrier contribute nothing, which truncates the product
    exactly as dropping out-of-carrier combines does.
    """
    if not alg.group_like:
        raise ValueError(f"{alg.name}: not group-like (no inverse map)")
    out = []
    for m in alg.carrier:
        acc = base.zero
        for i, mp in enumerate(alg.carrier):
            j = alg.index_of(alg.combine(alg.inverse(mp), m))
            if j is None:
                continue
            acc = base.add(acc, base.mul(x[i], y[j]))
        out.append(acc)
    return tuple(out)


def mul_by_lifted_edge_group(
    base: Semiring, alg: ConstraintAlgebra, vec: LiftedVector, weight, key
) -> LiftedVector:
    """Edge product for group-like algebras: one base mul per entry.

    Entry m is vec[m . inverse(key)] * weight, or zero when that index
    leaves the carrier.
    """
    if not alg.group_like:
        raise ValueError(f"{alg.name}: not group-like (no inverse map)")
    inv_key = alg.inverse(key)
    out = []
    for m in alg.carrier:
        i = alg.index_of(alg.combine(m, inv_key))
        out.append(base.zero if i is None else base.mul(vec[i], weight))
    return tuple(out)


# --- the standard constraint algebras ---------------------------------------


def subset_size_algebra(cap: int, *, accept=None, label_map=_identity_map) -> ConstraintAlgebra:
    """Counting under addition, truncated to {0..cap}; group-like."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    return ConstraintAlgebra(
        name=f"subset-size<={cap}",
        carrier=tuple(range(cap + 1)),
        combine=operator.add,
        identity=0,
        accept=accept,
        inverse=operator.neg,
        label_map=label_map,
    )


def min_count_algebra(bound: int, *, accept=None, label_map=_identity_map) -> ConstraintAlgebra:
    """Running minimum over {1..bound}; identity is the bound itself."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    return ConstraintAlgebra(
        name=f"min-count[{bound}]",
        carrier=tuple(range(1, bound + 1)),
        combine=min,
        identity=bound,
        accept=accept,
        label_map=label_map,
    )


def max_count_algebra(bound: int, *, accept=None, label_map=_identity_map) -> ConstraintAlgebra:
    """Running maximum over {0..bound}; identity 0."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return ConstraintAlgebra(
        name=f"max-count[{bound}]",
        carrier=tuple(range(bound + 1)),
        combine=max,
        identity=0,
        accept=accept,
        label_map=label_map,
    )


def _abs_diff(a, b):
    return abs(a - b)


def abs_difference_algebra(bound: int, *, accept=None, label_map=_identity_map) -> ConstraintAlgebra:
    """Running absolute difference over {0..bound}.

    |x - y| is not associative (fold (1, 2, 3) left gives 2, right gives
    0), so the operator only makes sense scanned left-to-right: the
    algebra is flagged non-associative and participates through per-edge
    products and the filtering oracle, not generic lifting.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return ConstraintAlgebra(
        name=f"abs-difference[{bound}]",
        carrier=tuple(range(bound + 1)),
        combine=_abs_diff,
        identity=0,
        accept=accept,
        label_map=label_map,
        associative=False,
    )


def exists_algebra(*, accept=None, label_map=_identity_map) -> ConstraintAlgebra:
    """Booleans under or; tracks whether any flagged label occurred."""
    return ConstraintAlgebra(
        name="exists",
        carrier=(False, True),
        combine=operator.or_,
        identity=False,
        accept=accept,
        label_map=label_map,
    )


def forall_algebra(*, accept=None, label_map=_identity_map) -> ConstraintAlgebra:
    """Booleans under and; tracks whether every label stayed flagged."""
    return ConstraintAlgebra(
        name="forall",
        carrier=(False, True),
        combine=operator.and_,
        identity=True,
        accept=accept,
        label_map=label_map,
    )


ORDER_BLOCKED = float("inf")


def ordering_algebra(values, relation=operator.lt) -> ConstraintAlgebra:
    """Chain constraint over positions 1..N of ``values``.

    combine(i, j) yields j when 1 <= i < j <= N and relation(values[i-1],
    values[j-1]) holds, else a blocking sentinel that annihilates the
    rest of the fold.  The operator has no identity and is only
    left-associative, so the algebra is flagged non-associative; it is
    consumed by the ordered-subsequence recurrence and the filtering
    oracle, never by generic lifting.
    """
    u = tuple(values)
    n = len(u)

    def combine(i, j):  # a position outside 1..N, the sentinel included, blocks
        # i < j first: a fold already blocked (i the sentinel) fails it at once
        if i < j <= n and i >= 1 and relation(u[i - 1], u[j - 1]):
            return j
        return ORDER_BLOCKED

    return ConstraintAlgebra(
        name=f"ordered-chain[{len(u)}]",
        carrier=tuple(range(1, len(u) + 1)),
        combine=combine,
        identity=None,
        associative=False,
    )


def algebra_catalog(bound: int = 6) -> dict[str, ConstraintAlgebra]:
    """The standard constraint algebras, sized by ``bound``."""
    return {
        "subset_size": subset_size_algebra(bound),
        "min_count": min_count_algebra(bound),
        "max_count": max_count_algebra(bound),
        "abs_difference": abs_difference_algebra(bound),
        "exists": exists_algebra(),
        "forall": forall_algebra(),
    }


# --- closed-form edge products for the catalog algebras ---------------------
#
# Each function below is the simplified form of
# mul_by_lifted_edge_general for one algebra, derived from the defining
# condition combine(m', key) == m; the equivalence tests pin them to the
# general product.  Each is row operations over exactly the entries that
# condition reads: zeros, one mul_rows(..., repeat(weight)) for the
# entries the key leaves in place, and one fold, times the weight, for
# the entry it collapses onto (abs_difference: one dot per entry).  The
# output is a list made into one tuple of the carrier's size: tuples of
# every shorter length would fill the interpreter's per-length tuple free
# lists, about 3 MB of peak memory at cap 16.


def min_count_edge_product(base, alg, vec, weight, key) -> LiftedVector:
    # {m' : min(m', key) == m} is {m} below key, the suffix {m..bound} at
    # key, empty above; the carrier ascends, so the entries below key
    # come first, and a key outside the carrier collapses nothing.
    carrier = alg.carrier
    size, k = len(vec), bisect_left(carrier, key)
    out = base.mul_rows(islice(vec, k), repeat(weight))
    if k < size and carrier[k] == key:
        rest = base.zero
        for v in islice(reversed(vec), size - k):
            rest = base.add(v, rest)
        out.append(base.mul(rest, weight))
    if len(out) < size:
        out += [base.zero] * (size - len(out))
    return tuple(out)


def subset_size_edge_product(base, alg, vec, weight, key) -> LiftedVector:
    # m' + key == m: the carrier is 0..cap, so value m sits at index m and
    # a key >= 0 shifts vec up by key, dropping what leaves the carrier.
    size = len(vec)
    if key >= size:
        return (base.zero,) * size
    if key < 0:  # shifts down: entry m reads m - key
        out = base.mul_rows(islice(vec, -key, None), repeat(weight))
        return tuple(out + [base.zero] * min(-key, size))
    out = [base.zero] * key
    out.extend(base.mul_rows(islice(vec, size - key), repeat(weight)))
    return tuple(out)


def max_count_edge_product(base, alg, vec, weight, key) -> LiftedVector:
    # {m' : max(m', key) == m} is {m} above key, the prefix {0..m} at
    # key, empty below; the carrier is 0..bound, so value m sits at
    # index m, and a key below 0 leaves every entry in place.
    size = len(vec)
    if key >= size:
        return (base.zero,) * size
    if key < 0:
        return tuple(base.mul_rows(vec, repeat(weight)))
    out = [base.zero] * key
    out.append(base.mul(base.sum(islice(vec, key + 1)), weight))
    out.extend(base.mul_rows(islice(vec, key + 1, None), repeat(weight)))
    return tuple(out)


def abs_difference_edge_product(base, alg, vec, weight, key) -> LiftedVector:
    # |m' - key| == m has the solutions {key - m, key + m} intersected
    # with the carrier (a single solution when m == 0).
    out = []
    for m in alg.carrier:
        held = [vec[i] for i in map(alg.index_of, {key - m, key + m}) if i is not None]
        out.append(base.dot(held, [weight] * len(held)))
    return tuple(out)


def exists_edge_product(base, alg, vec, weight, key) -> LiftedVector:
    if not key:
        return tuple(base.mul_rows(vec, repeat(weight)))
    return (base.zero, base.mul(base.add(*vec), weight))


def forall_edge_product(base, alg, vec, weight, key) -> LiftedVector:
    if key:
        return tuple(base.mul_rows(vec, repeat(weight)))
    return (base.mul(base.add(*vec), weight), base.zero)


def ordering_edge_product(base, alg, vec, weight, key) -> LiftedVector:
    # Non-zero only at the edge's own position: fold every chainable
    # predecessor, i.e. every m' with combine(m', key) == key.
    out = [base.zero] * alg.size
    k = alg.index_of(key)
    if k is not None:
        chainable = [alg.combine(m, key) == key for m in alg.carrier]
        out[k] = base.mul(base.sum(compress(vec, chainable)), weight)
    return tuple(out)


CLOSED_FORM_EDGE_PRODUCTS = {
    "subset_size": subset_size_edge_product,
    "min_count": min_count_edge_product,
    "max_count": max_count_edge_product,
    "abs_difference": abs_difference_edge_product,
    "exists": exists_edge_product,
    "forall": forall_edge_product,
}
