"""Semiring primitives and the standard catalog.

A semiring bundles two operations over one value domain: a commutative
``add`` with identity ``zero`` and an ``mul`` with identity ``one``,
where ``mul`` distributes over ``add`` and ``zero`` annihilates
products.  A dynamic-programming recurrence written against this
interface can be re-run with any catalog entry to count solutions,
optimize, marginalize probabilities or enumerate, without touching the
recurrence itself.

A semiring also has five row operations: ``sum(values)``, the left
fold of ``add`` from ``zero``, and ``dot(xs, ys)``, the ``sum`` of the
pairwise products; the elementwise ``add_rows(xs, ys)`` and
``mul_rows(xs, ys)``, the lists ``[add(x, y) ...]`` and
``[mul(x, y) ...]`` over pairs of entries (``mul_rows(xs, repeat(y))``
multiplies every entry by one ``y``); and ``dot_rows(xss, yss)``, the
elementwise sum of the products of k row pairs, folded left from the
first product.  Each counts one ``add`` per term and one ``mul`` per
product, however it runs.  ``Semiring``'s methods compute them term by
term; a subclass may override one with a faster method that returns
exactly the same, as the min/max bases, ``prob``, the score-and-witness
tupling over the min/max bases and the op counter do.

``row(values)`` makes the container a recurrence keeps a row of values
in, a list by default.  The elementwise rows of the min/max bases and of
``prob`` also take 1-D float arrays (``array_rows``), the other operand
an array or one float, entry for entry the builtin's result: float64 +
and * round as Python's floats do.  ``prob``'s sums still fold left, and
``softmax`` and ``count`` keep lists: builtin float ``sum`` is
compensated from Python 3.12 and numpy sums pairwise, so neither equals
the left fold bit for bit.  numpy is imported only when an array
arrives; inside ``quiet_arrays()`` its floating-point warnings are off
once for a whole fold rather than once per row.  Score-and-witness
tupling over the min/max bases takes ``WitnessBlock``s, float arrays of
scores, in ``dot_rows`` (``block_rows``), and gives with the kept scores
the term each entry kept; the fold that hands it blocks keeps the trails.
Every ``sum`` takes a ``ScoreRow`` and every ``dot`` two, rows whose
entries are built only where read, with a float array of their scores.
The min/max bases and the tupling over them (``row_score``) pick a
``sum``'s winner from the array and read one entry of the row; their
``dot`` of two ``ScoreRow``s is the ``sum`` of the ``ScoreRow`` of the
products, whose one read entry is one product.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from typing import Any, Callable, Iterable, NamedTuple, Sequence

BinOp = Callable[[Any, Any], Any]
EqOp = Callable[[Any, Any], bool]

FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


def exact_eq(a: Any, b: Any) -> bool:
    return a == b


def float_eq(a: float, b: float) -> bool:
    """Equality up to 1e-9 relative error (1e-12 absolute near zero)."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= max(FLOAT_ABS_TOL, FLOAT_REL_TOL * max(abs(a), abs(b)))


def _near_tie(a, b) -> bool:
    """Within 1e-9 relative error, with no absolute floor.

    Score-and-witness semirings rank scores with this rather than
    ``float_eq`` (``viterbi_simple_semiring`` through ``_keeps_left``),
    so live scores below 1e-12 (long products of probabilities, say)
    still rank against each other and against zero.
    """
    return a == b or math.isclose(a, b, rel_tol=FLOAT_REL_TOL)


def pair_eq(component_eq: EqOp) -> EqOp:
    def eq(a, b):
        return component_eq(a[0], b[0]) and component_eq(a[1], b[1])

    return eq


@dataclass(frozen=True, repr=False)
class Semiring:
    """First-class bundle of semiring operations.

    ``add`` must be associative and commutative with identity ``zero``;
    ``mul`` associative with identity ``one``, distributing over ``add``
    from both sides; ``zero`` annihilates products.  ``eq`` is the
    equality under which those laws are checked: exact for discrete
    carriers, tolerance-based for floating-point ones.  A subclass that
    overrides a row operation must return exactly what the method here
    returns.
    """

    name: str
    add: BinOp
    mul: BinOp
    zero: Any
    one: Any
    eq: EqOp = exact_eq

    def sum(self, values: Iterable[Any]) -> Any:
        """add(...add(add(zero, v1), v2)..., vn)."""
        return reduce(self.add, values, self.zero)

    def dot(self, xs: Sequence[Any], ys: Sequence[Any]) -> Any:
        """The ``sum`` of mul(x, y) over equal-length rows: a mul, then an add, per term.

        A subclass overrides ``_dot``, which runs once the lengths match.
        """
        if len(xs) != len(ys):
            raise ValueError(f"dot of rows of lengths {len(xs)} and {len(ys)}")
        return self._dot(xs, ys)

    def _dot(self, xs: Sequence[Any], ys: Sequence[Any]) -> Any:
        return self.sum(map(self.mul, xs, ys))

    # whether add_rows and mul_rows also take 1-D float arrays, and return one
    array_rows = False
    # whether dot_rows also takes WitnessBlocks, and returns one
    block_rows = False
    # a value's float score, by which sum picks a ScoreRow's winner from its
    # score array; None where sum folds every row term by term
    row_score = None

    def row(self, values: Iterable[Any]) -> list:
        """A row holding ``values``, as the row operations take and return it."""
        return list(values)

    def add_rows(self, xs: Iterable[Any], ys: Iterable[Any]) -> list:
        """[add(x, y) for each pair of entries of two equal-length rows]."""
        return list(map(self.add, xs, ys))

    def mul_rows(self, xs: Iterable[Any], ys: Iterable[Any]) -> list:
        """[mul(x, y) for each pair of entries of two equal-length rows].

        ``repeat(y)`` against a finite list row (or an iterator over one)
        multiplies each of its entries by ``y``.
        """
        return list(map(self.mul, xs, ys))

    def dot_rows(self, xss: Sequence[Iterable[Any]], yss: Sequence[Iterable[Any]]) -> list:
        """add(...add(mul(x1, y1), mul(x2, y2))..., mul(xk, yk)) per entry of k >= 1 row pairs.

        The left fold of ``add_rows`` over the ``mul_rows`` of each pair,
        from the first product, not from ``zero``: k muls and k - 1 adds
        per entry.  Each product row is added in as soon as it is made.
        Every row must be finite, since a score-and-witness semiring lists
        them: ``repeat(y)``, ``mul_rows``' broadcast operand, is no row here.
        """
        products = map(self.mul_rows, xss, yss)
        first = next(products, None)
        if first is None:
            raise ValueError("dot_rows of no rows")
        return reduce(self.add_rows, products, first)

    def prod(self, values: Iterable[Any]) -> Any:
        return reduce(self.mul, values, self.one)

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


def counting_semiring() -> Semiring:
    """Natural numbers under (+, *, 0, 1).

    The carrier is Python's arbitrary-precision int, so counts that grow
    exponentially (path counts roughly quintuple per size step in the
    alignment problems) stay exact and can never wrap silently.
    """
    return Semiring("count", operator.add, operator.mul, 0, 1)


def boolean_semiring() -> Semiring:
    """Booleans under (or, and); identities False and True."""
    return Semiring("bool", operator.or_, operator.and_, False, True)


class _ArrayRows(Semiring):
    """A float semiring whose elementwise rows also take 1-D float arrays.

    ``add_rows`` and ``mul_rows`` of an array, with an array or one float,
    give the array of the per-entry results (``_array_op``); other rows
    give ``Semiring``'s lists, mapped here: a ``super()`` call added 7% to
    ``prob``'s list fold of ``events``.
    """

    array_rows = True

    def add_rows(self, xs, ys):
        if hasattr(xs, "shape"):
            return _array_op(self.add, xs, ys)
        return list(map(self.add, xs, ys))

    def mul_rows(self, xs, ys):
        if hasattr(xs, "shape"):
            return _array_op(self.mul, xs, ys)
        return list(map(self.mul, xs, ys))


def probability_semiring() -> Semiring:
    """Reals under (+, *, 0, 1); sums likelihood over solutions.

    Its elementwise rows take float arrays; its sums fold left.
    """
    return _ArrayRows("prob", operator.add, operator.mul, 0.0, 1.0, float_eq)


def _itself(value):
    return value


class _Selective(_ArrayRows):
    """A float semiring whose add is builtin min or max.

    Its row sums, ``dot``'s included, are one ``add`` over the terms
    seeded with ``zero``: the builtin keeps its current value unless a
    later term beats it, which is the left fold's rule, nan included.
    A ``ScoreRow``'s sum is picked from its scores, the values
    themselves, where ``_array_selection`` settles it, and reads one
    entry.  The ``dot`` of two ``ScoreRow``s of two or more entries is
    the sum of the ``ScoreRow`` of their products; a one-term ``dot`` is
    folded, since the pick's array passes cost more than its one
    product.
    """

    row_score = staticmethod(_itself)

    def sum(self, values):
        if type(values) is ScoreRow:
            k = _array_selection(self.add, values.scores, self.zero)
            if k is not None:
                return self.zero if k < 0 else values[k]
        return self.add(chain((self.zero,), values))

    def _dot(self, xs, ys):
        if type(xs) is ScoreRow and type(ys) is ScoreRow and len(xs) > 1:
            mul = self.mul
            return self.sum(ScoreRow(_array_op(mul, xs.scores, ys.scores),
                                     lambda k: mul(xs[k], ys[k])))
        return self.sum(map(self.mul, xs, ys))


# true inside quiet_arrays(), whose np.errstate already silences every array op
_QUIET = contextvars.ContextVar("quiet_arrays", default=False)


@contextlib.contextmanager
def quiet_arrays():
    """numpy's floating-point warnings off for the block, so ``_array_op`` need not turn them off.

    A fold of many short array rows (``events_m_of_n`` makes three per
    event) runs in one ``np.errstate``, since entering one costs more
    than an array op of 50 entries (about 2 us against 1 us).
    """
    import numpy as np
    token = _QUIET.set(True)
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _QUIET.reset(token)


def _array_op(op, xs, ys):
    """``op`` (min, max, + or *) entry by entry over a float array and an array or one float.

    ``min(x, y)`` is ``y`` exactly when ``y < x``, else ``x``, and ``max``
    likewise, so the ``where`` below gives the builtin's result on ties,
    signed zeros and nan.  Python floats give ``inf - inf`` as nan
    silently, and so do these arrays.
    """
    if op is min or op is max:  # comparisons raise no floating-point warnings
        import numpy as np
        return np.where(ys < xs, ys, xs) if op is min else np.where(ys > xs, ys, xs)
    if _QUIET.get():
        return op(xs, ys)
    import numpy as np
    with np.errstate(all="ignore"):
        return op(xs, ys)


def minplus_semiring() -> Semiring:
    """Tropical minimum: add=min, mul=+, identities +inf and 0."""
    return _Selective("minplus", min, operator.add, math.inf, 0.0, float_eq)


def maxplus_semiring() -> Semiring:
    """Tropical maximum: add=max, mul=+, identities -inf and 0."""
    return _Selective("maxplus", max, operator.add, -math.inf, 0.0, float_eq)


def max_product_semiring() -> Semiring:
    """Non-negative reals under (max, *, 0, 1); best-probability scoring."""
    return _Selective("maxprod", max, operator.mul, 0.0, 1.0, float_eq)


def _softmin(x: float, y: float) -> float:
    # -ln(e^-x + e^-y), computed as min - log1p(exp(-|x-y|)) so large
    # magnitudes cannot underflow the naive exponentials.
    if x == math.inf:
        return y
    if y == math.inf:
        return x
    if x == -math.inf or y == -math.inf:
        return -math.inf
    return min(x, y) - math.log1p(math.exp(-abs(x - y)))


def softmax_semiring() -> Semiring:
    """Smooth minimum: add=-ln(e^-x + e^-y), mul=+, identities +inf and 0.

    A differentiable stand-in for the tropical minimum; add(x, y) is
    always at or below min(x, y) and approaches it as |x-y| grows.
    """
    return Semiring("softmax", _softmin, operator.add, math.inf, 0.0, float_eq)


def bottleneck_semiring() -> Semiring:
    """Values in [0, 1] under (max, min, 0, 1); fuzzy constraint grades."""
    return _Selective("bottleneck", max, min, 0.0, 1.0, float_eq)


def _expectation_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _expectation_mul(a, b):
    x, p = a
    y, q = b
    return (p * y + q * x, p * q)


def expectation_semiring() -> Semiring:
    """Pairs (value, weight) with mul (x,p)*(y,q) = (p*y + q*x, p*q).

    The multiplicative unit consistent with that product rule is (0, 1):
    it is the only pair u with u*(y, q) == (y, q) == (y, q)*u for every
    pair.  A unit of (1, 0) fails the identity law -- (x, p)*(1, 0)
    collapses to (p, 0) -- which the law tests demonstrate explicitly.
    """
    return Semiring(
        "expectation",
        _expectation_add,
        _expectation_mul,
        (0.0, 0.0),
        (0.0, 1.0),
        pair_eq(float_eq),
    )


def standard_semirings() -> dict[str, Semiring]:
    """The numeric semiring catalog, keyed by the names the CLI accepts."""
    return {
        "count": counting_semiring(),
        "bool": boolean_semiring(),
        "prob": probability_semiring(),
        "minplus": minplus_semiring(),
        "maxplus": maxplus_semiring(),
        "maxprod": max_product_semiring(),
        "softmax": softmax_semiring(),
        "bottleneck": bottleneck_semiring(),
        "expectation": expectation_semiring(),
    }


# catalog entries whose add returns one of its operands (min- or max-like),
# the bases over which a score-and-witness tuple keeps a witness of its score
SELECTIVE_SEMIRINGS = ("bool", "minplus", "maxplus", "maxprod", "bottleneck")
# the other catalog entries, whose add sums: count, prob, softmax, expectation
_SUMMING_CATALOG = frozenset(standard_semirings()).difference(SELECTIVE_SEMIRINGS)


class _Join:
    """The concatenation of two non-empty witness trails, not yet spelled out.

    A private type, so a join is never mistaken for a label sequence.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _flatten(trail):
    """The label tuple a trail of joins spells; any other trail as is.

    Iterative, since a fold's trail is as deep as its witness is long.
    """
    if type(trail) is not _Join:
        return trail
    labels = []
    pending = [trail]
    while pending:
        node = pending.pop()
        if type(node) is _Join:
            pending.append(node.right)
            pending.append(node.left)
        else:
            labels.extend(node)
    return tuple(labels)


# a WitnessBlock entry's kept term where its score is the base zero: as mul gives
# such a product the empty trail, it keeps none
EMPTY = -1


class WitnessBlock:
    """A row of score-and-witness values by their scores alone: a float array.

    A block holds no trails; the fold that makes blocks keeps them.  The
    ``dot_rows`` of blocks is a block whose ``kept``, an int8 array, gives
    the term each entry kept (0 for the first product), or ``EMPTY`` where
    its score is the base zero.  Slices are blocks viewing the same scores,
    written as blocks; an entry is written as a Scored value and read as
    its score with the empty trail.
    """

    __slots__ = ("scores", "kept")

    def __init__(self, scores, kept=None):
        self.scores = scores
        self.kept = kept

    def __len__(self):
        return len(self.scores)

    def __getitem__(self, k):
        if type(k) is slice:
            return WitnessBlock(self.scores[k])
        return Scored(self.scores.item(k), ())

    def __setitem__(self, k, value):
        self.scores[k] = value.scores if type(k) is slice else value[0]


def _spelled(value):
    """A Scored value as the plain (score, witness) tuple it stands for; others as they are."""
    return (value[0], _flatten(value[1])) if isinstance(value, Scored) else value


class Scored(NamedTuple):
    """A semiring score paired with the decision labels that produced it.

    ``trail`` holds the labels as built: a label tuple (a set of them in
    ``viterbi_semiring``), or the joins that ``viterbi_simple_semiring``
    multiplies into.  Read them through ``witness``, which flattens joins
    into the tuple they spell; comparisons and hashing go by ``witness``
    too, so a joined witness equals the flat tuple it spells.
    """

    score: Any
    trail: Any

    @property
    def witness(self):
        return _flatten(self[1])

    def __eq__(self, other):
        return _spelled(self) == _spelled(other)

    def __ne__(self, other):
        return _spelled(self) != _spelled(other)

    def __lt__(self, other):
        return _spelled(self) < _spelled(other)

    def __le__(self, other):
        return _spelled(self) <= _spelled(other)

    def __gt__(self, other):
        return _spelled(self) > _spelled(other)

    def __ge__(self, other):
        return _spelled(self) >= _spelled(other)

    def __hash__(self):
        return hash(_spelled(self))

    def __repr__(self):
        return f"Scored(score={self[0]!r}, witness={self.witness!r})"


def _require_selective(base: Semiring) -> None:
    """Refuse a catalog base whose add sums rather than selects; other semirings pass."""
    if base.name in _SUMMING_CATALOG:
        raise ValueError(
            f"a witness cannot stand for a sum over {base.name!r}; "
            f"use a selective base: {', '.join(SELECTIVE_SEMIRINGS)}"
        )


def _selection(pick, scores: list, zero_score):
    """Where a left fold of ``pick`` from ``zero_score`` over ``scores`` ends, in one scan.

    Returns the position of the score the fold keeps (the first exact
    winner), -1 when it keeps ``zero_score`` itself, or None when the
    fold's near-tie rule could matter (some score within 1e-9 relative of
    the winner without being exactly equal to it, or the winner within
    1e-9 of ``zero_score``) or some score is nan, in which case the caller
    scans.  Without such scores, every term before the first winner loses
    to it by more than the tolerance and every term after it does not
    beat it, so the fold ends there.
    """
    if not scores:
        return -1
    total = sum(scores)
    if total != total:  # a nan score (or inf - inf, which is just as well scanned)
        return None
    best = pick(zero_score, *scores)
    if best == zero_score:
        return -1
    if math.isclose(best, zero_score, rel_tol=FLOAT_REL_TOL):
        return None
    if not math.isinf(best):
        # every score within 1e-9 relative of best lies within 2e-9 * |best| of it
        margin = 2 * FLOAT_REL_TOL * abs(best)
        if pick is min:
            bound = best + margin
            near = [x for x in scores if x <= bound]
        else:
            bound = best - margin
            near = [x for x in scores if x >= bound]
        if len(near) != near.count(best):
            return None
    return scores.index(best)


class ScoreRow:
    """A row whose entry k is ``value(start + k)``, scored ``scores[k]``, for ``sum`` and ``dot``.

    ``scores`` is a float array (``row_score`` of each entry).  An entry is
    built only when read, so a semiring that picks a ``sum``'s winner from
    the scores builds one entry of the row.  ``len`` counts the entries
    without building them.  A slice (of step one, from a
    non-negative start) is a row over the same ``value`` and a view of the
    scores; iterated, a row gives its entries in order.
    """

    __slots__ = ("scores", "value", "start")

    def __init__(self, scores, value: Callable[[int], Any], start: int = 0):
        self.scores = scores
        self.value = value
        self.start = start

    def __len__(self):
        return len(self.scores)

    def __iter__(self):
        return map(self.value, range(self.start, self.start + len(self.scores)))

    def __getitem__(self, k):
        if type(k) is slice:
            return ScoreRow(self.scores[k], self.value, self.start + (k.start or 0))
        return self.value(self.start + k)


def _array_selection(pick, scores, zero_score):
    """``_selection`` over a float array of scores, in a few array passes.

    The same rule, with one exception that cannot change the answer: a row
    with both infinities and no nan is settled here, since the fold keeps
    its first infinite winner as surely.  numpy's argmin and argmax give
    the first best score, or the first nan, which is the nan rule's None.
    """
    import numpy as np
    if not scores.size:
        return -1
    k = int(scores.argmax() if pick is max else scores.argmin())
    best = scores.item(k)
    if best != best:  # a nan score
        return None
    if pick(zero_score, best) == zero_score:
        return -1
    if math.isclose(best, zero_score, rel_tol=FLOAT_REL_TOL):
        return None
    if not math.isinf(best):
        # every score within 1e-9 relative of best lies within 2e-9 * |best| of it
        margin = 2 * FLOAT_REL_TOL * abs(best)
        near = scores <= best + margin if pick is min else scores >= best - margin
        if np.count_nonzero(near) != np.count_nonzero(scores == best):
            return None
    return k


def viterbi_semiring(base: Semiring) -> Semiring:
    """Tuple ``base`` scores with *sets* of witness label sequences.

    ``add`` keeps the operand whose score wins under ``base.add`` and
    merges the witness sets when scores tie, so every optimum is
    retained; ``mul`` combines scores and cross-concatenates witnesses.
    ``base.add`` must be selective (min- or max-like over totally
    ordered scores); a catalog base outside ``SELECTIVE_SEMIRINGS``
    raises ``ValueError``.  Witnesses are frozensets of label tuples.
    """
    _require_selective(base)

    def add(a, b):
        if _near_tie(a.score, b.score):
            return Scored(a.score, a.witness | b.witness)
        if base.add(a.score, b.score) == a.score:
            return a
        return b

    def mul(a, b):
        return Scored(
            base.mul(a.score, b.score),
            frozenset(x + y for x in a.witness for y in b.witness),
        )

    def eq(a, b):
        return base.eq(a.score, b.score) and a.witness == b.witness

    zero = Scored(base.zero, frozenset())
    one = Scored(base.one, frozenset({()}))
    return Semiring(f"viterbi[{base.name}]", add, mul, zero, one, eq)


def _keeps_left(base_add, left, right) -> bool:
    """Whether a witness ``add`` keeps its left operand, given the two scores.

    It does when ``base_add`` of the scores is the left score or within
    1e-9 relative of it (``_near_tie(base_add(left, right), left)``), so
    the left operand wins exact ties and near-ties; a nan score goes
    wherever ``base_add`` puts it.
    """
    best = base_add(left, right)
    return best == left or math.isclose(best, left, rel_tol=FLOAT_REL_TOL)


def viterbi_simple_semiring(base: Semiring) -> Semiring:
    """Tuple ``base`` scores with a single witness label sequence.

    Ties (scores within 1e-9 relative error) keep the left operand,
    which makes the fold deterministic but means ``add`` is only
    commutative when scores are distinct; intended for problems whose
    optimum is effectively unique, or where any one optimal witness will
    do.  A score equal to ``base.zero`` means "no
    solution", so such values are canonicalized and compare equal
    whatever witness they carry.

    ``mul`` joins the two witnesses in O(1) (a private join node; an
    empty side returns the other unchanged) instead of copying both, so
    a fold never copies a witness; reading ``Scored.witness`` flattens
    the joins, in one pass, into the tuple that concatenation would
    give.  ``viterbi_semiring`` keeps plain label tuples: its frozensets
    hash their members, so a join would be flattened at every insertion.

    ``base`` must be selective; a catalog base outside
    ``SELECTIVE_SEMIRINGS`` raises ``ValueError``.  When ``base.add`` is
    the builtin min or max, the row operations pick the winning score
    with one scan over the row's scores (a ``ScoreRow``'s score array,
    for ``sum``; a ``dot`` of two ``ScoreRow``s is the ``sum`` of the
    ``ScoreRow`` of their products) and build one product for it, not one
    per term; rows where the near-tie rule could decide, or with a nan
    score, are folded term by term.  Over a min/max catalog base,
    ``dot_rows`` also takes ``WitnessBlock``s, ranking whole score arrays
    and giving the term each entry kept.  The result is the left fold's in
    both score and witness.
    """
    _require_selective(base)
    base_add, base_mul, base_zero = base.add, base.mul, base.zero
    zero = Scored(base_zero, ())
    one = Scored(base.one, ())
    new = tuple.__new__

    def add(a, b):
        return a if _keeps_left(base_add, a[0], b[0]) else b

    def mul(a, b):
        score = base_mul(a[0], b[0])
        if score == base_zero:  # exact: tiny-but-live scores keep witnesses
            return zero
        x, y = a[1], b[1]
        return new(Scored, (score, _Join(x, y) if x and y else x or y))

    def eq(a, b):
        if not base.eq(a.score, b.score):
            return False
        return base.eq(a.score, base.zero) or a.witness == b.witness

    name = f"viterbi-simple[{base.name}]"
    if base_add is not min and base_add is not max:
        return Semiring(name, add, mul, zero, one, eq)
    return _PickedWitness(name, add, mul, zero, one, eq, base)


_score = operator.itemgetter(0)


@dataclass(frozen=True, repr=False)
class _PickedWitness(Semiring):
    """``viterbi_simple_semiring`` over a ``base`` whose add is builtin min or max.

    A row's winner is picked with ``_selection`` (``_array_selection``
    for a ``ScoreRow``, whose one read entry is the result) and one
    product is built for it.  The ``dot`` of two ``ScoreRow``s of two or
    more entries is the ``sum`` of the ``ScoreRow`` of their products;
    one-term ``ScoreRow`` dots, and rows the selection cannot settle, are
    folded term by term.
    ``dot_rows`` walks each entry's k product scores with ``add``'s own
    rule and builds the product of the surviving term only.  Given
    ``WitnessBlock``s, it ranks whole score arrays and returns a block of
    the kept scores and terms (``block_rows``, when the base's rows take
    arrays).
    """

    base: Semiring | None = field(default=None, compare=False)
    row_score = _score

    @property
    def block_rows(self):
        return self.base.array_rows

    def dot_rows(self, xss, yss):
        xss = list(xss)
        if xss and type(xss[0]) is WitnessBlock:
            return self._dot_blocks(xss, list(yss))
        xss = [xs if isinstance(xs, list) else list(xs) for xs in xss]
        yss = [ys if isinstance(ys, list) else list(ys) for ys in yss]
        if not xss:
            raise ValueError("dot_rows of no rows")
        base_add, base_mul, mul = self.base.add, self.base.mul, self.mul
        # per entry: the score the fold holds so far and the pair it came from
        best = list(map(base_mul, map(_score, xss[0]), map(_score, yss[0])))
        kept = [0] * len(best)
        for t in range(1, len(xss)):
            scores = list(map(base_mul, map(_score, xss[t]), map(_score, yss[t])))
            keep = list(map(_keeps_left, repeat(base_add), best, scores))
            kept = [k if left else t for left, k in zip(keep, kept)]
            best = [b if left else s for left, b, s in zip(keep, best, scores)]
        return [mul(xss[k][c], yss[k][c]) for c, k in enumerate(kept)]

    def _dot_blocks(self, xss, yss):
        """``dot_rows`` of blocks: per entry, the score the fold keeps and which term it is.

        Per entry, the product scores are ranked in order with
        ``_keeps_left``'s rule over whole arrays: a near tie keeps the left
        term, and a nan running best takes the right one.  A score equal to
        the base zero is zero's own score and keeps no term (``EMPTY``), as
        ``mul`` gives it the empty trail.
        """
        import numpy as np
        if not _QUIET.get():  # one np.errstate for the whole pick, not one per array op
            with quiet_arrays():
                return self._dot_blocks(xss, yss)
        base = self.base
        best = base.mul_rows(xss[0].scores, yss[0].scores)
        kept = np.zeros(len(best), np.int8)
        for t in range(1, len(xss)):
            scores = base.mul_rows(xss[t].scores, yss[t].scores)
            picked = base.add_rows(best, scores)
            gap = np.abs(picked - best)  # math.isclose(picked, best, rel_tol=...)
            near = gap <= FLOAT_REL_TOL * np.maximum(np.abs(picked), np.abs(best))
            keep = (picked == best) | (near & (gap < math.inf))
            best, kept = np.where(keep, best, scores), np.where(keep, kept, np.int8(t))
        dead = best == base.zero
        best[dead] = base.zero  # -0.0 too becomes zero's own score
        kept[dead] = EMPTY
        return WitnessBlock(best, kept)

    def sum(self, values):
        if type(values) is ScoreRow:
            k = _array_selection(self.base.add, values.scores, self.zero.score)
        else:
            values = values if isinstance(values, list) else list(values)
            k = _selection(self.base.add, list(map(_score, values)), self.zero.score)
        if k is None:
            return super().sum(values)
        return self.zero if k < 0 else values[k]

    def _dot(self, xs, ys):
        base, mul = self.base, self.mul
        if type(xs) is ScoreRow and type(ys) is ScoreRow:
            if len(xs) > 1:
                return self.sum(ScoreRow(_array_op(base.mul, xs.scores, ys.scores),
                                         lambda k: mul(xs[k], ys[k])))
            k = None  # one product, or none: folding builds no more than a pick
        else:
            scores = list(map(base.mul, map(_score, xs), map(_score, ys)))
            k = _selection(base.add, scores, self.zero.score)
        if k is None:  # the term-by-term fold, not a second selection
            return Semiring.sum(self, map(mul, xs, ys))
        return self.zero if k < 0 else mul(xs[k], ys[k])


@dataclass
class OpCounts:
    """Mutable tally of semiring operation calls."""

    add: int = 0
    mul: int = 0

    def total(self) -> int:
        return self.add + self.mul

    def reset(self) -> None:
        self.add = 0
        self.mul = 0


@dataclass(frozen=True, repr=False)
class _Counted(Semiring):
    """``instrumented``'s semiring: its rows tally their terms and delegate to ``inner``'s."""

    inner: Semiring | None = field(default=None, compare=False)
    counts: OpCounts | None = field(default=None, compare=False)

    def sum(self, values):
        if type(values) is not ScoreRow:
            values = values if isinstance(values, list) else list(values)
        self.counts.add += len(values)
        return self.inner.sum(values)

    def _dot(self, xs, ys):
        counts = self.counts
        counts.add += len(xs)
        counts.mul += len(xs)
        return self.inner.dot(xs, ys)

    @property
    def array_rows(self):
        return self.inner.array_rows

    @property
    def block_rows(self):
        return self.inner.block_rows

    @property
    def row_score(self):
        return self.inner.row_score

    def add_rows(self, xs, ys) -> list:
        out = self.inner.add_rows(xs, ys)
        self.counts.add += len(out)
        return out

    def mul_rows(self, xs, ys) -> list:
        out = self.inner.mul_rows(xs, ys)
        self.counts.mul += len(out)
        return out

    def dot_rows(self, xss, yss) -> list:
        xss = xss if isinstance(xss, (list, tuple)) else list(xss)
        out = self.inner.dot_rows(xss, yss)
        k = len(xss)
        self.counts.mul += k * len(out)
        self.counts.add += (k - 1) * len(out)
        return out


def instrumented(s: Semiring) -> tuple[Semiring, OpCounts]:
    """Wrap ``s`` so every add/mul call is tallied.

    Complexity claims about the recurrences are statements about
    operation counts, not wall time; the counters make them testable.
    A row operation tallies what its fold would (one add per term, one
    mul per pair of ``dot``; one add or mul per entry of ``add_rows`` or
    ``mul_rows``, against a broadcast ``repeat(y)`` or float too; k muls
    and k - 1 adds per entry of a ``dot_rows`` of k row pairs) in O(1) and then
    runs ``s``'s own.  The wrapper is not thread-safe and is meant for
    measurement only.
    """
    counts = OpCounts()

    def add(a, b):
        counts.add += 1
        return s.add(a, b)

    def mul(a, b):
        counts.mul += 1
        return s.mul(a, b)

    return _Counted(f"{s.name}#counted", add, mul, s.zero, s.one, s.eq, s, counts), counts
