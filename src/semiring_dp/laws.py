"""Randomized verification of the semiring axioms.

Each check draws random value triples and tests associativity,
commutativity of add, both distributivity directions, identities and
annihilation under the semiring's own equality predicate.  Selectivity,
``add(a, b)`` being ``a`` or ``b``, is checked on request: it is no
semiring axiom, but the min/max bases have it, and witness tupling
relies on it.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from .semirings import Scored, Semiring

Sampler = Callable[[random.Random], Any]


def _law_checks(s: Semiring, a, b, c):
    return (
        ("add-associativity", s.add(s.add(a, b), c), s.add(a, s.add(b, c))),
        ("add-commutativity", s.add(a, b), s.add(b, a)),
        ("mul-associativity", s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c))),
        ("left-distributivity", s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c))),
        ("right-distributivity", s.mul(s.add(a, b), c), s.add(s.mul(a, c), s.mul(b, c))),
        ("add-identity", s.add(s.zero, a), a),
        ("mul-left-identity", s.mul(s.one, a), a),
        ("mul-right-identity", s.mul(a, s.one), a),
        ("left-annihilation", s.mul(s.zero, a), s.zero),
        ("right-annihilation", s.mul(a, s.zero), s.zero),
    )


def law_failures(
    s: Semiring,
    sample: Sampler,
    *,
    trials: int = 1000,
    seed: int = 0,
    limit: int = 25,
    selective: bool = False,
) -> list[str]:
    """Return descriptions of law violations found over random triples.

    With ``selective``, each triple also checks that ``add(a, b)`` equals
    ``a`` or ``b`` under ``s.eq`` (law "add-selectivity").
    """
    rng = random.Random(seed)
    failures: list[str] = []
    for _ in range(trials):
        a, b, c = sample(rng), sample(rng), sample(rng)
        found = [
            f"{name}: {got!r} != {want!r}"
            for name, got, want in _law_checks(s, a, b, c)
            if not s.eq(got, want)
        ]
        if selective:
            got = s.add(a, b)
            if not (s.eq(got, a) or s.eq(got, b)):
                found.append(f"add-selectivity: {got!r} is neither operand")
        for failure in found:
            failures.append(f"{s.name} {failure} for a={a!r} b={b!r} c={c!r}")
            if len(failures) >= limit:
                return failures
    return failures


# --- value samplers ---------------------------------------------------------


def int_values(lo: int = 0, hi: int = 12) -> Sampler:
    return lambda rng: rng.randint(lo, hi)


def bool_values() -> Sampler:
    return lambda rng: rng.random() < 0.5


def float_values(lo: float = -20.0, hi: float = 20.0) -> Sampler:
    return lambda rng: rng.uniform(lo, hi)


def unit_interval() -> Sampler:
    return lambda rng: rng.random()


def expectation_values() -> Sampler:
    # non-negative value component keeps distributivity clear of the
    # catastrophic cancellation that would make tolerance checks vacuous
    return lambda rng: (rng.uniform(0.0, 2.0), rng.random())


def scored_sets(labels: str = "abc") -> Sampler:
    """Scores from a small integer grid (so ties occur) with set witnesses."""

    def sample(rng: random.Random) -> Scored:
        score = float(rng.randint(0, 4))
        n = rng.randint(0, 2)
        witness = frozenset(
            tuple(rng.choice(labels) for _ in range(rng.randint(0, 2)))
            for _ in range(n)
        )
        return Scored(score, witness)

    return sample


def scored_sequences(labels: str = "abc") -> Sampler:
    """Continuous scores (ties have measure zero) with tuple witnesses."""

    def sample(rng: random.Random) -> Scored:
        witness = tuple(rng.choice(labels) for _ in range(rng.randint(0, 2)))
        return Scored(rng.uniform(-10.0, 10.0), witness)

    return sample


def lifted_values(base_sampler: Sampler, size: int) -> Sampler:
    return lambda rng: tuple(base_sampler(rng) for _ in range(size))


def catalog_samplers() -> dict[str, Sampler]:
    """One random-value generator per standard catalog entry."""
    return {
        "count": int_values(0, 20),
        "bool": bool_values(),
        "prob": unit_interval(),
        "minplus": float_values(),
        "maxplus": float_values(),
        "maxprod": unit_interval(),
        "softmax": float_values(-40.0, 40.0),
        "bottleneck": unit_interval(),
        "expectation": expectation_values(),
    }
