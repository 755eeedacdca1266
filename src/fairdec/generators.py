"""Named instance families: worked examples, stress constructions, random draws.

Each family is a function returning the instance (plus a witness allocation
or a critical weight ratio where the construction is about one). ``generate``
dispatches on the family name for the command line.

Family overview:
- example1: two players, two binary issues, opposite interests; every share
  of every player equals 1.
- example2: two players, eight binary issues; the second player is
  indifferent on half of them, which separates PPS (0) from RRS (2).
- compromise: two binary issues where a middling alternative in each is
  jointly better than the two favorites; turn-taking picks the favorites and
  is Pareto dominated.
- theorem5: n players, n binary issues; the shared alternative pays player 1
  a sliver d and everyone else a trickle x, calibrated so the Nash-welfare
  optimum takes it everywhere while player 1's PPS level collapses to n*d.
- lemma6_upper: n players, n^2 goods, with a hand-built envy-free-up-to-one
  allocation that pays player 1 only n/(2n-2) of her round robin share.
- theorem6_upper: two players, four goods; the Nash-welfare allocation pays
  player 1 a 2/(3-2*delta) fraction of her round robin share.
- appendixA: goods instance plus a witness allocation that satisfies RRS but
  fails proportionality-up-to-one-good, built in closed form; it exists
  exactly when m > 4n - 2.
- weighted_welfare_gap: two players, four goods where no weighted-welfare
  allocation at any weights gives both players their (equal) RRS of 5; the
  critical weight ratio 3/4 is returned with it.
- random / random-goods: seeded uniform integer utilities.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice
from operator import index
from typing import Iterator, NamedTuple, Sequence

from .errors import GenerationError
from .model import (
    Allocation,
    DecisionInstance,
    GoodsInstance,
    Instance,
    allocation,
    decision_instance,
    goods_instance,
)

FAMILIES = (
    "example1",
    "example2",
    "compromise",
    "theorem5",
    "lemma6_upper",
    "theorem6_upper",
    "appendixA",
    "weighted_welfare_gap",
    "random",
    "random-goods",
)


class GeneratedInstance(NamedTuple):
    family: str
    instance: Instance
    witness: Allocation | None = None
    critical_ratio: Fraction | None = None


def example1() -> DecisionInstance:
    issue = [[1, 0], [0, 1]]
    return decision_instance([issue, issue])


def example2() -> DecisionInstance:
    contested = [[1, 0], [0, 1]]
    solo = [[1, 0], [0, 0]]
    return decision_instance([contested] * 4 + [solo] * 4)


def compromise() -> DecisionInstance:
    c, labels = Fraction(2, 3), [("extreme", "compromise")] * 2
    utilities = [[[1, c], [0, c]], [[0, c], [1, c]]]
    return decision_instance(utilities, alternative_names=labels)


# Slack on the binding lower bound for d: large enough that the two strict
# inequalities survive the rational approximation of x, small enough that
# n*d stays below 1/2 at n = 8.
_THEOREM5_SLACK = Fraction(26, 25)


def theorem5(n: int) -> DecisionInstance:
    """n binary issues; the second alternative pays player 1 d and, on issue 1,
    x to everyone else (on issue t, 1 to player t).

    x approximates (ln n - ln ln n) / n to within 1e-6 as an exact rational;
    d sits 4% above the larger of its two lower bounds, which keeps both
    certifying inequalities strict: n*d exceeds 1/((1+x)^(n-1) - 1 + 1/n) and
    n*x/(n+x).
    """
    if n < 2:
        raise ValueError("this family needs at least two players")
    x = Fraction(
        (math.log(n) - math.log(math.log(n))) / n
    ).limit_denominator(10**7)
    rhs_product = 1 / ((1 + x) ** (n - 1) - 1 + Fraction(1, n))
    rhs_linear = n * x / (n + x)
    d = _THEOREM5_SLACK * max(rhs_product, rhs_linear) / n
    if d >= 1:
        raise GenerationError(
            f"calibration failed at n={n}: d={d} >= 1 breaks the unit share of player 1"
        )
    try:
        str(d)  # the conversion io.to_json makes
    except ValueError:
        raise GenerationError(f"at n={n}, d has too many digits to write") from None
    issues = [[[1, d]] + [[0, int(j == t)] for j in range(1, n)] for t in range(n)]
    issues[0][1:] = [[0, x]] * (n - 1)
    return decision_instance(issues)


def lemma6_upper(n: int) -> tuple[GoodsInstance, Allocation]:
    """n players, n^2 goods, and an envy-free-up-to-one-good allocation where
    player 1 realizes only n/(2n-2) of her round robin share of 2."""
    if n < 2:
        raise ValueError("this family needs at least two players")
    m = n * n
    cheap = Fraction(1, n - 1)
    bundles = [set(range(n, 2 * n)), {0, 1}]
    bundles += [{i} | set(range(i * n, (i + 1) * n)) for i in range(2, n)]
    return _unit_valued([1] * n + [cheap] * (m - n), bundles)


def _unit_valued(row0: list, bundles: list) -> tuple[GoodsInstance, Allocation]:
    """Player 1's values ``row0``, each other player's 1 on the goods of her
    bundle and 0 elsewhere, and the allocation ``bundles``."""
    m = len(row0)
    rows = [row0] + [[int(g in bundle) for g in range(m)] for bundle in bundles[1:]]
    return goods_instance(rows), allocation(bundles)


def theorem6_upper(delta: Fraction = Fraction(1, 100)) -> GoodsInstance:
    """Two players, four goods; under the Nash-welfare allocation player 1
    keeps 2/(3-2*delta) of her round robin share of 3/2 - delta."""
    delta = Fraction(delta)
    if not 0 < delta < Fraction(1, 2):
        raise ValueError("delta must lie strictly between 0 and 1/2")
    half = Fraction(1, 2)
    return goods_instance([[1 - delta, 1 - delta, half, half], [1, 1, 0, 0]])


def appendixA(n: int, m: int) -> tuple[GoodsInstance, Allocation]:
    """A goods instance with a witness allocation satisfying every player's
    RRS while failing proportionality-up-to-one-good for player 1.

    With k = m // n steps, player 1 values good 0 at (k-1)n + 1, the next
    kn - 2 goods at n and the last m - kn + 1 at 1, and holds only good 0;
    every other player unit-values exactly the goods handed to her. Player
    1's RRS, her ranked values at positions n, 2n, ..., kn, is (k-1)n + 1,
    exactly her utility. Her row sums to kn^2 - 3n + m + 2, and n times her
    utility plus her best unheld good (worth n) is kn^2 + n, which falls
    short of it exactly when m > 4n - 2, whatever k.
    """
    if n < 2:
        raise ValueError("this family needs at least two players")
    if m < n:
        raise ValueError("this family needs at least as many goods as players")
    if m <= 4 * n - 2:
        raise GenerationError(
            f"no step count yields an RRS-but-not-Prop1 witness at n={n}, m={m} "
            f"(impossible unless m > 4n - 2 = {4 * n - 2})"
        )
    k = m // n
    row0 = [(k - 1) * n + 1] + [n] * (k * n - 2) + [1] * (m - k * n + 1)
    bundles = [{0}] + [set(range(i, m, n - 1)) for i in range(1, n)]
    return _unit_valued(row0, bundles)


def weighted_welfare_gap() -> tuple[GoodsInstance, Fraction]:
    """Two players, four goods, equal RRS of 5; no weight vector makes a
    welfare-maximizing allocation give both players 5. The returned ratio
    w1/w2 = 3/4 is where the allocation flips."""
    return goods_instance([[4, 4, 1, 1], [3, 3, 2, 2]]), Fraction(3, 4)


def random_public(
    n: int,
    m: int,
    k: int | Sequence[int],
    seed: int,
    umin: int = 0,
    umax: int = 5,
) -> DecisionInstance:
    """Uniform integer utilities in [umin, umax]; k alternatives per issue
    (a sequence gives per-issue counts). Draw order: issues, then players,
    then alternatives; each issue's n * k draws are one slice, cut into rows."""
    if n < 1:
        raise ValueError(f"players: at least one player is required, got n={n}")
    if m == 0:  # with no issue, the instance could not tell how many players
        raise ValueError("issues: at least one issue is required, got m=0")
    counts = list(k) if not isinstance(k, int) else [k] * m
    if m < 0 or min(counts, default=0) < 0:
        raise ValueError(f"m and k must not be negative, got m={m}, k={k}")
    if len(counts) != m:
        raise ValueError("need one alternative count per issue")
    draws = _draws(seed, umin, umax)
    return decision_instance(
        [[*zip(*[islice(draws, n * c)] * c)] or [()] * n for c in counts]
    )


def random_goods(
    n: int, m: int, seed: int, umin: int = 0, umax: int = 5
) -> GoodsInstance:
    """Uniform integer per-good utilities in [umin, umax]; players then goods."""
    if n < 1:
        raise ValueError(f"players: at least one player is required, got n={n}")
    if m < 0:
        raise ValueError(f"m must not be negative, got {m}")
    draws = _draws(seed, umin, umax)
    return goods_instance([[*islice(draws, m)] for _ in range(n)])


def _draws(seed: int, umin: int, umax: int) -> Iterator[int]:
    """What ``random.Random(seed).randint(umin, umax)`` returns call after
    call, drawn as it draws: ``getrandbits`` of the range's bit length, redrawn
    until it falls in the range. The bounds are checked at the first draw."""
    umin, umax = index(umin), index(umax)  # a TypeError unless both are integers
    width = umax - umin + 1
    if width < 1:
        raise ValueError(f"empty utility range: umin {umin} exceeds umax {umax}")
    bits, getrandbits = width.bit_length(), random.Random(seed).getrandbits
    while True:
        r = getrandbits(bits)
        if r < width:
            yield umin + r


def generate(
    family: str,
    n: int | None = None,
    m: int | None = None,
    k: int | None = None,
    delta: Fraction | None = None,
    seed: int | None = None,
    umin: int = 0,
    umax: int = 5,
) -> GeneratedInstance:
    """Build a named family; raises ValueError on a missing or unknown name
    or missing parameters."""

    def need(**params):
        missing = [name for name, value in params.items() if value is None]
        if missing:
            raise ValueError(
                f"family {family!r} needs parameters: {', '.join(missing)}"
            )

    fixed = {"example1": example1, "example2": example2, "compromise": compromise}
    if family in fixed:
        return GeneratedInstance(family, fixed[family]())
    if family == "theorem5":
        need(n=n)
        return GeneratedInstance(family, theorem5(n))
    if family == "lemma6_upper":
        need(n=n)
        instance, witness = lemma6_upper(n)
        return GeneratedInstance(family, instance, witness=witness)
    if family == "theorem6_upper":
        instance = theorem6_upper(delta if delta is not None else Fraction(1, 100))
        return GeneratedInstance(family, instance)
    if family == "appendixA":
        need(n=n, m=m)
        instance, witness = appendixA(n, m)
        return GeneratedInstance(family, instance, witness=witness)
    if family == "weighted_welfare_gap":
        instance, ratio = weighted_welfare_gap()
        return GeneratedInstance(family, instance, critical_ratio=ratio)
    if family == "random":
        need(n=n, m=m, k=k, seed=seed)
        return GeneratedInstance(family, random_public(n, m, k, seed, umin, umax))
    if family == "random-goods":
        need(n=n, m=m, seed=seed)
        return GeneratedInstance(family, random_goods(n, m, seed, umin, umax))
    raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
