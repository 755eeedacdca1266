"""Named instance families and the seeded random generators."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd
from fairdec.generators import FAMILIES
from reference_helpers import enumerate_allocations


def test_family_registry_is_complete():
    assert set(FAMILIES) == {
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
    }


def test_generate_rejects_unknown_families_and_missing_parameters():
    with pytest.raises(ValueError):
        fd.generate("nonsense")
    with pytest.raises(ValueError, match="needs parameters: n"):
        fd.generate("theorem5")
    with pytest.raises(ValueError, match="seed"):
        fd.generate("random", n=2, m=2, k=2)


def test_example_families_are_fixed():
    e1 = fd.generate("example1").instance
    assert (e1.n, e1.m) == (2, 2)
    assert e1.issues[0].utilities == e1.issues[1].utilities

    e2 = fd.generate("example2").instance
    assert (e2.n, e2.m) == (2, 8)
    # four contested issues, then four that only player 1 values
    assert all(issue.utilities[1][1] == 1 for issue in e2.issues[:4])
    assert all(issue.utilities[1] == (0, 0) for issue in e2.issues[4:])

    comp = fd.generate("compromise").instance
    assert comp.issues[0].alternatives == ("extreme", "compromise")
    assert comp.utility(0, 0, 1) == Fraction(2, 3)


def test_calibrated_family_meets_its_inequalities():
    inst = fd.generate("theorem5", n=8).instance
    n = inst.n
    assert inst.m == n and all(issue.k == 2 for issue in inst.issues)
    d = inst.utility(0, 0, 1)
    x = inst.utility(1, 0, 1)
    # the first alternative of every issue pays only player 1, a full unit
    assert all(inst.utility(0, t, 0) == 1 for t in range(n))
    # issue t > 1 pays player t+1 a unit on the second alternative
    assert all(inst.utility(t, t, 1) == 1 for t in range(1, n))
    assert abs(x - Fraction((math.log(n) - math.log(math.log(n))) / n)) <= Fraction(
        1, 10**6
    )
    assert n * d > 1 / ((1 + x) ** (n - 1) - 1 + Fraction(1, n))
    assert n * d > n * x / (n + x)
    assert n * d < Fraction(1, 2)


def test_calibrated_family_needs_two_players():
    with pytest.raises(ValueError):
        fd.generate("theorem5", n=1)


def test_envy_free_family_carries_its_witness():
    generated = fd.generate("lemma6_upper", n=4)
    goods, witness = generated.instance, generated.witness
    assert (goods.n, goods.m) == (4, 16)
    report = fd.audit_goods(goods, witness)
    assert all(p.ef1.satisfied for p in report.players)
    assert report.players[0].rrs.alpha == Fraction(2, 3)
    assert report.utilities == (Fraction(4, 3), Fraction(2), Fraction(5), Fraction(5))


def test_nash_welfare_family_shape():
    goods = fd.generate("theorem6_upper", delta=Fraction(1, 100)).instance
    assert (goods.n, goods.m) == (2, 4)
    assert goods.utilities[0] == (
        Fraction(99, 100),
        Fraction(99, 100),
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert fd.round_robin_share(goods, 0) == Fraction(149, 100)
    with pytest.raises(ValueError):
        fd.generate("theorem6_upper", delta=Fraction(1, 2))


def test_share_gap_family_is_certified():
    generated = fd.generate("appendixA", n=2, m=7)
    goods, witness = generated.instance, generated.witness
    assert goods.utilities[0] == tuple(map(Fraction, (5, 2, 2, 2, 2, 1, 1)))
    assert [sorted(b) for b in witness.bundles] == [[0], [1, 2, 3, 4, 5, 6]]
    report = fd.audit_goods(goods, witness)
    assert all(p.rrs.satisfied for p in report.players)
    assert not report.players[0].prop1.satisfied
    assert report.players[0].prop1.alpha == Fraction(14, 15)


def test_share_gap_family_fails_closed_when_too_small():
    # below the threshold no step count can separate the two axioms
    with pytest.raises(fd.GenerationError, match="m > 4n - 2"):
        fd.generate("appendixA", n=2, m=6)


def test_welfare_gap_family_carries_the_flip_ratio():
    generated = fd.generate("weighted_welfare_gap")
    assert generated.critical_ratio == Fraction(3, 4)
    assert generated.instance.utilities == (
        tuple(map(Fraction, (4, 4, 1, 1))),
        tuple(map(Fraction, (3, 3, 2, 2))),
    )


def test_random_families_are_seeded_and_bounded():
    a = fd.generate("random", n=3, m=4, k=2, seed=11).instance
    b = fd.generate("random", n=3, m=4, k=2, seed=11).instance
    c = fd.generate("random", n=3, m=4, k=2, seed=12).instance
    assert a == b
    assert a != c
    assert (a.n, a.m) == (3, 4)
    assert all(issue.k == 2 for issue in a.issues)
    assert all(
        0 <= v <= 5 for issue in a.issues for row in issue.utilities for v in row
    )

    g = fd.generate("random-goods", n=2, m=6, seed=7, umin=1, umax=9).instance
    h = fd.generate("random-goods", n=2, m=6, seed=7, umin=1, umax=9).instance
    assert g == h
    assert all(1 <= v <= 9 for row in g.utilities for v in row)


@pytest.mark.parametrize(
    "umin, umax", [(0, 5), (0, 0), (3, 3), (2, 9), (1, 2**32), (0, 2**40 + 3)]
)
@pytest.mark.parametrize("seed", [0, 7, 11, 2**40])
def test_random_families_draw_what_randint_draws(seed, umin, umax):
    """Each random family equals the instance built from
    random.Random(seed).randint in its documented order, at one player and
    at issues of one alternative too."""
    for n, counts in ((4, (3, 1, 2, 3)), (1, (3, 1, 2)), (3, (1, 4, 1)), (1, (1,))):
        draw = random.Random(seed).randint
        cells = [
            [[draw(umin, umax) for _ in range(c)] for _ in range(n)] for c in counts
        ]
        public = fd.random_public(n, len(counts), counts, seed, umin, umax)
        assert public == fd.decision_instance(cells)
        draw = random.Random(seed).randint
        rows = [[draw(umin, umax) for _ in range(9)] for _ in range(n)]
        assert fd.random_goods(n, 9, seed, umin, umax) == fd.goods_instance(rows)


@pytest.mark.parametrize(
    "build, digest",
    [
        (
            lambda: fd.random_public(10, 200, 2, 7),
            "74e28f9384b4c6438f0a97d2be95d1d78e748e48858e8200b9736e71fc308240",
        ),
        (
            lambda: fd.random_goods(20, 400, 7),
            "e47c4a7984c7944ffe4285659a0599c569c99cd4d0e4da8fdc8615f82ca722bf",
        ),
        (
            lambda: fd.goods_to_public(fd.random_goods(20, 400, 7)),
            "6ddcf7e069641c85acbfb9cde518dacd2908bdb9cc6919d7e7e91d4641cec0aa",
        ),
    ],
)
def test_large_generated_documents_keep_their_bytes(build, digest):
    """The sha256 of the documents that a seed's public instance, goods
    instance and goods embedding write, so that the generators and the
    emitter keep writing a seed's files byte for byte."""
    text = fd.io.to_json(fd.io.instance_document(build()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


_NO_ALTERNATIVE = "an issue needs at least one alternative"


@pytest.mark.parametrize(
    "k, message",
    [
        (0, "; ".join(f"issues[{t}]: {_NO_ALTERNATIVE}" for t in range(3))),
        ((2, 0, 1), f"issues[1]: {_NO_ALTERNATIVE}"),
    ],
    ids=["every-issue", "one-issue"],
)
def test_an_issue_drawn_with_no_alternatives_is_refused_by_name(k, message):
    with pytest.raises(fd.InstanceFormatError) as info:
        fd.random_public(2, 3, k, 0)
    assert str(info.value) == message


def test_an_empty_utility_range_names_both_bounds():
    message = "^empty utility range: umin 5 exceeds umax 4$"
    with pytest.raises(ValueError, match=message):
        fd.random_goods(2, 3, 1, umin=5, umax=4)
    with pytest.raises(ValueError, match=message):
        fd.random_public(2, 3, 2, 1, umin=5, umax=4)


@pytest.mark.parametrize("bounds", [(0.5, 5), (0, 5.0), (Fraction(0), 5)])
def test_random_bounds_must_be_integers(bounds):
    with pytest.raises(TypeError):
        fd.random_goods(2, 3, 1, *bounds)


def test_random_family_takes_per_issue_widths():
    inst = fd.random_public(2, 3, (1, 2, 3), seed=0)
    assert [issue.k for issue in inst.issues] == [1, 2, 3]


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_envy_free_family_certifies_at_any_size(n, seed):
    del seed  # the family is deterministic; size is the only input
    generated = fd.generate("lemma6_upper", n=n)
    report = fd.audit_goods(generated.instance, generated.witness)
    assert all(p.ef1.satisfied for p in report.players)
    assert report.players[0].rrs.alpha == Fraction(n, 2 * n - 2)


def test_share_gap_family_certifies_when_large_enough():
    # the closed form separates the two axioms exactly when m > 4n - 2
    for n in range(2, 6):
        for m in range(n, 8 * n + 1):
            if m <= 4 * n - 2:
                with pytest.raises(fd.GenerationError, match="m > 4n - 2"):
                    fd.generate("appendixA", n=n, m=m)
                continue
            generated = fd.generate("appendixA", n=n, m=m)
            report = fd.audit_goods(generated.instance, generated.witness)
            assert all(p.rrs.satisfied for p in report.players), (n, m)
            assert not report.players[0].prop1.satisfied, (n, m)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**9))
def test_random_instances_validate(seed):
    # building checks an instance, so a generated one is well formed
    inst = fd.generate("random", n=3, m=3, k=3, seed=seed).instance
    assert (inst.n, inst.m) == (3, 3)
    goods = fd.generate("random-goods", n=3, m=5, seed=seed).instance
    assert (goods.n, goods.m) == (3, 5)
    # a negative lower bound draws negative utilities, which building rejects
    with pytest.raises(fd.InstanceFormatError) as info:
        fd.generate("random-goods", n=3, m=5, seed=seed, umin=-5, umax=-1)
    paths = [v.path for v in info.value.violations]
    assert paths == [f"utilities[{i}][{g}]" for i in range(3) for g in range(5)]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: fd.generators.lemma6_upper(1), ValueError, "at least two players"),
        (lambda: fd.generators.appendixA(1, 5), ValueError, "at least two players"),
        (lambda: fd.generators.appendixA(3, 2), ValueError, "as many goods as players"),
        (lambda: fd.random_public(2, 3, [2, 2], 0), ValueError, "one alternative count"),
        (lambda: fd.random_public(2, 2, -1, 0), ValueError, "got m=2, k=-1"),
        (lambda: fd.random_public(2, 2, [2, -1], 0), ValueError, "got m=2, k=[2, -1]"),
        (
            lambda: fd.random_public(3, 0, 2, 1),
            ValueError,
            "issues: at least one issue is required, got m=0",
        ),
        (lambda: fd.random_goods(2, -1, 0), ValueError, "m must not be negative"),
        (
            lambda: next(enumerate_allocations(fd.random_goods(3, 15, 1), cap=10)),
            fd.CapExceeded,
            "allocation enumeration needs 14348907 points but the cap is 10",
        ),
    ],
    ids=[
        "lemma6-one-player",
        "appendixA-one-player",
        "appendixA-too-few-goods",
        "random-short-widths",
        "random-negative-k",
        "random-negative-width",
        "random-no-issue",
        "random-goods-negative-m",
        "allocations-over-cap",
    ],
)
def test_bad_sizes_are_refused_with_a_named_error(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert message in str(info.value)
