"""Share definitions: proportional, round robin, pessimistic, maximin."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd


def two_player_contest():
    # four contested issues plus four that only player 1 cares about
    return fd.generate("example2").instance


def test_share_values_on_the_contested_instance():
    inst = two_player_contest()
    profile = fd.share_profile(inst, with_mms=True)
    assert profile.prop == (Fraction(4), Fraction(2))
    assert profile.rrs == (Fraction(4), Fraction(2))
    assert profile.pps == (Fraction(4), Fraction(0))
    assert profile.mms == (Fraction(4), Fraction(2))


def test_share_values_on_two_identical_issues():
    inst = fd.generate("example1").instance
    for i in range(2):
        assert fd.proportional_share(inst, i) == 1
        assert fd.round_robin_share(inst, i) == 1
        assert fd.pessimistic_share(inst, i) == 1
        assert fd.maximin_share(inst, i) == 1


def test_rrs_is_zero_when_issues_are_scarce():
    # m < n: the last picker in the worst order gets nothing
    inst = fd.decision_instance([[[5], [5], [5]]])
    assert fd.round_robin_share(inst, 0) == 0
    assert fd.pessimistic_share(inst, 0) == 0
    assert fd.maximin_share(inst, 0) == 0
    assert fd.proportional_share(inst, 0) == Fraction(5, 3)


def test_shares_read_goods_values_directly():
    goods = fd.goods_instance([[4, 1, 3], [2, 2, 2]])
    image = fd.goods_to_public(goods)
    for i in range(2):
        assert fd.proportional_share(goods, i) == fd.proportional_share(image, i)
        assert fd.round_robin_share(goods, i) == fd.round_robin_share(image, i)
        assert fd.pessimistic_share(goods, i) == fd.pessimistic_share(image, i)
        assert fd.maximin_share(goods, i) == fd.maximin_share(image, i)


def test_maximin_share_needs_exactly_n_blocks():
    # three players, three goods: MMS is the smallest good, not zero
    goods = fd.goods_instance([[3, 2, 1]] * 3)
    assert fd.maximin_share(goods, 0) == 1


def test_maximin_share_respects_the_cap():
    inst = two_player_contest()
    with pytest.raises(fd.CapExceeded) as excinfo:
        fd.maximin_share(inst, 0, cap=100)
    assert excinfo.value.required == 128  # partitions of 8 items into <= 2 blocks
    assert excinfo.value.cap == 100
    # a cap at the exact size runs
    assert fd.maximin_share(inst, 0, cap=128) == 4


def test_maximin_share_searches_past_the_greedy_split():
    # greedy deals 3, 3, 2, 2, 2 into 3+2+2 and 3+2, smallest 5; 3+3 and
    # 2+2+2 reach 6, the mean
    goods = fd.goods_instance([[3, 3, 2, 2, 2]] * 2)
    assert fd.maximin_share(goods, 0) == 6


def test_maximin_share_of_goods_one_to_twelve_and_four_players():
    # 700,075 partitions into at most 4 blocks, under the default cap
    goods = fd.goods_instance([list(range(1, 13))] * 4)
    assert fd.maximin_share(goods, 0) == 19  # 78 // 4


def test_maximin_share_of_two_players_and_twenty_goods():
    """524,288 partitions, none reaching the mean: every value is even and
    half the total is odd, so the search must prove its best split optimal.
    A subset-sum table gives the same answer."""
    values = [2 * (37 * t % 101 + 1) for t in range(19)] + [198]
    total = sum(values)
    assert total // 2 % 2 == 1
    reachable = {0}
    for value in values:
        reachable |= {s + value for s in reachable}
    best = max(min(s, total - s) for s in reachable)
    assert best == total // 2 - 1
    assert fd.maximin_share(fd.goods_instance([values] * 2), 0) == best


def test_share_profile_skips_mms_by_default():
    profile = fd.share_profile(two_player_contest())
    assert profile.mms is None


@st.composite
def public_instances_(draw, max_n=3, max_m=5, max_k=3, max_u=5):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    issues = []
    for _ in range(m):
        k = draw(st.integers(1, max_k))
        issues.append(
            [[draw(st.integers(0, max_u)) for _ in range(k)] for _ in range(n)]
        )
    return fd.decision_instance(issues)


public_instances = public_instances_()


@settings(deadline=None)
@given(public_instances)
def test_share_chain(inst):
    """Prop >= MMS >= RRS >= PPS for every player, and every profile entry
    equals the matching per-player function."""
    profile = fd.share_profile(inst, with_mms=True)
    for i in range(inst.n):
        assert profile.prop[i] >= profile.mms[i] >= profile.rrs[i] >= profile.pps[i]
        assert profile.pps[i] >= 0
        assert profile.prop[i] == fd.proportional_share(inst, i)
        assert profile.rrs[i] == fd.round_robin_share(inst, i)
        assert profile.pps[i] == fd.pessimistic_share(inst, i)
        assert profile.mms[i] == fd.maximin_share(inst, i)


@settings(deadline=None)
@given(public_instances, st.integers(1, 7), st.integers(1, 7))
def test_shares_scale_linearly(inst, num, den):
    """Scaling one player's utilities scales all four of her shares."""
    c = Fraction(num, den)
    scaled = fd.decision_instance(
        [
            [
                [c * v for v in row] if i == 0 else list(row)
                for i, row in enumerate(issue.utilities)
            ]
            for issue in inst.issues
        ]
    )
    base = fd.share_profile(inst, with_mms=True)
    after = fd.share_profile(scaled, with_mms=True)
    assert after.prop[0] == c * base.prop[0]
    assert after.rrs[0] == c * base.rrs[0]
    assert after.pps[0] == c * base.pps[0]
    assert after.mms[0] == c * base.mms[0]


@settings(deadline=None)
@given(public_instances, st.randoms(use_true_random=False))
def test_shares_ignore_player_order(inst, rng):
    perm = list(range(inst.n))
    rng.shuffle(perm)
    shuffled = fd.decision_instance(
        [[issue.utilities[perm[i]] for i in range(inst.n)] for issue in inst.issues]
    )
    base = fd.share_profile(inst, with_mms=True)
    after = fd.share_profile(shuffled, with_mms=True)
    for i in range(inst.n):
        assert after.prop[i] == base.prop[perm[i]]
        assert after.rrs[i] == base.rrs[perm[i]]
        assert after.pps[i] == base.pps[perm[i]]
        assert after.mms[i] == base.mms[perm[i]]


def _mms_reference(values, n):
    """Exact rational reference: the best smallest bundle over every way of
    handing the values to n labeled bundles. The n**m ways are dealt item by
    item, and ways that reach the same vector of Fraction sums are kept once."""
    vectors = {(Fraction(0),) * n}
    for value in values:
        vectors = {
            v[:j] + (v[j] + value,) + v[j + 1 :] for v in vectors for j in range(n)
        }
    return max(min(v) for v in vectors)


@st.composite
def fractional_goods_(draw, max_n=4, max_m=7):
    """Integer values and fractions with pairwise coprime denominators. Cells
    are drawn either freely or from a palette of zero and up to three values,
    so rows repeat values and hold many zeros, and bundles tie on their sums."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    value = st.one_of(
        st.integers(0, 5),
        st.builds(Fraction, st.integers(0, 35), st.sampled_from([2, 3, 7])),
    )
    palette = [0] + draw(st.lists(value, max_size=3))
    cell = st.one_of(st.sampled_from(palette), value)
    return fd.goods_instance([[draw(cell) for _ in range(m)] for _ in range(n)])


@settings(deadline=None)
@given(fractional_goods_())
def test_integer_maximin_share_matches_rational_enumeration(goods):
    """MMS summed over one common denominator equals plain Fraction sums."""
    for i in range(goods.n):
        assert fd.maximin_share(goods, i) == _mms_reference(goods.utilities[i], goods.n)


@st.composite
def tied_goods_(draw, max_n=4, max_m=9):
    """Rows drawn from a few values, so they tie and hold zeros; some cells
    are "p/q" strings, two of them equal as fractions."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    cell = st.sampled_from([0, 0, 1, 2, "1/2", "2/4", "3/2", "5/3"])
    return fd.goods_instance([[draw(cell) for _ in range(m)] for _ in range(n)])


@settings(deadline=None)
@given(tied_goods_(), st.booleans())
def test_share_sums_equal_the_sums_in_ranking_order(goods, with_mms):
    """Reading the maxima sorted by value gives the sums that reading them
    through ``ranking`` gives, on goods and on their embedding."""
    for inst in (goods, fd.goods_to_public(goods)):
        n, sums = inst.n, fd.shares.share_sums(inst, with_mms)
        for (total, rrs, pps, _), row, order in zip(sums, inst.maxima, inst.ranking):
            ranked = [row[t] for t in order]
            assert total == sum(ranked)
            assert rrs == sum(ranked[n - 1 :: n])
            assert pps == sum(ranked[len(ranked) - len(ranked) // n :])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_maximin_share_of_every_small_multiset(n):
    """Every multiset of up to 7 values from 0..3: ties and zeros throughout,
    and many lists on which the greedy split falls short."""
    for m in range(1, 8):
        for values in itertools.combinations_with_replacement(range(3, -1, -1), m):
            goods = fd.goods_instance([list(values)] * n)
            assert fd.maximin_share(goods, 0) == _mms_reference(values, n)
