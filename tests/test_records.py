"""Record behaviour: the value records are NamedTuples and the three instance
classes share one small frozen base, with what the frozen dataclasses they
replace gave: positional and keyword construction, defaults, equality and
hashing over the fields, the ``Name(field=value, ...)`` repr, pickling,
copying and no assignment."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import fairdec as fd
from fairdec.audit import AxiomCheck, ParetoCheck, PlayerAudit
from fairdec.generators import GeneratedInstance
from fairdec.io import ParsedResult
from fairdec.model import (
    Allocation,
    DecisionInstance,
    GoodsInstance,
    Issue,
    MechanismResult,
    Outcome,
    Pick,
    Violation,
)
from fairdec.private_goods import (
    Prop1SearchResult,
    Round,
    Transfer,
    TransferTrace,
    WeightReduction,
)
from fairdec.shares import ShareProfile

HALF = Fraction(1, 2)
OUTCOME = Outcome((0, 1))
BUNDLES = Allocation((frozenset({0}), frozenset({1, 2})))
LEVEL = AxiomCheck(True, Fraction(3, 2))
REDUCTION = WeightReduction(0, 1, 2, Fraction(1, 3), False)
ROUND = Round(((0,), (0, 1)), (REDUCTION,), (Transfer(0, 1, 2),))
TRACE = TransferTrace(BUNDLES, (ROUND,))
ISSUE_FIELDS = (((Fraction(1), HALF), (Fraction(0), Fraction(2))), "issue1", ("a1", "a2"))
ISSUE = Issue(*ISSUE_FIELDS)

# each record class, the values of its fields with no default, then the
# fields that have one (None, in every record)
RECORDS = {
    "Violation": (Violation, ("issues[0]", "negative utility -1"), 0),
    "Outcome": (Outcome, ((0, 1),), 0),
    "Allocation": (Allocation, (BUNDLES.bundles,), 0),
    "Pick": (Pick, (0, 1, 2), 0),
    "MechanismResult": (MechanismResult, ("leximin", OUTCOME, (HALF, Fraction(2))), 3),
    "AxiomCheck": (AxiomCheck, (False, None), 0),
    "ParetoCheck": (ParetoCheck, (False, OUTCOME), 0),
    "PlayerAudit": (PlayerAudit, (LEVEL, LEVEL, LEVEL, LEVEL), 3),
    "WeightReduction": (WeightReduction, (0, 1, 2, Fraction(1, 3), True), 0),
    "Transfer": (Transfer, (0, 1, 2), 0),
    "Round": (Round, tuple(ROUND), 0),
    "TransferTrace": (TransferTrace, (BUNDLES, (ROUND,)), 0),
    "Prop1SearchResult": (
        Prop1SearchResult, (BUNDLES, (HALF, HALF), True, TRACE, ((0, 1),)), 0
    ),
    "ShareProfile": (ShareProfile, ((HALF,), (HALF,), (Fraction(0),)), 1),
    "ParsedResult": (ParsedResult, (OUTCOME, None), 0),
    "GeneratedInstance": (GeneratedInstance, ("example1", fd.generate("example1").instance), 2),
    "Issue": (Issue, ISSUE_FIELDS, 0),
    "DecisionInstance": (DecisionInstance, ((ISSUE,), ("p1", "p2")), 0),
    "GoodsInstance": (GoodsInstance, (((HALF, Fraction(3)),), ("p1",), ("g1", "g2")), 0),
}


def _dataclass_twin(cls, defaults: int):
    """The frozen dataclass the record replaced: same name, fields and defaults."""
    fields = cls._fields
    given = [(name, object) for name in fields[: len(fields) - defaults]]
    defaulted = [(name, object, dataclasses.field(default=None)) for name in fields[len(given):]]
    return dataclasses.make_dataclass(cls.__name__, given + defaulted, frozen=True)


@pytest.fixture(params=RECORDS.values(), ids=RECORDS.keys())
def record(request):
    return request.param


def test_records_are_built_in_order_or_by_name_with_defaults(record):
    cls, args, defaults = record
    built = cls(*args)
    assert cls(**dict(zip(cls._fields, args))) == built
    assert len(cls._fields) == len(args) + defaults
    assert [getattr(built, name) for name in cls._fields] == [*args] + [None] * defaults


def test_records_with_equal_fields_are_equal_with_equal_hashes(record):
    cls, args, _ = record
    first, second = cls(*args), cls(*copy.deepcopy(args))
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_records_keep_the_dataclass_repr(record):
    cls, args, defaults = record
    twin = _dataclass_twin(cls, defaults)
    assert repr(cls(*args)) == repr(twin(*args))
    assert repr(cls(*args)).startswith(f"{cls.__name__}({cls._fields[0]}=")


@pytest.mark.parametrize(
    "copier",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_records_survive_pickle_and_copies(record, copier):
    cls, args, _ = record
    built = cls(*args)
    copied = copier(built)
    assert type(copied) is cls
    assert copied == built and hash(copied) == hash(built)
    assert repr(copied) == repr(built)


def test_record_fields_cannot_be_assigned_or_deleted(record):
    cls, args, _ = record
    built = cls(*args)
    for name in (*cls._fields, "added"):
        with pytest.raises(AttributeError):
            setattr(built, name, None)
    with pytest.raises(AttributeError):
        delattr(built, cls._fields[0])
    assert cls(*args) == built


def test_value_records_are_tuples_of_their_fields():
    """The declared API change: a value record indexes, iterates and compares
    as the plain tuple of its fields."""
    pick = Pick(0, 1, 2)
    assert pick[1] == 1 and [*pick] == [0, 1, 2]
    assert pick == (0, 1, 2) and Outcome((0, 1)) == ((0, 1),)
    assert pick._asdict() == {"player": 0, "issue": 1, "alternative": 2}


def test_instances_compare_within_one_kind_only():
    goods = fd.goods_instance([[1, 2], [2, 1]])
    image = fd.goods_to_public(goods)
    assert goods != image and image != goods
    assert (goods == image) is False
    assert goods == fd.goods_instance([[1, 2], [2, 1]])
    assert goods != fd.goods_instance([[1, 2], [2, 1]], players=["a", "b"])
    assert image == fd.goods_to_public(goods)
    # the same field values in another class
    rows, players, labels = ((HALF, Fraction(3)),), ("p1",), ("g1", "g2")
    assert Issue(rows, players, labels) != GoodsInstance(rows, players, labels)
    assert GoodsInstance(rows, players, labels) != Issue(rows, players, labels)


def test_bare_instances_take_their_fields_in_order_or_by_name():
    bare = DecisionInstance((ISSUE,), ("p1", "p2"))
    assert DecisionInstance(issues=(ISSUE,), players=("p1", "p2")) == bare
    assert DecisionInstance((ISSUE,), players=("p1", "p2")) == bare
    assert bare == fd.decision_instance([[[1, "1/2"], [0, 2]]])
    bad = [
        lambda: DecisionInstance((ISSUE,)),
        lambda: DecisionInstance((ISSUE,), ("p1", "p2"), ()),
        lambda: DecisionInstance((ISSUE,), issues=(ISSUE,)),
        lambda: DecisionInstance((ISSUE,), voters=("p1", "p2")),
        lambda: GoodsInstance(utilities=((HALF,),), players=("p1",)),
        lambda: Issue(ISSUE.utilities, "issue1"),
    ]
    for build in bad:
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("by_name", [False, True], ids=["positional", "keyword"])
def test_bare_instances_with_a_defect_are_refused(by_name):
    negative = Issue(((Fraction(-1),),), "issue1", ("a1",))
    builds = {
        "issues[0].utilities[0][0]": (DecisionInstance, ((negative,), ("p1",))),
        "utilities": (GoodsInstance, (((HALF,),), ("p1", "p2"), ("g1",))),
    }
    for path, (cls, args) in builds.items():
        with pytest.raises(fd.InstanceFormatError) as info:
            cls(**dict(zip(cls._fields, args))) if by_name else cls(*args)
        assert [v.path for v in info.value.violations] == [path]
