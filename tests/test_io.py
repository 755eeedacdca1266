"""JSON round trips, canonical rationals, and text rendering."""

import json
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd
from fairdec import io


@st.composite
def goods_instances_(draw, max_n=3, max_m=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    rows = [
        [
            draw(st.fractions(min_value=0, max_value=9, max_denominator=12))
            for _ in range(m)
        ]
        for _ in range(n)
    ]
    return fd.goods_instance(rows)


@st.composite
def public_instances_(draw, max_n=3, max_m=3, max_k=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    issues = []
    for _ in range(m):
        k = draw(st.integers(1, max_k))
        issues.append(
            [
                [
                    draw(st.fractions(min_value=0, max_value=9, max_denominator=12))
                    for _ in range(k)
                ]
                for _ in range(n)
            ]
        )
    return fd.decision_instance(issues)


def test_rationals_encode_canonically():
    assert io.encode_rational(Fraction(4, 2)) == 2
    assert io.encode_rational(Fraction(1, 3)) == "1/3"
    assert io.encode_rational(Fraction(0)) == 0


def test_non_canonical_rationals_warn_but_read():
    doc = {"kind": "goods", "players": ["a"], "goods": ["g"], "utilities": [["2/6"]]}
    with pytest.warns(io.NonCanonicalRationalWarning):
        parsed = io.parse_instance(json.dumps(doc))
    assert parsed.utilities[0][0] == Fraction(1, 3)

    doc["utilities"] = [["4/1"]]
    with pytest.warns(io.NonCanonicalRationalWarning):
        parsed = io.parse_instance(json.dumps(doc))
    assert parsed.utilities[0][0] == 4

    doc["utilities"] = [["03"]]
    with pytest.warns(io.NonCanonicalRationalWarning):
        parsed = io.parse_instance(json.dumps(doc))
    assert parsed.utilities[0][0] == 3


def test_canonical_rationals_read_silently():
    doc = {
        "kind": "goods",
        "players": ["a"],
        "goods": ["g", "h"],
        "utilities": [[2, "1/3"]],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsed = io.parse_instance(json.dumps(doc))
    assert parsed.utilities[0] == (Fraction(2), Fraction(1, 3))


def test_float_literals_are_rejected_by_default():
    text = '{"kind": "goods", "players": ["a"], "goods": ["g"], "utilities": [[0.5]]}'
    with pytest.raises(fd.InstanceFormatError, match="float literal"):
        io.parse_instance(text)
    parsed = io.parse_instance(text, allow_decimal=True)
    assert parsed.utilities[0][0] == Fraction(1, 2)


def test_decimal_strings_convert_exactly_when_allowed():
    doc = {"kind": "goods", "players": ["a"], "goods": ["g"], "utilities": [["0.1"]]}
    with pytest.raises(fd.InstanceFormatError):
        io.parse_instance(json.dumps(doc))
    parsed = io.parse_instance(json.dumps(doc), allow_decimal=True)
    assert parsed.utilities[0][0] == Fraction(1, 10)  # not the binary float


def test_zero_denominators_and_booleans_are_format_errors():
    base = {"kind": "goods", "players": ["a"], "goods": ["g"]}
    with pytest.raises(fd.InstanceFormatError, match="zero denominator"):
        io.parse_instance(json.dumps({**base, "utilities": [["1/0"]]}))
    with pytest.raises(fd.InstanceFormatError, match="boolean"):
        io.parse_instance(json.dumps({**base, "utilities": [[True]]}))


def test_malformed_json_and_wrong_kinds_are_format_errors():
    with pytest.raises(fd.InstanceFormatError, match="malformed JSON"):
        io.parse_instance("{not json")
    with pytest.raises(fd.InstanceFormatError, match='"public" or "goods"'):
        io.parse_instance('{"kind": "mystery"}')


def test_validation_failures_surface_with_paths():
    doc = {
        "kind": "goods",
        "players": ["a"],
        "goods": ["g"],
        "utilities": [["-1"]],
    }
    with pytest.raises(fd.InstanceFormatError) as excinfo:
        io.parse_instance(json.dumps(doc))
    assert "utilities[0][0]" in str(excinfo.value)
    assert excinfo.value.violations


def test_parse_result_infers_the_kind():
    outcome = io.parse_result('{"choices": [0, 2, 1]}')
    assert outcome.outcome.choices == (0, 2, 1)
    assert outcome.allocation is None

    alloc = io.parse_result('{"bundles": [[0, 2], [1]], "mechanism": "by-hand"}')
    assert alloc.allocation == fd.allocation([{0, 2}, {1}])
    assert alloc.outcome is None


def test_parse_result_rejects_duplicates_and_junk():
    with pytest.raises(fd.InstanceFormatError, match="twice"):
        io.parse_result('{"bundles": [[0, 1], [1]]}')
    with pytest.raises(fd.InstanceFormatError, match="twice"):
        io.parse_result('{"bundles": [[0, 0]]}')
    with pytest.raises(fd.InstanceFormatError, match="integers"):
        io.parse_result('{"choices": [0, true]}')
    with pytest.raises(fd.InstanceFormatError, match="choices.*bundles"):
        io.parse_result('{"utilities": [1]}')
    with pytest.raises(fd.InstanceFormatError, match="mechanism"):
        io.parse_result('{"choices": [0], "mechanism": 3}')


def test_to_json_is_stable():
    doc = io.instance_document(fd.generate("example2").instance)
    text = io.to_json(doc)
    assert text.endswith("\n")
    assert io.to_json(io.instance_document(io.parse_instance(text))) == text


def test_result_document_round_trip():
    inst = fd.generate("example2").instance
    result = fd.leximin(inst)
    doc = io.result_document(result)
    assert doc["kind"] == "public-result"
    assert doc["choices"] == [0, 1, 1, 1, 0, 0, 0, 0]
    assert doc["utilities"] == [5, 3]
    assert doc["trace"]["normalization"] == [4, 2]
    parsed = io.parse_result(io.to_json(doc))
    assert parsed.outcome == result.outcome


def test_goods_result_document_shape():
    goods = fd.goods_instance([[1, 1], [1, 1]])
    alloc, weights, trace = fd.pps_po_allocate(goods)
    doc = io.goods_result_document(
        "pps-po",
        alloc,
        fd.allocation_utilities(goods, alloc),
        trace={"weights": [io.encode_rational(w) for w in weights],
               **io.transfer_trace_document(trace)},
    )
    assert doc["bundles"] == [[1], [0]]
    assert doc["trace"]["initial_bundles"] == [[0, 1], []]
    (round_,) = doc["trace"]["rounds"]
    assert round_["dec"] == [[0], [0, 1]]
    assert round_["reductions"] == [
        {"donor": 0, "recipient": 1, "good": 0, "factor": 1, "degenerate": False}
    ]
    assert round_["transfers"] == [{"donor": 0, "recipient": 1, "good": 0}]


def test_audit_document_marks_unbounded_levels():
    inst = fd.generate("example2").instance
    report = fd.audit(inst, fd.Outcome(choices=(0,) * 8), po_cap=300)
    doc = io.audit_document(report)
    assert doc["kind"] == "audit"
    assert doc["players"][1]["pps"] == {"satisfied": True, "alpha": "unbounded"}
    assert doc["players"][1]["prop1"] == {"satisfied": False, "alpha": "1/2"}
    assert doc["po"] == {"satisfied": True}


def test_audit_document_includes_witnesses():
    inst = fd.generate("compromise").instance
    report = fd.audit(inst, fd.Outcome(choices=(0, 0)), po_cap=100)
    doc = io.audit_document(report)
    assert doc["po"] == {"satisfied": False, "witness_choices": [1, 1]}

    goods = fd.goods_instance([[2, 0], [0, 2]])
    greport = fd.audit_goods(goods, fd.allocation([{1}, {0}]), po_cap=100)
    gdoc = io.audit_document(greport)
    # first improvement in enumeration order: both goods to player 1
    assert gdoc["po"] == {"satisfied": False, "witness_bundles": [[0, 1], []]}


def test_text_rendering_names_axioms_and_verdicts():
    inst = fd.generate("example2").instance
    report = fd.audit(inst, fd.Outcome(choices=(0,) * 8), po_cap=300)
    text = io.render_audit_text(report, players=inst.players)
    assert "p1: utility 8" in text
    assert "  Prop1: VIOLATED (α = 1/2)" in text
    assert "  PPS: satisfied (α unbounded)" in text
    assert "PO: satisfied" in text


@settings(deadline=None)
@given(goods_instances_())
def test_goods_instance_round_trip(goods):
    assert io.parse_instance(io.to_json(io.instance_document(goods))) == goods


@settings(deadline=None)
@given(public_instances_())
def test_public_instance_round_trip(inst):
    assert io.parse_instance(io.to_json(io.instance_document(inst))) == inst


@settings(deadline=None)
@given(public_instances_())
def test_emit_parse_emit_is_byte_stable(inst):
    once = io.to_json(io.instance_document(inst))
    again = io.to_json(io.instance_document(io.parse_instance(once)))
    assert once == again
