"""JSON round trips, canonical rationals, and text rendering."""

import json
import math
import random
import re
import sys
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


def one_value_goods(value_json: str) -> str:
    return (
        '{"kind": "goods", "players": ["a"], "goods": ["g"], '
        f'"utilities": [[{value_json}]]}}'
    )


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["0", "1", "25", "-0", "3.5", "0.125", "2.50"]),
    st.one_of(
        st.integers(-13500, 13500),
        st.sampled_from([4299, 4300, -4299, -4300, -4301, 12900, 12901, -12901]),
    ),
)
def test_decimals_are_refused_exactly_when_to_json_could_not_write_them(
    mantissa, exponent
):
    """A decimal string or float literal is refused when parsed exactly when
    its exact value has a part with more digits than int-to-string conversion
    allows, the values ``to_json`` fails on; zero reads as zero at any
    exponent."""
    text = f"{mantissa}e{exponent}"
    exact = Fraction(text)
    try:
        io.to_json(io.encode_rational(exact))
        writable = True
    except ValueError:
        writable = False
    forms = [(json.dumps(text), "utilities[0][0]: too many digits in the exact value")]
    if re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", mantissa):
        forms.append((text, "malformed JSON: a number literal has too many digits"))
    for value_json, message in forms:
        if writable:
            parsed = io.parse_instance(one_value_goods(value_json), allow_decimal=True)
            assert parsed.utilities[0][0] == exact
        else:
            with pytest.raises(fd.InstanceFormatError, match=re.escape(message)):
                io.parse_instance(one_value_goods(value_json), allow_decimal=True)


@pytest.mark.parametrize(
    "value", ["٣", "1/٣", "٣/4", "1.٣", "1e٣", "１", "\u00a01"]
)
@pytest.mark.parametrize("allow_decimal", [False, True])
def test_only_ascii_digits_are_numbers(value, allow_decimal):
    with pytest.raises(fd.InstanceFormatError) as info:
        io.parse_instance(
            one_value_goods(json.dumps(value)), allow_decimal=allow_decimal
        )
    assert str(info.value).startswith("utilities[0][0]: ")


@pytest.mark.parametrize("cell", [None, [1], {"a": 1}], ids=["null", "list", "object"])
@pytest.mark.parametrize("allow_decimal", [False, True])
def test_a_null_list_or_object_cell_is_not_a_number(cell, allow_decimal):
    doc = {"kind": "goods", "players": ["a"], "goods": ["g", "h"]}
    text = json.dumps({**doc, "utilities": [[1, cell]]})
    with pytest.raises(fd.InstanceFormatError) as info:
        io.parse_instance(text, allow_decimal=allow_decimal)
    assert str(info.value) == f"utilities[0][1]: cannot read {cell!r} as a number"


@pytest.mark.parametrize("value", [" 7 ", "1_0", "1_0/3", "\t5\n"])
def test_whitespace_and_underscores_are_not_numbers(value):
    """The decimal reader takes what a strict document takes, plus decimals
    with an optional exponent; Fraction's extra spellings are refused."""
    with pytest.raises(fd.InstanceFormatError) as info:
        io.parse_instance(one_value_goods(json.dumps(value)), allow_decimal=True)
    assert str(info.value) == f"utilities[0][0]: cannot read {value!r} as a number"
    with pytest.raises(ValueError):
        fd.as_fraction(value)


def test_zero_denominators_and_booleans_are_format_errors():
    base = {"kind": "goods", "players": ["a"], "goods": ["g"]}
    with pytest.raises(fd.InstanceFormatError, match="zero denominator"):
        io.parse_instance(json.dumps({**base, "utilities": [["1/0"]]}))
    # a zero denominator the decimal reader meets is refused the same way
    with pytest.raises(fd.InstanceFormatError, match="cannot read ' 1/0'"):
        io.parse_instance(
            json.dumps({**base, "utilities": [[" 1/0"]]}), allow_decimal=True
        )
    with pytest.raises(fd.InstanceFormatError, match="boolean"):
        io.parse_instance(json.dumps({**base, "utilities": [[True]]}))


def test_malformed_json_and_wrong_kinds_are_format_errors():
    with pytest.raises(fd.InstanceFormatError, match="malformed JSON"):
        io.parse_instance("{not json")
    with pytest.raises(fd.InstanceFormatError, match='"public" or "goods"'):
        io.parse_instance('{"kind": "mystery"}')


WELL_FORMED_ISSUE = {
    "name": "t0", "alternatives": ["a", "b"], "utilities": [[1, 2], [3, 4]]
}
STRUCTURAL = {
    "issue-not-an-object": ([1, 2], "issues[1]: expected an object"),
    "name-not-a-string": (
        {**WELL_FORMED_ISSUE, "name": 7},
        "issues[1].name: expected a string",
    ),
    "non-string-label": (
        {**WELL_FORMED_ISSUE, "alternatives": ["a", 3]},
        "issues[1].alternatives: expected a list of strings",
    ),
    "utilities-not-a-list": (
        {**WELL_FORMED_ISSUE, "utilities": {"0": 1}},
        "issues[1].utilities: expected a list",
    ),
    "row-not-a-list": (
        {**WELL_FORMED_ISSUE, "utilities": [[1, 2], 5]},
        "issues[1].utilities[1]: expected a list",
    ),
    "goods-utilities-not-a-list": ("x", "utilities: expected a list of rows"),
    "goods-row-not-a-list": ([[1], 2], "utilities[1]: expected a list"),
}


@pytest.mark.parametrize("defect, text", STRUCTURAL.values(), ids=STRUCTURAL.keys())
def test_structural_defects_after_the_first_issue_are_named(defect, text):
    """A structural defect past a well-formed first issue (or first goods
    row) is reported at its own place, with the text pinned here."""
    if text.startswith("issues"):
        issues = [WELL_FORMED_ISSUE, defect, WELL_FORMED_ISSUE]
        doc = {"kind": "public", "players": ["p", "q"], "issues": issues}
    else:
        doc = {"kind": "goods", "players": ["p", "q"], "goods": ["g"]}
        doc["utilities"] = defect
    with pytest.raises(fd.InstanceFormatError) as info:
        io.parse_instance(json.dumps(doc))
    assert str(info.value) == text


def test_validation_failures_surface_with_paths():
    doc = {
        "kind": "goods",
        "players": ["a"],
        "goods": ["g"],
        "utilities": [["-1"]],
    }
    with pytest.raises(fd.InstanceFormatError) as excinfo:
        with pytest.warns(io.NonCanonicalRationalWarning, match="utilities"):
            io.parse_instance(json.dumps(doc))
    assert "utilities[0][0]" in str(excinfo.value)
    assert excinfo.value.violations


FLOAT_HINT = 'use integers or "p/q" strings, or pass the lossless-decimal option'


def reference_cell(value, where):
    """One cell read by plain per-value rules: (Fraction, warning text or
    None), or an InstanceFormatError with the expected message."""
    if isinstance(value, bool):
        raise fd.InstanceFormatError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value), None
    if re.fullmatch(r"[+-]?[0-9]+", value):
        whole = Fraction(int(value))
        return whole, (
            f"{where}: whole number written as string {value!r}; "
            f"canonical form is the JSON integer {whole}"
        )
    if re.fullmatch(r"[+-]?[0-9]+/[0-9]+", value):
        p, q = (int(part) for part in value.split("/"))
        if q == 0:
            raise fd.InstanceFormatError(f"{where}: zero denominator in {value!r}")
        exact = Fraction(p, q)
        canonical = str(exact)  # "p" when whole, "p/q" in lowest terms otherwise
        if canonical == value:
            return exact, None
        return exact, f"{where}: non-canonical rational {value!r} read as {canonical}"
    raise fd.InstanceFormatError(
        f"{where}: {value!r} is not an integer or \"p/q\" string "
        f"(decimals need the lossless-decimal option)"
    )


def reference_parse(issues):
    """The utilities and warnings of a public document whose issues hold
    ``issues``, or the error and the warnings given before it."""
    floats = [v for rows in issues for row in rows for v in row if type(v) is float]
    if floats:
        literal = json.dumps(floats[0])
        return None, [], f"float literal {literal} in document; {FLOAT_HINT}"
    parsed, notes = [], []
    for t, rows in enumerate(issues):
        matrix = []
        for i, row in enumerate(rows):
            cells = []
            for a, value in enumerate(row):
                try:
                    exact, note = reference_cell(
                        value, f"issues[{t}].utilities[{i}][{a}]"
                    )
                except fd.InstanceFormatError as exc:
                    return None, notes, str(exc)
                cells.append(exact)
                if note is not None:
                    notes.append(note)
            matrix.append(tuple(cells))
        parsed.append(tuple(matrix))
    return parsed, notes, None


cell_values = st.one_of(
    st.integers(0, 6),
    st.booleans(),
    st.floats(0, 9, allow_nan=False, allow_infinity=False),
    st.fractions(0, 9, max_denominator=7).map(io.encode_rational).map(str),
    st.tuples(st.integers(0, 12), st.integers(0, 6)).map("{0[0]}/{0[1]}".format),
    st.integers(0, 20).map(lambda k: f"0{k}"),
    st.integers(0, 20).map(str),
    st.sampled_from(["x", "", "1.5", "1/2/3", " 1", "1/-2", "٣"]),
)


@st.composite
def mixed_issues(draw):
    n = draw(st.integers(1, 3))
    issues = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 4))
        rows = []
        for _ in range(n):
            values = st.integers(0, 6) if draw(st.booleans()) else cell_values
            rows.append(draw(st.lists(values, min_size=k, max_size=k)))
        issues.append(rows)
    return issues


@settings(max_examples=300, deadline=None)
@given(mixed_issues())
def test_int_rows_read_like_any_other_row(issues):
    doc = {
        "kind": "public",
        "players": [f"p{i}" for i in range(len(issues[0]))],
        "issues": [
            {
                "name": f"t{t}",
                "alternatives": [f"a{a}" for a in range(len(rows[0]))],
                "utilities": rows,
            }
            for t, rows in enumerate(issues)
        ],
    }
    expected, expected_notes, expected_error = reference_parse(issues)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parsed = io.parse_instance(json.dumps(doc))
        except fd.InstanceFormatError as exc:
            error = str(exc)
        else:
            error = None
    assert all(w.category is io.NonCanonicalRationalWarning for w in caught)
    assert [str(w.message) for w in caught] == expected_notes
    assert error == expected_error
    if error is None:
        got = [issue.utilities for issue in parsed.issues]
        assert got == expected
        assert all(
            type(v) is Fraction for matrix in got for row in matrix for v in row
        )


@st.composite
def value_rows(draw, k, allow_decimal):
    """One utility row of ``k`` values as a document holds it: all JSON ints
    (all zero at times), canonical "p/q" strings (whole values among them
    become ints), or, under ``allow_decimal``, decimal strings and float
    literals mixed with ints."""
    kinds = ["whole", "zeros", "ratio"] + ["decimal"] * allow_decimal
    kind = draw(st.sampled_from(kinds))
    if kind == "zeros":
        return [0] * k
    if kind == "whole":
        return draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))
    if kind == "ratio":
        values = st.fractions(0, 9, max_denominator=12).map(io.encode_rational)
        return draw(st.lists(values, min_size=k, max_size=k))
    cents = st.integers(0, 999)
    values = st.one_of(
        st.integers(0, 9),
        cents.map(lambda c: f"{c // 100}.{c % 100:02d}"),
        cents.map(lambda c: c / 8),  # a float literal with an exact decimal
    )
    return draw(st.lists(values, min_size=k, max_size=k))


@st.composite
def instance_documents(draw):
    """A public or goods document, valid, where a player may have rows of
    both kinds across issues; and whether it is read with allow_decimal."""
    allow_decimal = draw(st.booleans())
    n = draw(st.integers(1, 3))
    players = [f"p{i}" for i in range(n)]
    if draw(st.booleans()):
        m = draw(st.integers(1, 5))
        rows = [draw(value_rows(m, allow_decimal)) for _ in range(n)]
        goods = [f"g{g}" for g in range(m)]
        doc = {"kind": "goods", "players": players, "goods": goods, "utilities": rows}
        return doc, allow_decimal
    issues = []
    for t in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 3))
        rows = [draw(value_rows(k, allow_decimal)) for _ in range(n)]
        labels = [f"a{a}" for a in range(k)]
        issues.append({"name": f"t{t}", "alternatives": labels, "utilities": rows})
    return {"kind": "public", "players": players, "issues": issues}, allow_decimal


def _fractions(matrix):
    return tuple(
        tuple(Fraction(json.dumps(v) if type(v) is float else v) for v in row)
        for row in matrix
    )


@settings(max_examples=300, deadline=None)
@given(instance_documents())
def test_parsing_builds_the_instance_and_view_of_its_fractions(case):
    """The parse route, with its whole-row shortcut, builds the instance the
    decoded Fractions build bare, and the integer view computed here from
    those Fractions: the lcm of a player's denominators, then each value's
    numerator times scale // denominator."""
    doc, allow_decimal = case
    parsed = io.parse_instance(json.dumps(doc), allow_decimal=allow_decimal)
    players = tuple(doc["players"])
    if doc["kind"] == "goods":
        matrices = [_fractions(doc["utilities"])]
        bare = fd.GoodsInstance(matrices[0], players, tuple(doc["goods"]))
    else:
        matrices = [_fractions(issue["utilities"]) for issue in doc["issues"]]
        bare = fd.DecisionInstance(
            issues=tuple(
                fd.Issue(rows, issue["name"], tuple(issue["alternatives"]))
                for rows, issue in zip(matrices, doc["issues"])
            ),
            players=players,
        )
    assert parsed == bare
    n = len(players)
    scales = tuple(
        math.lcm(*(v.denominator for rows in matrices for v in rows[i]))
        for i in range(n)
    )
    scaled = tuple(
        tuple(
            tuple(v.numerator * (scales[i] // v.denominator) for v in rows[i])
            for i in range(n)
        )
        for rows in matrices
    )
    if doc["kind"] == "goods":
        maxima = scaled[0]
        zeros = (0,) * n
        scaled = tuple(
            tuple(zeros[:i] + (maxima[i][g],) + zeros[i + 1 :] for i in range(n))
            for g in range(len(doc["goods"]))
        )
    else:
        maxima = tuple(tuple(max(rows[i]) for rows in scaled) for i in range(n))
    ranking = tuple(
        tuple(sorted(range(len(row)), key=lambda t: -row[t])) for row in maxima
    )
    for instance in (parsed, bare):
        assert instance.scales == scales
        assert instance.scaled == scaled
        assert instance.maxima == maxima
        assert instance.ranking == ranking


def test_a_boolean_in_an_int_row_is_still_refused_at_its_place():
    doc = {"kind": "goods", "players": ["a"], "goods": ["g", "h", "i"]}
    for row, place in (([1, True, 3], 1), ([0, 2, False], 2)):
        with pytest.raises(fd.InstanceFormatError) as info:
            io.parse_instance(json.dumps({**doc, "utilities": [row]}))
        assert str(info.value) == f"utilities[0][{place}]: booleans are not numbers"


def test_each_whole_value_is_one_fraction_per_document():
    rng = random.Random(3)
    issues = [
        [[rng.randint(0, 6) for _ in range(3)] for _ in range(4)] for _ in range(5)
    ]
    text = io.to_json(io.instance_document(fd.decision_instance(issues)))
    parsed = io.parse_instance(text)
    values = [v for issue in parsed.issues for row in issue.utilities for v in row]
    assert len({id(v) for v in values}) == len(set(values)) == 7
    again = io.parse_instance(text)
    # the table lives for one parse only: a second parse builds its own values
    assert again.issues[0].utilities[0][0] is not parsed.issues[0].utilities[0][0]


DEFECTIVE_PUBLIC = {
    "kind": "public",
    "players": ["a", "b"],
    "issues": [
        {"name": "t1", "alternatives": ["x", "y"], "utilities": [[1, -2], [0, -3]]},
        {
            "name": "t2",
            "alternatives": ["x", "y"],
            "utilities": [["1/2", "-1/3"], ["-5/7", 1]],
        },
        {"name": "t3", "alternatives": ["x", "y"], "utilities": [[1, 2], [-3]]},
        {"name": "t4", "alternatives": ["x", "y"], "utilities": [[-1, 2]]},
    ],
}
DEFECTIVE_GOODS = {
    "kind": "goods",
    "players": ["a", "b", "c", "d", "e"],
    "goods": ["g", "h"],
    "utilities": [[1, -2], ["-1/2", "1/3"], [-4], [0, -7]],
}
PUBLIC_DEFECTS = [
    ("issues[0].utilities[0][1]", "negative utility -2"),
    ("issues[0].utilities[1][1]", "negative utility -3"),
    ("issues[1].utilities[0][1]", "negative utility -1/3"),
    ("issues[1].utilities[1][0]", "negative utility -5/7"),
    ("issues[2].utilities[1]", "expected 2 entries, got 1"),
    ("issues[2].utilities[1][0]", "negative utility -3"),
]
GOODS_DEFECTS = [
    ("utilities[0][1]", "negative utility -2"),
    ("utilities[1][0]", "negative utility -1/2"),
    ("utilities[2]", "expected 2 entries, got 1"),
    ("utilities[2][0]", "negative utility -4"),
    ("utilities[3][1]", "negative utility -7"),
]
# (document, its defects); the second of each kind has the right row count,
# so its signs are read off the integer view rather than the numerators
DEFECTIVE = {
    "public": (
        DEFECTIVE_PUBLIC,
        PUBLIC_DEFECTS
        + [
            ("issues[3].utilities", "expected 2 rows (one per player), got 1"),
            ("issues[3].utilities[0][0]", "negative utility -1"),
        ],
    ),
    "public-rows-match": (
        {**DEFECTIVE_PUBLIC, "issues": DEFECTIVE_PUBLIC["issues"][:3]},
        PUBLIC_DEFECTS,
    ),
    "goods": (
        DEFECTIVE_GOODS,
        [("utilities", "expected 5 utility rows (one per player), got 4")]
        + GOODS_DEFECTS,
    ),
    "goods-rows-match": (
        {**DEFECTIVE_GOODS, "players": DEFECTIVE_GOODS["players"][:4]},
        GOODS_DEFECTS,
    ),
}


def _bare(doc):
    """The document's instance built by its bare class, values as Fractions."""
    def rows(matrix):
        return tuple(tuple(map(Fraction, row)) for row in matrix)

    if doc["kind"] == "goods":
        return fd.GoodsInstance(
            rows(doc["utilities"]), tuple(doc["players"]), tuple(doc["goods"])
        )
    issues = tuple(
        fd.Issue(rows(issue["utilities"]), issue["name"], tuple(issue["alternatives"]))
        for issue in doc["issues"]
    )
    return fd.DecisionInstance(issues=issues, players=tuple(doc["players"]))


def _factory(doc):
    if doc["kind"] == "goods":
        return fd.goods_instance(doc["utilities"], doc["players"], doc["goods"])
    return fd.decision_instance(
        [issue["utilities"] for issue in doc["issues"]],
        doc["players"],
        [issue["name"] for issue in doc["issues"]],
        [issue["alternatives"] for issue in doc["issues"]],
    )


@pytest.mark.parametrize("doc, defects", DEFECTIVE.values(), ids=DEFECTIVE.keys())
def test_defect_texts_are_the_same_on_every_route(doc, defects):
    """Negative int and "p/q" cells, a ragged row and a wrong row count give
    the texts and violations pinned here whether the instance is parsed,
    built by its factory or built bare."""
    routes = (
        lambda: io.parse_instance(json.dumps(doc)),
        lambda: _factory(doc),
        lambda: _bare(doc),
    )
    for build in routes:
        with pytest.raises(fd.InstanceFormatError) as info:
            build()
        assert [(v.path, v.message) for v in info.value.violations] == defects
        assert str(info.value) == "; ".join(f"{path}: {text}" for path, text in defects)


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


@pytest.mark.parametrize(
    "instance",
    [
        fd.random_public(3, 4, 3, 1),
        fd.random_goods(3, 5, 1),
        fd.generate("compromise").instance,
    ],
    ids=["public", "goods", "fractions"],
)
def test_instance_documents_hand_integer_rows_through(instance):
    """A row at scale 1 is the view's own tuple, not a copy, and the document
    is written as json.dumps writes it with every row a list."""
    doc = io.instance_document(instance)
    if isinstance(instance, fd.GoodsInstance):
        pairs = [(doc["utilities"], instance.maxima)]
    else:
        issues = zip(doc["issues"], instance.scaled)
        pairs = [(issue["utilities"], rows) for issue, rows in issues]
    for written, rows in pairs:
        for row, view, scale in zip(written, rows, instance.scales):
            assert (row is view) == (scale == 1)
    assert io.to_json(doc) == _dumps(json.loads(json.dumps(doc)))


def test_to_json_is_stable():
    doc = io.instance_document(fd.generate("example2").instance)
    text = io.to_json(doc)
    assert text.endswith("\n")
    assert io.to_json(io.instance_document(io.parse_instance(text))) == text


def _dumps(doc) -> str:
    """The text ``to_json`` must write: the standard library's, plus a newline."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


class _Text(str):
    def __str__(self):
        return "not this"


class _Count(int):
    def __repr__(self):
        return "not this"

    __str__ = __repr__


json_scalars = st.one_of(
    st.integers(),
    st.integers(min_value=10**29, max_value=10**40),
    st.integers(min_value=-(10**40), max_value=-(10**29)),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x01\x1f\n\t\u2028é漢\U0001f600 ')),
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(st.text()),
        st.lists(st.lists(st.integers(), min_size=1), min_size=1),
        st.lists(  # int rows as the view holds them: tuples, some among lists
            st.lists(st.integers(), min_size=1).flatmap(
                lambda row: st.sampled_from([row, tuple(row)])
            ),
            min_size=1,
        ).flatmap(lambda rows: st.sampled_from([rows, tuple(rows)])),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_to_json_writes_what_json_dumps_writes(doc):
    assert io.to_json(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        [[], [[]], {}],
        [1, True, 0, False, None],
        (-(10**40), 10**30, 0),
        {"é": "\x00\"\\", "A": ["\u2028", "漢"]},
        [[1], []],
        [[True, 1]],
        [[10**40, -1]],
        {"a": [[0]]},
        ([[1, 2], [3]], [[4]]),
        [[1], (2,)],
        [(1, 2), (3,)],
        ((0,), (10**40, -1)),
        [(1,), ()],
        [(True, 1)],
        {"a": ((0,),)},
        ["\"\\/\x00\x1f\n\t", "é", "漢\u2028\U0001f600", ""],
        ("a", "b\\"),
        ["x", _Text("é\n\""), "y"],
        [[1], [2, 3, 4]],
        [[1, 2, 3], [4]],
        [(1, 2), [3], (4, 5), [6, 7], (8,)],
        [[0], [7], [-1]],
        ((5,),),
        [[1, 2], (3, 4), [5, 6]],
        ((1, 2), [3, 4]),
        [[-(10**39) - 7, 10**39 + 1], [-1, 0], [10**40 - 1, -(10**40) + 1]],
    ],
)
def test_to_json_writes_empty_and_mixed_containers_as_json_dumps(doc):
    assert io.to_json(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "value", [1.0, 0.5, Fraction(1), Fraction(1, 2), {1, 2}, frozenset(), b"x"]
)
def test_to_json_refuses_what_is_not_a_json_value(value):
    matrices = ([[1, value]], [[1], [value]])
    for doc in (value, [value], {"key": value}, [1, [value]], (value,), *matrices):
        with pytest.raises(TypeError):
            io.to_json(doc)


def _key_layouts(first: tuple, second: tuple) -> dict:
    """The key set {a, b, c} in the insertion orders ``first`` and ``second``,
    at depths 0 to 4, with str and int subclass values among the scalars."""
    values = ("x", _Text("é\n\""), _Count(-7))

    def leaf(order):
        return dict(zip(order, values))

    middle = {"b": [leaf(first), leaf(second)], "a": leaf(second), "c": 3}
    top = {"b": middle, "a": 0, "c": None}
    return {"c": [middle, leaf(first)], "a": top, "b": True}


def test_to_json_lays_out_each_key_set_once_per_depth():
    """One document holding the same key set in two insertion orders at
    several depths, then more distinct key sets than the layout cache holds,
    then the first key sets again, is written as json.dumps writes it, twice
    over; str and int subclass values are written as their base types are."""
    spread = io._heads.cache_info().maxsize + 44
    doc = [
        _key_layouts(("b", "a", "c"), ("c", "b", "a")),
        [{f"k{i}": i, f"j{i}": [_Text(str(i))], f"é{i}": {}} for i in range(spread)],
        _key_layouts(("a", "c", "b"), ("b", "c", "a")),
    ]
    expected = _dumps(doc)
    assert "not this" not in expected
    assert io.to_json(doc) == expected
    assert io.to_json(doc) == expected
    small = {"b": _Count(2), "a": _Text("s")}
    assert io.to_json(small) == '{\n  "a": "s",\n  "b": 2\n}\n'


@pytest.mark.parametrize(
    "bad",
    [
        {1: "a"},
        {"a": 1, 2: 3},
        {None: 1},
        {True: 1},
        {("a",): 1},
        {"a": 1.5},
        {"a": Fraction(1, 2)},
        {"a": {1, 2}},
        {"a": [{"b": 1, "c": 0.5}]},
    ],
)
def test_to_json_keeps_refusing_what_json_dumps_would_change(bad):
    """A non-str key, or a float, Fraction or set value, is a TypeError at any
    depth, every time, whatever key layouts were written before it."""
    io.to_json({"a": 1, "b": 2, "c": 3})
    for doc in (bad, [bad], {"a": bad}, {"a": [1, bad]}):
        for _ in range(2):
            with pytest.raises(TypeError):
                io.to_json(doc)


@pytest.fixture
def limit_640():
    """A 640-digit int-to-string conversion limit, restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


LONG = 10**700


@pytest.mark.parametrize(
    "doc",
    [LONG, [LONG], {"a": LONG}, [[1, LONG]], {"a": [0, {"b": -LONG}]}, [1, True, LONG]],
    ids=["bare", "list", "dict", "matrix", "nested", "mixed"],
)
def test_to_json_names_an_int_it_cannot_write(limit_640, doc):
    """An int past the conversion limit is a FairdecError (and still a
    ValueError) that says a document cannot hold it, not Python's advice."""
    with pytest.raises(fd.FairdecError, match="^a result value has more digits than"):
        io.to_json(doc)
    with pytest.raises(ValueError):
        io.to_json(doc)


@pytest.mark.parametrize(
    "value",
    [Fraction(LONG), Fraction(1, LONG), Fraction(LONG + 1, 3)],
    ids=["whole", "denominator", "numerator"],
)
def test_encode_rational_names_a_value_it_cannot_write(limit_640, value):
    with pytest.raises(fd.FairdecError, match="^a result value has more digits than"):
        io.encode_rational(value)
    with pytest.raises(ValueError):
        io.encode_rational(value)


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

    text = io.render_audit_text(report)
    assert text.endswith("PO: VIOLATED (dominated by choices [1, 1])\n")
    text = io.render_audit_text(greport)
    assert text.endswith("PO: VIOLATED (dominated by bundles [[0, 1], []])\n")
    assert io.audit_document(fd.audit(inst, fd.Outcome(choices=(1, 1))))["po"] is None


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


PLANTED = ("none", "ratio", "true", "negative", "ragged", "missing")


@st.composite
def planted_documents(draw):
    """An all-int public or goods document of 1-20 players and 1-60 issues or
    goods, with one planted change at a random cell or row: a canonical "p/q"
    string, ``true``, a negative int, a ragged row or a missing row; and the
    change, its cell, and the path prefix of its issue or matrix."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, m = draw(st.integers(1, 20)), draw(st.integers(1, 60))
    goods, change = draw(st.booleans()), draw(st.sampled_from(PLANTED))
    widths = [m] if goods else [rng.randint(1, 4) for _ in range(m)]
    matrices = [
        [[rng.randint(0, 9) for _ in range(k)] for _ in range(n)] for k in widths
    ]
    doc = {"kind": "goods" if goods else "public"}
    doc["players"] = [f"p{i}" for i in range(n)]
    if goods:
        doc["goods"], doc["utilities"] = [f"g{g}" for g in range(m)], matrices[0]
    else:
        doc["issues"] = [
            {"name": f"t{t}", "alternatives": [f"a{a}" for a in range(k)]}
            for t, k in enumerate(widths)
        ]
        for issue, rows in zip(doc["issues"], matrices):
            issue["utilities"] = rows
    t, i = rng.randrange(len(matrices)), rng.randrange(n)
    prefix = "utilities" if goods else f"issues[{t}]"
    row = matrices[t][i]
    a = rng.randrange(len(row))
    cell = f"{prefix}{'' if goods else '.utilities'}[{i}][{a}]"
    if change == "ratio":
        q = rng.choice([2, 3, 7])
        row[a] = f"{q * rng.randint(0, 3) + rng.randint(1, q - 1)}/{q}"
    elif change == "true":
        row[a] = True
    elif change == "negative":
        row[a] = -rng.randint(1, 9)
    elif change == "ragged":
        row.append(0) if rng.random() < 0.5 else row.pop()
    elif change == "missing":
        del matrices[t][i]
    return doc, change, cell, prefix


def _view(instance):
    return instance.scales, instance.scaled, instance.maxima


def _rows(instance):
    if isinstance(instance, fd.GoodsInstance):
        return instance.utilities
    return [issue.utilities for issue in instance.issues]


@settings(max_examples=150, deadline=None)
@given(planted_documents())
def test_whole_matrix_checks_agree_with_the_per_row_route(case):
    """An all-int document takes the whole-matrix checks, and one planted
    change sends it to the per-row route; either way parsing, the factory and
    the bare class agree on the instance or on every violation."""
    doc, change, cell, prefix = case
    if change == "true":
        with pytest.raises(fd.InstanceFormatError) as info:
            io.parse_instance(json.dumps(doc))
        assert str(info.value) == f"{cell}: booleans are not numbers"
        with pytest.raises(TypeError, match="booleans are not utilities"):
            _factory(doc)
        return
    routes = (
        lambda: io.parse_instance(json.dumps(doc)),
        lambda: _factory(doc),
        lambda: _bare(doc),
    )
    if change in ("none", "ratio"):
        parsed, built, bare = (build() for build in routes)
        assert _unbuilt(parsed) and _unbuilt(built)
        assert parsed == built == bare
        assert _rows(parsed) == _rows(built) == _rows(bare)
        assert _view(parsed) == _view(built) == _view(bare)
        return
    texts = []
    for build in routes:
        with pytest.raises(fd.InstanceFormatError) as info:
            build()
        texts.append((str(info.value), info.value.violations))
    assert texts[0] == texts[1] == texts[2]
    paths = [v.path for v in texts[0][1]]
    if change == "negative":
        assert paths == [cell]
    assert any(path.startswith(prefix) for path in paths)


def _unbuilt(instance) -> bool:
    """Whether an instance has built none of its Fraction rows."""
    if isinstance(instance, fd.GoodsInstance):
        return "utilities" not in vars(instance)
    return not any("utilities" in vars(issue) for issue in instance.issues)


def test_the_timed_path_builds_no_fraction_rows(monkeypatch):
    """Parsing an all-int document, the audits, the mechanisms, the outcome
    space and every document written of them read the integer view only, so
    the Fraction rows stay unbuilt until something reads them. The factories'
    cell reader, io's own when parsing, sees no cell of an all-int document
    and only the cells of rows that are not all ints otherwise, in document
    order; a direct factory call still refuses a bool."""
    from fairdec.oracles import outcome_space_size

    seen = []

    def record(value, path, i, a, allow_decimal=False):
        seen.append((value, f"{path}[{i}][{a}]"))
        return fd.as_fraction(value)

    monkeypatch.setattr(io, "_decode_rational", record)
    goods = fd.random_goods(4, 40, 11)
    for source in (fd.random_public(4, 40, 3, 11), goods, fd.goods_to_public(goods)):
        assert _unbuilt(source)
        text = io.to_json(io.instance_document(source))
        instance = io.parse_instance(text)
        result = fd.round_robin(instance)
        if isinstance(instance, fd.GoodsInstance):
            alloc = fd.outcome_to_allocation(instance, result.outcome)
            report = fd.audit_goods(instance, alloc)
            image = fd.goods_to_public(instance)
            assert _unbuilt(image)
            doc = io.goods_result_document("round-robin", alloc, result.utilities)
        else:
            report = fd.audit(instance, result.outcome)
            outcome_space_size(instance)
            doc = io.result_document(result)
        io.to_json(doc), io.to_json(io.audit_document(report))
        assert io.to_json(io.instance_document(instance)) == text
        assert _unbuilt(instance) and _unbuilt(source)
    small_text = io.to_json(io.instance_document(fd.random_public(3, 6, 2, 1)))
    small = io.parse_instance(small_text)
    fd.leximin(small), fd.max_nash_welfare(small)
    fd.audit(small, fd.round_robin(small).outcome, with_mms=True, po_cap=10**4)
    assert _unbuilt(small)
    first = small.issues[0].utilities[0]  # read: now built, from the view
    assert first == tuple(map(Fraction, small.scaled[0][0]))
    assert not _unbuilt(small)
    assert seen == []  # no parse above read a cell
    fd.decision_instance([[[1, 2], [3, 4]]], read=record)
    fd.goods_instance([[1, 2], [0, 5]], read=record)
    assert seen == []
    public = {"kind": "public", "players": ["p", "q"], "issues": [
        {"name": "x", "alternatives": ["a", "b"], "utilities": [[1, "1/2"], [3, 4]]},
        {"name": "y", "alternatives": ["a"], "utilities": [[5], [6]]},
        {"name": "z", "alternatives": ["a", "b"], "utilities": [[0, 1], [2, "1/3"]]},
    ]}
    two_goods = {"kind": "goods", "players": ["p", "q"], "goods": ["g", "h"]}
    io.parse_instance(json.dumps(public))
    io.parse_instance(json.dumps({**two_goods, "utilities": [[7, 8], ["2/3", 0]]}))
    fd.goods_instance([[1, 2], [3, Fraction(9, 2)]], read=record)
    assert seen == [
        (1, "issues[0].utilities[0][0]"),
        ("1/2", "issues[0].utilities[0][1]"),
        (2, "issues[2].utilities[1][0]"),
        ("1/3", "issues[2].utilities[1][1]"),
        ("2/3", "utilities[1][0]"),
        (0, "utilities[1][1]"),
        (3, "utilities[1][0]"),
        (Fraction(9, 2), "utilities[1][1]"),
    ]
    for build in (
        lambda: fd.goods_instance([[1, True]]),
        lambda: fd.decision_instance([[[1, 2]], [[True, 0]]]),
    ):
        with pytest.raises(TypeError, match="booleans are not utilities"):
            build()
