import itertools
import json
import random
import sys

import pytest
from hypothesis import given

from tunnelfill import (
    Arrow,
    BasedComplex,
    ConstructionError,
    DocumentError,
    ExtendedSignSequence,
    ExtensionParams,
    Generator,
    Grading,
    Monomial,
    NotRealizable,
    PartialRealization,
    SequenceParseError,
    SignSequence,
    TunnelFillError,
    build_standard,
    decide,
    parse,
    parse_sequence,
    realize,
    serialize,
)
from tunnelfill.builder import extend_and_realize
from tunnelfill.rings import R1, RINF, RingLevel
from tunnelfill.serial import NAMED_RINGS
from tunnelfill.standard import build_extended
from conftest import (
    UNREADABLE_DOCUMENTS,
    json_values,
    make_complex,
    near_documents,
    reference_serialize,
    sign_sequences,
    to_document,
)


class TestParseSequence:
    def test_plain_sequence(self):
        seq = parse_sequence("-1,1,2,-1,1,3")
        assert isinstance(seq, SignSequence)
        assert seq.entries == (-1, 1, 2, -1, 1, 3)

    def test_extended_sequence(self):
        seq = parse_sequence("4 | 2,2 | -4")
        assert isinstance(seq, ExtendedSignSequence)
        assert seq.head == 4 and seq.tail == -4
        assert seq.body.entries == (2, 2)

    def test_zero_entry_reports_position(self):
        with pytest.raises(SequenceParseError, match="entry 2"):
            parse_sequence("1,0,2,1")

    def test_non_integer_reports_position(self):
        with pytest.raises(SequenceParseError, match="entry 3"):
            parse_sequence("1,2,x,1")

    @pytest.mark.parametrize("token", ["9" * 5000, "x" + "9" * 3000])
    def test_long_token_is_echoed_cut_short(self, token):
        with pytest.raises(SequenceParseError) as raised:
            parse_sequence(f"1,{token}")
        assert str(raised.value) == (
            f"entry 2: {token[:20]!r}... ({len(token)} characters) is not an integer"
        )

    def test_short_token_is_echoed_whole(self):
        with pytest.raises(SequenceParseError, match=r"^entry 3: 'x' is not an integer$"):
            parse_sequence("1,2,x,1")

    def test_odd_length_rejected(self):
        with pytest.raises(ConstructionError):
            parse_sequence("1,2,3")

    def test_extended_needs_single_head_and_tail(self):
        with pytest.raises(SequenceParseError):
            parse_sequence("1,2 | 1,1 | 3")
        with pytest.raises(SequenceParseError):
            parse_sequence("1 | 1,1")

    def test_round_trip_formatting(self):
        for text in ("-1,1,2,-1,1,3", "4 | 2,2 | -4"):
            assert str(parse_sequence(text)) == text


class TestRoundTrip:
    @given(sign_sequences())
    def test_standard_complexes(self, seq):
        c = build_standard(seq)
        assert parse(serialize(c)) == c

    def test_extended_complex(self):
        c = build_extended(ExtendedSignSequence(4, SignSequence((-1, 1, 2, -1, 1, 3)), -4))
        assert parse(serialize(c)) == c

    def test_partial_realization_with_colors(self):
        outcome = decide(SignSequence((-1, 1, 2, -1, 1, 3)))
        c = outcome.complex
        again = parse(serialize(c, include_colors=True))
        assert again == c
        assert again.colors == c.colors

    def test_realization_with_colors(self):
        c = realize(SignSequence((2, 2)))
        again = parse(serialize(c, include_colors=True))
        assert again == c

    def test_colors_are_stripped_unless_requested(self):
        outcome = decide(SignSequence((-1, 1, 2, -1, 1, 3)))
        doc = to_document(outcome.complex)
        assert all("color" not in arrow for arrow in doc["arrows"])
        stripped = parse(serialize(outcome.complex))
        assert stripped.colors == {}
        assert stripped.arrows == outcome.complex.arrows


class TestDocumentValidation:
    def doc(self):
        return json.loads(serialize(build_standard(SignSequence((2, 2)))))

    def test_unknown_top_level_field(self):
        doc = self.doc()
        doc["extra"] = 1
        with pytest.raises(DocumentError, match="unknown fields"):
            parse(json.dumps(doc))

    def test_unknown_ring(self):
        doc = self.doc()
        doc["ring"] = "R3"
        with pytest.raises(DocumentError, match="ring"):
            parse(json.dumps(doc))

    def test_unknown_generator_field(self):
        doc = self.doc()
        doc["generators"][0]["weight"] = 2
        with pytest.raises(DocumentError, match="unknown fields"):
            parse(json.dumps(doc))

    def test_duplicate_generator_names(self):
        doc = self.doc()
        doc["generators"][1]["name"] = doc["generators"][0]["name"]
        with pytest.raises(DocumentError, match="duplicate"):
            parse(json.dumps(doc))

    def test_arrow_to_unknown_generator(self):
        doc = self.doc()
        doc["arrows"][0]["to"] = "ghost"
        with pytest.raises(DocumentError, match="unknown generator"):
            parse(json.dumps(doc))

    def test_monomial_dead_in_the_ring(self):
        doc = self.doc()
        doc["arrows"][0]["u"] = 1
        doc["arrows"][0]["v"] = 1
        with pytest.raises(DocumentError, match="zero in R1"):
            parse(json.dumps(doc))

    def test_duplicate_arrows_rejected(self):
        doc = self.doc()
        doc["arrows"].append(dict(doc["arrows"][0]))
        with pytest.raises(DocumentError, match="duplicate"):
            parse(json.dumps(doc))

    def test_negative_exponent_rejected(self):
        doc = self.doc()
        doc["arrows"][0]["u"] = -1
        with pytest.raises(DocumentError, match="nonnegative"):
            parse(json.dumps(doc))

    def test_bad_grading_shape(self):
        doc = self.doc()
        doc["generators"][0]["gr"] = [1]
        with pytest.raises(DocumentError, match="pair of integers"):
            parse(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(DocumentError, match="not valid JSON"):
            parse("{")

    def test_untruncated_ring_round_trips(self):
        seq = SignSequence((2, 2))
        lifted = extend_and_realize(seq, ExtensionParams(3, 3))
        doc = to_document(lifted.complex)
        assert doc["ring"] == "R2"
        assert parse(json.dumps(doc)) == lifted.complex


def small_sequences():
    """Every sign sequence with n <= 2 and |a_i| <= 3."""
    values = [a for a in range(-3, 4) if a]
    for n in (1, 2):
        for entries in itertools.product(values, repeat=2 * n):
            yield SignSequence(entries)


def filler_outputs():
    """The filler's colored complexes for the realizable n <= 2, |a_i| <= 3."""
    for seq in small_sequences():
        outcome = decide(seq)
        if isinstance(outcome, PartialRealization):
            yield outcome.complex


def seeded_realizations():
    """Realizations of ten alternating sequences, n from 1 to 40. Alternating
    signs with magnitudes 1 to 4 are realizable (criterion 1)."""
    rng = random.Random(8)
    for n in (1, 2, 3, 5, 8, 12, 17, 23, 31, 40):
        sign = rng.choice((-1, 1))
        entries = tuple(sign * (-1) ** i * rng.randint(1, 4) for i in range(2 * n))
        glued = realize(SignSequence(entries))
        assert not isinstance(glued, NotRealizable), entries
        yield glued


def matrix_documents(count: int = 50):
    """Documents whose quotient is t times a matrix of the criterion-9
    corpus: row generators at gr (0, 1), column generators at gr (1, 0) and
    one arrow c_j -> V^v r_i per term t^v of t * entry (i, j)."""
    rng = random.Random(90125)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randrange(16) for _ in range(ncols)] for _ in range(nrows)]
        generators = [{"name": f"r{i}", "gr": [0, 1]} for i in range(nrows)]
        generators += [{"name": f"c{j}", "gr": [1, 0]} for j in range(ncols)]
        arrows = [
            {"from": f"c{j}", "to": f"r{i}", "u": 0, "v": v}
            for i, row in enumerate(matrix)
            for j, entry in enumerate(row)
            for v in range(1, 5)
            if (entry << 1) >> v & 1
        ]
        yield json.dumps({"ring": "Rinf", "generators": generators, "arrows": arrows})


def odd_names_complex() -> BasedComplex:
    names = ['say "hi"', "back\\slash", "ünïcödé ⊗ 𝔽₂", "tab\there"]
    generators = [Generator(name, Grading(i, -i)) for i, name in enumerate(names)]
    arrows = [
        Arrow(1, Monomial(1, 0), 0), Arrow(2, Monomial(0, 2), 1), Arrow(3, Monomial(3, 0), 2)
    ]
    colors = {arrows[0]: 'red "dark"', arrows[1]: "grün"}
    return make_complex(RINF, generators, arrows, colors)


def corpus() -> list[BasedComplex]:
    complexes = [build_standard(seq) for seq in small_sequences()]
    complexes += filler_outputs()
    complexes.append(
        build_extended(ExtendedSignSequence(4, SignSequence((-1, 1, 2, -1, 1, 3)), -4))
    )
    complexes += seeded_realizations()
    complexes += (parse(text) for text in matrix_documents())
    complexes.append(BasedComplex(R1, (), frozenset()))
    complexes.append(BasedComplex(R1, (Generator("x0", Grading(0, 0)),), frozenset()))
    complexes.append(odd_names_complex())
    return complexes


@pytest.fixture(scope="module")
def documents() -> list[BasedComplex]:
    return corpus()


class TestSerializeLayout:
    def test_corpus_covers_every_kind(self, documents):
        assert sum(1 for c in documents if c.colors) > 80
        assert any(not c.generators for c in documents)
        assert any(c.generators and not c.arrows for c in documents)
        assert max(len(c.generators) for c in documents) > 150

    @pytest.mark.parametrize("include_colors", [False, True])
    def test_byte_identical_to_json_indent_2(self, documents, include_colors):
        for c in documents:
            assert serialize(c, include_colors) == reference_serialize(c, include_colors)

    def test_ring_without_a_document_name(self):
        c = make_complex(RingLevel(3), [Generator("x", Grading(0, 0))], [])
        with pytest.raises(DocumentError, match="^no document name for ring level R3$"):
            serialize(c)

    def test_ring_past_2_62_is_not_the_full_ring(self):
        c = make_complex(RingLevel(1 << 62), [Generator("x", Grading(0, 0))], [])
        with pytest.raises(
            DocumentError, match="^no document name for ring level R4611686018427387904$"
        ):
            serialize(c)

    def test_empty_lists_and_escapes(self):
        empty = serialize(BasedComplex(R1, (), frozenset()))
        assert empty == '{\n  "ring": "R1",\n  "generators": [],\n  "arrows": []\n}\n'
        text = serialize(odd_names_complex(), include_colors=True)
        assert '"say \\"hi\\""' in text and '"back\\\\slash"' in text
        assert "\\u00fcn\\u00efc\\u00f6d\\u00e9" in text and "\\ud835\\udd3d" in text
        assert text.isascii()


def fields_complex(doc) -> BasedComplex:
    """make_complex of a document's own fields, with no checks of its own."""
    ids = {g["name"]: i for i, g in enumerate(doc["generators"])}
    generators = [
        Generator(g["name"], Grading(*g["gr"])) for g in doc["generators"]
    ]
    arrows = [
        Arrow(ids[a["from"]], Monomial(a["u"], a["v"]), ids[a["to"]]) for a in doc["arrows"]
    ]
    colors = {arrow: a["color"] for arrow, a in zip(arrows, doc["arrows"]) if "color" in a}
    return make_complex(NAMED_RINGS[doc["ring"]], generators, arrows, colors)


class TestParseEquivalence:
    def test_parse_builds_what_make_complex_builds(self, documents):
        texts = [serialize(c, colors) for c in documents for colors in (False, True)]
        texts += matrix_documents()
        for text in texts:
            parsed = parse(text)
            expected = fields_complex(json.loads(text))
            assert parsed == expected
            assert parsed.colors == expected.colors

    def test_any_json_whitespace(self):
        c = realize(SignSequence((-1, 1, 2, -1, 1, 3)))
        compact = json.dumps(to_document(c, include_colors=True), separators=(",", ":"))
        assert parse(compact) == parse(serialize(c, include_colors=True)) == c


def _mutated(change):
    doc = json.loads(serialize(build_standard(SignSequence((2, 2)))))
    change(doc)
    return json.dumps(doc)


def _set(path, value):
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return change


def _delete(path):
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return change


def _arrow(index, **fields):
    return lambda doc: doc["arrows"][index].update(fields)


def _both(*changes):
    def change(doc):
        for c in changes:
            c(doc)
    return change


# One malformed document per check, with the error and message each raises.
# The base document is the standard complex of (2, 2): generators x0, x1, x2,
# arrows x1 -> U^2 x0 and x2 -> V^2 x1, over R1.
MALFORMED = {
    "not_json": ("{", DocumentError, "not valid JSON: Expecting property name enclosed "
        "in double quotes: line 1 column 2 (char 1)"),
    "document_not_object": ("[]", DocumentError, "document must be a JSON object"),
    "document_missing_field": (_mutated(_delete(["arrows"])), DocumentError,
        "document is missing fields ['arrows']"),
    "document_unknown_field": (_mutated(_set(["extra"], 1)), DocumentError,
        "document has unknown fields ['extra']"),
    "unknown_ring": (_mutated(_set(["ring"], "R3")), DocumentError,
        "ring must be one of ['R1', 'R2', 'Rinf'], got 'R3'"),
    "generators_not_list": (_mutated(_set(["generators"], {})), DocumentError,
        "generators must be a list"),
    "generator_string": (_mutated(_set(["generators", 0], "x0")), DocumentError,
        "generator 0 is missing fields ['gr', 'name']"),
    "generator_list_extra_item": (_mutated(_set(["generators", 0], ["name", "gr", 1])),
        DocumentError, "generator 0 has unknown fields [1]"),
    "generator_missing_field": (_mutated(_delete(["generators", 0, "name"])), DocumentError,
        "generator 0 is missing fields ['name']"),
    "generator_unknown_field": (_mutated(_set(["generators", 0, "weight"], 2)), DocumentError,
        "generator 0 has unknown fields ['weight']"),
    "name_not_string": (_mutated(_set(["generators", 0, "name"], 5)), DocumentError,
        "generator 0: name must be a nonempty string"),
    "name_empty": (_mutated(_set(["generators", 0, "name"], "")), DocumentError,
        "generator 0: name must be a nonempty string"),
    "duplicate_name": (_mutated(_set(["generators", 1, "name"], "x0")), DocumentError,
        "duplicate generator name 'x0'"),
    "gr_not_pair": (_mutated(_set(["generators", 0, "gr"], [1])), DocumentError,
        "generator 'x0': gr must be a pair of integers"),
    "gr_bool": (_mutated(_set(["generators", 0, "gr"], [True, 0])), DocumentError,
        "generator 'x0': gr must be a pair of integers"),
    "gr_float": (_mutated(_set(["generators", 0, "gr"], [0.5, 0])), DocumentError,
        "generator 'x0': gr must be a pair of integers"),
    "arrows_not_list": (_mutated(_set(["arrows"], "x")), DocumentError,
        "arrows must be a list"),
    "arrow_missing_field": (_mutated(_delete(["arrows", 0, "v"])), DocumentError,
        "arrow 0 is missing fields ['v']"),
    "arrow_unknown_field": (_mutated(_set(["arrows", 0, "weight"], 1)), DocumentError,
        "arrow 0 has unknown fields ['weight']"),
    "u_negative": (_mutated(_arrow(0, u=-1)), DocumentError,
        "arrow 0: u must be a nonnegative integer"),
    "v_bool": (_mutated(_arrow(0, v=False)), DocumentError,
        "arrow 0: v must be a nonnegative integer"),
    "u_float": (_mutated(_arrow(0, u=1.0)), DocumentError,
        "arrow 0: u must be a nonnegative integer"),
    "from_unknown": (_mutated(_arrow(0, **{"from": "ghost"})), DocumentError,
        "arrow 0: unknown generator 'ghost'"),
    "to_unknown": (_mutated(_arrow(1, to="ghost")), DocumentError,
        "arrow 1: unknown generator 'ghost'"),
    "unit_monomial": (_mutated(_arrow(0, u=0, v=0)), DocumentError,
        "arrow 0: the unit monomial is not a legal arrow"),
    "dead_monomial": (_mutated(_arrow(0, u=1, v=1)), DocumentError,
        "arrow 0: monomial U^1V^1 is zero in R1"),
    "duplicate_arrow": (_mutated(lambda doc: doc["arrows"].append(dict(doc["arrows"][0]))),
        DocumentError, "arrow 2: duplicate of an earlier arrow"),
    "color_not_string": (_mutated(_arrow(0, color=3)), DocumentError,
        "arrow 0: color must be a string"),
    "color_null": (_mutated(_arrow(1, color=None)), DocumentError,
        "arrow 1: color must be a string"),
    "self_loop": (_mutated(_arrow(0, to="x1")), ConstructionError,
        "arrow 1 -> U^2V^0 1 is a self-loop"),
    "first_of_two_self_loops": (_mutated(_both(_arrow(0, to="x1"), _arrow(1, to="x2"))),
        ConstructionError, "arrow 1 -> U^2V^0 1 is a self-loop"),
    "self_loop_then_bad_exponent": (_mutated(_both(_arrow(0, to="x1"), _arrow(1, u=-1))),
        DocumentError, "arrow 1: u must be a nonnegative integer"),
    "self_loop_twice": (
        _mutated(_both(_arrow(0, to="x1"), lambda d: d["arrows"].append(dict(d["arrows"][0])))),
        DocumentError, "arrow 2: duplicate of an earlier arrow"),
    # Entries with several faults: each check's place in the order is pinned.
    "bad_u_and_unknown_from": (_mutated(_arrow(0, u=-1, **{"from": "ghost"})), DocumentError,
        "arrow 0: u must be a nonnegative integer"),
    "bad_v_and_unknown_to": (_mutated(_arrow(1, v="2", to="ghost")), DocumentError,
        "arrow 1: v must be a nonnegative integer"),
    "unknown_from_and_to": (_mutated(_arrow(0, to="ghost", **{"from": "spook"})),
        DocumentError, "arrow 0: unknown generator 'spook'"),
    "unknown_to_and_unit": (_mutated(_arrow(0, u=0, v=0, to="ghost")), DocumentError,
        "arrow 0: unknown generator 'ghost'"),
    "unknown_field_and_bad_v": (_mutated(_both(_set(["arrows", 0, "weight"], 1),
        _arrow(0, v=-1))), DocumentError, "arrow 0 has unknown fields ['weight']"),
    "dead_then_duplicate": (
        _mutated(_both(_arrow(1, u=1, v=1), lambda d: d["arrows"].append(dict(d["arrows"][0])))),
        DocumentError, "arrow 1: monomial U^1V^1 is zero in R1"),
    "duplicate_then_dead": (
        _mutated(lambda d: d["arrows"].extend(
            [dict(d["arrows"][0]), {"from": "x2", "to": "x0", "u": 2, "v": 1}])),
        DocumentError, "arrow 2: duplicate of an earlier arrow"),
    "dead_duplicate": (
        _mutated(_both(_arrow(0, u=1, v=1), lambda d: d["arrows"].append(dict(d["arrows"][0])))),
        DocumentError, "arrow 0: monomial U^1V^1 is zero in R1"),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_error_type_and_message(self, case):
        text, error, message = MALFORMED[case]
        with pytest.raises(error) as info:
            parse(text)
        assert type(info.value) is error
        assert str(info.value) == message


class TestTypedErrors:
    """Malformed entries that used to escape as a bare TypeError."""

    def _raises(self, text, message):
        with pytest.raises(DocumentError) as info:
            parse(text)
        assert str(info.value) == message

    def test_generator_entry_not_an_object(self):
        self._raises(_mutated(_set(["generators"], [1])), "generator 0 must be an object")
        self._raises(
            _mutated(_set(["generators", 0], ["name", "gr"])), "generator 0 must be an object"
        )
        self._raises(
            _mutated(_set(["generators", 0], ["name", "gr", 1, "x"])),
            "generator 0 must be an object",
        )

    def test_arrow_entry_not_an_object(self):
        self._raises(_mutated(_set(["arrows"], [7])), "arrow 0 must be an object")

    def test_unhashable_ring(self):
        self._raises(
            _mutated(_set(["ring"], {})), "ring must be one of ['R1', 'R2', 'Rinf'], got {}"
        )

    def test_unhashable_arrow_end(self):
        self._raises(_mutated(_arrow(0, **{"from": []})), "arrow 0: unknown generator []")
        self._raises(_mutated(_arrow(1, to={})), "arrow 1: unknown generator {}")


class TestUnreadableJson:
    """Text that json.loads refuses with something other than a
    JSONDecodeError is still a DocumentError."""

    def test_nesting_past_the_recursion_limit(self):
        with pytest.raises(DocumentError, match="recursion"):
            parse(UNREADABLE_DOCUMENTS["too_deep"].decode())

    def test_integer_past_the_digit_limit(self):
        with pytest.raises(DocumentError, match="digits") as raised:
            parse(UNREADABLE_DOCUMENTS["long_integer"].decode())
        message = str(raised.value)
        assert f"({sys.get_int_max_str_digits()} digits)" in message
        assert "has 5000 digits" in message
        assert "set_int_max_str_digits" not in message and ";" not in message

    @given(json_values() | near_documents())
    def test_any_json_value_parses_or_raises_a_typed_error(self, value):
        try:
            parse(json.dumps(value))
        except TunnelFillError:
            pass
