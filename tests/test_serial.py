import json

import pytest
from hypothesis import given

from tunnelfill import (
    ConstructionError,
    DocumentError,
    ExtendedSignSequence,
    ExtensionParams,
    SequenceParseError,
    SignSequence,
    build_standard,
    decide,
    parse,
    parse_sequence,
    realize,
    serialize,
)
from tunnelfill.builder import extend_and_realize
from tunnelfill.serial import to_document
from tunnelfill.standard import build_extended
from conftest import sign_sequences


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
