import json
from fractions import Fraction

import pytest

import fincomplete as fc
from fincomplete import Partition, RationalFunction, SubmodelRef
from fincomplete.errors import InputError
from fincomplete.serialization import (
    check_report_text,
    check_report_to_dict,
    dumps,
    model_from_dict,
    model_to_dict,
    parse_rational,
    rational_str,
    theorem_report_to_dict,
    witness_to_json,
)


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("2/6") == Fraction(1, 3)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("+4/8") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "a/b", "1/2/3", "", "1/0", " 1", "1/2\n", "1/2 ", "\u0661/\u0662"])
    def test_rejects_non_exact_strings(self, bad):
        with pytest.raises(InputError):
            parse_rational(bad)

    def test_print_forms(self):
        assert rational_str(Fraction(1, 3)) == "1/3"
        assert rational_str(Fraction(-4, 2)) == "-2"
        assert rational_str(Fraction(0)) == "0"


class TestModelDocuments:
    def test_round_trip_with_attachments(self):
        e = fc.load("CE52")
        doc = model_to_dict(
            e.model,
            partitions=e.partitions,
            functions=e.functions,
            exhaustions={"byAxis1": [("0", SubmodelRef.of(0, 1, 2)), ("1", SubmodelRef.of(3, 4, 5))]},
            events={"pair": [frozenset({0, 1}), frozenset({0})]},
        )
        parsed = model_from_dict(json.loads(dumps(doc)))
        assert parsed.model == e.model
        assert parsed.partitions == e.partitions
        assert parsed.functions == e.functions
        assert parsed.events["pair"] == [frozenset({0, 1}), frozenset({0})]
        label, ref = parsed.exhaustions["byAxis1"][0]
        assert label == "0" and ref == SubmodelRef.of(0, 1, 2)

    def test_missing_fields_rejected(self):
        with pytest.raises(InputError):
            model_from_dict({"points": ["a"], "params": ["t"]})

    def test_decimal_mass_rejected(self):
        with pytest.raises(InputError):
            model_from_dict({"points": ["a"], "params": ["t"], "prob": [["1.0"]]})

    def test_row_shape_checked(self):
        with pytest.raises(InputError):
            model_from_dict({"points": ["a", "b"], "params": ["t"], "prob": [["1"]]})

    def test_tuple_params_survive(self):
        doc = {
            "points": ["a"],
            "params": [["1", "2"], "flat"],
            "prob": [["1"], ["1"]],
        }
        parsed = model_from_dict(doc)
        assert parsed.model.params == (("1", "2"), "flat")

    def test_serialization_is_byte_stable(self):
        e = fc.load("CE55")
        a = dumps(model_to_dict(e.model, partitions=e.partitions, functions=e.functions))
        b = dumps(model_to_dict(e.model, partitions=e.partitions, functions=e.functions))
        assert a == b


class TestReports:
    def test_witness_serialization_forms(self):
        w = {
            "function": RationalFunction(("1/2", "0", "-2")),
            "partition": Partition((0, 0, 1)),
            "points": frozenset({2, 0}),
            "pair": ("a", Fraction(3, 4)),
            "count": 3,
        }
        out = witness_to_json(w)
        assert out == {
            "count": 3,
            "function": ["1/2", "0", "-2"],
            "pair": ["a", "3/4"],
            "partition": [0, 0, 1],
            "points": [0, 2],
        }

    def test_check_report_dict_and_text(self):
        m = fc.load("CE55").model
        rep = fc.is_sufficient(
            fc.load("CE55").partitions["C1"], m
        )
        d = check_report_to_dict(rep)
        assert d["property"] == "sufficient" and d["verdict"] == "fail"
        text = check_report_text(rep)
        assert "verdict: fail" in text and "witness:" in text

    def test_theorem_report_dict(self):
        e = fc.load("CE52")
        rep = fc.verify_two_block_grid(e.model, e.partitions["sigmaX1"], e.partitions["sigmaSum"])
        d = theorem_report_to_dict(rep)
        assert d["status"] == "conclusion-fails-with-hypothesis-gap"
        assert len(d["hypotheses"]) == 10
        assert d["conclusion"]["witness"] == {"function": ["0", "-1", "1", "0"]}
