"""Canonical report serialization tests."""

import json

import pytest

from socialchoice.reports import (
    canonical_value,
    make_report,
    report_csv,
    report_json,
    sha256_hex,
)


class TestCanonicalValue:
    def test_floats_cut_to_nine_significant_digits(self):
        assert canonical_value(1 / 3) == 0.333333333
        assert canonical_value(20 / 3) == 6.66666667
        assert canonical_value(0.1 + 0.2) == 0.3

    def test_short_floats_pass_through(self):
        assert canonical_value(5.0) == 5.0
        assert canonical_value(-2.25) == -2.25

    def test_ints_bools_none_untouched(self):
        assert canonical_value(7) == 7
        assert canonical_value(True) is True
        assert canonical_value(False) is False
        assert canonical_value(None) is None

    def test_containers_normalized(self):
        value = {"b": (1 / 3, 2), "a": {"y": [1.0], "x": "s"}}
        out = canonical_value(value)
        assert out == {"a": {"x": "s", "y": [1.0]}, "b": [0.333333333, 2]}
        assert list(out) == ["a", "b"]
        assert isinstance(out["b"], list)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            canonical_value(float("nan"))
        with pytest.raises(ValueError, match="finite"):
            canonical_value({"v": float("inf")})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="keys"):
            canonical_value({1: "x"})

    def test_unsupported_types_rejected(self):
        with pytest.raises(TypeError):
            canonical_value({"v": {1, 2}})


class TestMakeReport:
    def test_identical_reports_serialize_identically(self):
        a = make_report("aggregate", {"profile": "A > B"}, 0, {"x": 1 / 3})
        b = make_report("aggregate", {"profile": "A > B"}, 0, {"x": 1 / 3})
        assert report_json(a) == report_json(b)
        assert report_csv(a) == report_csv(b)

    def test_json_shape(self):
        report = make_report("rate", {"ratings": "{}"}, 3, {"value": 6.0})
        data = json.loads(report_json(report))
        assert data["command"] == "rate"
        assert data["seed"] == 3
        assert data["version"] == "0.1.0"
        assert data["payload"] == {"value": 6.0}
        assert data["inputs"] == {"ratings": sha256_hex("{}")}

    def test_payload_is_canonicalized(self):
        report = make_report("x", {}, 0, {"b": (1 / 3,), "a": 2})
        assert report["payload"] == {"a": 2, "b": [0.333333333]}
        assert list(report["payload"]) == ["a", "b"]
        with pytest.raises(ValueError, match="finite"):
            make_report("x", {}, 0, {"v": float("nan")})

    def test_json_keys_sorted(self):
        report = make_report("x", {}, 0, {"b": 1, "a": 2})
        text = report_json(report)
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"command"') < text.index('"payload"')

    def test_csv_flattens_nested_paths(self):
        report = make_report("x", {}, 0, {"cases": [{"chosen": "B"}], "n": 2})
        lines = report_csv(report).splitlines()
        assert lines[0] == "key,value"
        assert 'payload.cases[0].chosen,"""B"""' in lines
        assert "payload.n,2" in lines

    def test_csv_and_json_carry_identical_numbers(self):
        report = make_report("x", {}, 0, {"scores": {"A": 1 / 3, "B": 2}})
        data = json.loads(report_json(report))
        csv_rows = dict(
            line.split(",", 1) for line in report_csv(report).splitlines()[1:]
        )
        assert json.loads(csv_rows["payload.scores.A"]) == data["payload"]["scores"]["A"]
        assert json.loads(csv_rows["payload.scores.B"]) == data["payload"]["scores"]["B"]


class TestDigests:
    def test_text_and_bytes_agree(self):
        assert sha256_hex("abc") == sha256_hex(b"abc")
        assert len(sha256_hex("abc")) == 64

    def test_make_report_digests_every_input(self):
        report = make_report("x", {"a": "one", "b": b"two"}, 0, {})
        assert report["inputs"] == {"a": sha256_hex("one"), "b": sha256_hex("two")}
