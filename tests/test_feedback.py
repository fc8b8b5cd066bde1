"""Tests for type feedback recording and speculation queries."""

from repro.jsvm.feedback import TypeFeedback
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import UNDEFINED

from tests.helpers import ROOT


class TestRecording:
    def test_record_args(self):
        feedback = TypeFeedback(2)
        feedback.record_args([1, "x"], UNDEFINED)
        assert feedback.arg_speculation(0) == "int"
        assert feedback.arg_speculation(1) == "string"

    def test_missing_args_recorded_undefined(self):
        feedback = TypeFeedback(2)
        feedback.record_args([1], UNDEFINED)
        assert feedback.arg_speculation(1) is None  # undefined: nothing to unbox

    def test_polymorphic_args(self):
        feedback = TypeFeedback(1)
        feedback.record_args([1], UNDEFINED)
        feedback.record_args(["x"], UNDEFINED)
        assert feedback.arg_speculation(0) is None

    def test_numbers_widen_to_double(self):
        feedback = TypeFeedback(1)
        feedback.record_args([1], UNDEFINED)
        feedback.record_args([1.5], UNDEFINED)
        assert feedback.arg_speculation(0) == "double"

    def test_sites(self):
        feedback = TypeFeedback(0)
        feedback.record_site(7, 42)
        feedback.record_site(7, 43)
        assert feedback.site_speculation(7) == "int"
        assert feedback.site_speculation(8) is None

    def test_site_pollution(self):
        feedback = TypeFeedback(0)
        feedback.record_site(7, 42)
        feedback.record_site(7, JSObject(ROOT))
        assert feedback.site_speculation(7) is None

    def test_receivers(self):
        feedback = TypeFeedback(0)
        feedback.record_recv(3, JSArray(ROOT, [1]))
        assert feedback.recv_speculation(3) == "array"

    def test_this_speculation(self):
        feedback = TypeFeedback(0)
        obj = JSObject(ROOT)
        feedback.record_args([], obj)
        assert feedback.this_speculation() == "object"

    def test_max_tags_cap(self):
        from repro.jsvm.feedback import MAX_TAGS_PER_SITE

        feedback = TypeFeedback(0)
        for value in (1, "x", True, JSObject(ROOT), JSArray(ROOT), 1.5):
            feedback.record_site(0, value)
        assert len(feedback.site_tags[0]) <= MAX_TAGS_PER_SITE


class TestSpeculationRules:
    def test_null_undefined_not_speculated(self):
        from repro.jsvm.values import NULL

        feedback = TypeFeedback(2)
        feedback.record_args([NULL, UNDEFINED], UNDEFINED)
        assert feedback.arg_speculation(0) is None
        assert feedback.arg_speculation(1) is None

    def test_out_of_range_slot(self):
        feedback = TypeFeedback(1)
        feedback.record_args([1], UNDEFINED)
        assert feedback.arg_speculation(5) is None
