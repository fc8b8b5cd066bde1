"""Tests for type feedback recording and speculation queries."""

from repro.jsvm.feedback import TypeFeedback
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import UNDEFINED

from tests.helpers import ROOT


class TestRecording:
    def test_record_args(self):
        feedback = TypeFeedback(2)
        feedback.record_args([1, "x"])
        assert feedback.arg_speculation(0) == "int"
        assert feedback.arg_speculation(1) == "string"

    def test_missing_args_recorded_undefined(self):
        feedback = TypeFeedback(2)
        feedback.record_args([1])
        assert feedback.arg_speculation(1) is None  # undefined: nothing to unbox

    def test_polymorphic_args(self):
        feedback = TypeFeedback(1)
        feedback.record_args([1])
        feedback.record_args(["x"])
        assert feedback.arg_speculation(0) is None

    def test_numbers_widen_to_double(self):
        feedback = TypeFeedback(1)
        feedback.record_args([1])
        feedback.record_args([1.5])
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

    def test_max_tags_cap(self):
        from repro.jsvm.feedback import MAX_TAGS_PER_SITE

        feedback = TypeFeedback(0)
        for value in (1, "x", True, JSObject(ROOT), JSArray(ROOT), 1.5):
            feedback.record_site(0, value)
        assert len(feedback.site_tags[0]) <= MAX_TAGS_PER_SITE


class TestSeenCallShapes:
    """``record_args`` walks a call only when its shape (the exact type
    of each argument) is new; the seen-shapes trie starts at the first
    argument."""

    def _count_walks(self, monkeypatch):
        walks = []
        real_walk = TypeFeedback._walk_args

        def counting_walk(feedback, args):
            walks.append(list(args))
            real_walk(feedback, args)

        monkeypatch.setattr(TypeFeedback, "_walk_args", counting_walk)
        return walks

    def test_a_repeated_call_shape_walks_once(self, monkeypatch):
        feedback = TypeFeedback(2)
        walks = self._count_walks(monkeypatch)
        feedback.record_args([1, "x"])
        feedback.record_args([2, "y"])
        assert walks == [[1, "x"]]
        assert set(feedback._seen_calls) == {int}
        feedback.record_args(["z", 3])  # a new shape walks again
        assert walks == [[1, "x"], ["z", 3]]
        assert feedback.arg_tags == [{"int", "string"}, {"string", "int"}]

    def test_a_wide_int_walks_every_time(self, monkeypatch):
        feedback = TypeFeedback(1)
        walks = self._count_walks(monkeypatch)
        feedback.record_args([2**40])
        feedback.record_args([2**40])
        assert len(walks) == 2
        assert feedback._seen_count == 0
        feedback.record_args([1])  # same Python type, new tag
        assert feedback.arg_tags == [{"double", "int"}]

    def test_shapes_past_the_limit_walk_every_time(self, monkeypatch):
        from repro.jsvm.feedback import MAX_SEEN_CALL_SHAPES

        feedback = TypeFeedback(0)
        for arity in range(MAX_SEEN_CALL_SHAPES):
            feedback.record_args([1] * arity)
        assert feedback._seen_count == MAX_SEEN_CALL_SHAPES
        walks = self._count_walks(monkeypatch)
        overflow = [1] * MAX_SEEN_CALL_SHAPES
        feedback.record_args(overflow)
        feedback.record_args(overflow)
        feedback.record_args([])  # remembered before the limit
        assert walks == [overflow, overflow]


class TestSpeculationRules:
    def test_null_undefined_not_speculated(self):
        from repro.jsvm.values import NULL

        feedback = TypeFeedback(2)
        feedback.record_args([NULL, UNDEFINED])
        assert feedback.arg_speculation(0) is None
        assert feedback.arg_speculation(1) is None

    def test_out_of_range_slot(self):
        feedback = TypeFeedback(1)
        feedback.record_args([1])
        assert feedback.arg_speculation(5) is None
