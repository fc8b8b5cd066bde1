"""Unit tests for heap objects (JSObject / JSArray)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import JSRangeError
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import UNDEFINED

from tests.helpers import ROOT


class TestJSObject:
    def test_get_set(self):
        obj = JSObject(ROOT)
        obj.set("a", 1)
        assert obj.get("a") == 1

    def test_missing_is_undefined(self):
        assert JSObject(ROOT).get("a") is UNDEFINED

    def test_has(self):
        obj = JSObject(ROOT, {"a": 1})
        assert obj.has("a")
        assert not obj.has("b")

    def test_delete(self):
        obj = JSObject(ROOT, {"a": 1})
        obj.delete("a")
        assert not obj.has("a")
        obj.delete("a")  # idempotent

    def test_constructor_copies(self):
        source = {"a": 1}
        obj = JSObject(ROOT, source)
        source["a"] = 2
        assert obj.get("a") == 1


class TestJSArray:
    def test_length(self):
        assert JSArray(ROOT, [1, 2, 3]).length == 3

    def test_get_element(self):
        assert JSArray(ROOT, [5]).get_element(0) == 5

    def test_out_of_bounds_undefined(self):
        array = JSArray(ROOT, [5])
        assert array.get_element(1) is UNDEFINED
        assert array.get_element(-1) is UNDEFINED

    def test_float_index(self):
        array = JSArray(ROOT, [5, 6])
        assert array.get_element(1.0) == 6
        assert array.get_element(0.5) is UNDEFINED

    def test_set_element_grows_with_holes(self):
        array = JSArray(ROOT)
        array.set_element(2, "x")
        assert array.length == 3
        assert array.get_element(0) is UNDEFINED
        assert array.get_element(2) == "x"

    def test_negative_store_raises(self):
        with pytest.raises(JSRangeError):
            JSArray(ROOT).set_element(-1, 1)

    def test_length_property(self):
        assert JSArray(ROOT, [1, 2]).get("length") == 2

    def test_set_length_truncates(self):
        array = JSArray(ROOT, [1, 2, 3])
        array.set("length", 1)
        assert array.elements == [1]

    def test_set_length_extends(self):
        array = JSArray(ROOT, [1])
        array.set("length", 3)
        assert array.length == 3
        assert array.get_element(2) is UNDEFINED

    def test_set_length_invalid(self):
        with pytest.raises(JSRangeError):
            JSArray(ROOT).set_length(-1)
        with pytest.raises(JSRangeError):
            JSArray(ROOT).set_length("x")

    def test_push_pop(self):
        array = JSArray(ROOT)
        assert array.push(1) == 1
        assert array.push(2) == 2
        assert array.pop() == 2
        assert array.pop() == 1
        assert array.pop() is UNDEFINED

    def test_named_properties_coexist(self):
        array = JSArray(ROOT, [1])
        array.set("tag", "x")
        assert array.get("tag") == "x"
        assert array.length == 1

    @given(st.lists(st.integers(), max_size=30), st.integers(min_value=0, max_value=50))
    def test_growth_invariant(self, items, index):
        array = JSArray(ROOT, items)
        array.set_element(index, 99)
        assert array.length == max(len(items), index + 1)
        assert array.get_element(index) == 99
