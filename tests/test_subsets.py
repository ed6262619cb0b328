import pytest

from smalldoubling import GroupMismatch, Subset


def test_construction_and_cardinality():
    s = Subset.from_elements(8, [1, 5, 3])
    assert s.mask == 0b101010
    assert s.cardinality == 3
    assert len(s) == 3
    assert s.elements() == (1, 3, 5)
    assert list(s) == [1, 3, 5]
    assert 3 in s and 2 not in s and 9 not in s


def test_empty_and_full():
    assert Subset(5, 0).is_empty
    assert Subset(5, 0b11111).cardinality == 5
    assert Subset(5, 0).elements() == ()


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        Subset.from_elements(4, [4])
    with pytest.raises(ValueError):
        Subset(4, 1 << 4)
    with pytest.raises(ValueError):
        Subset(0, 0)


def test_set_operations():
    a = Subset.from_elements(6, [0, 1, 2])
    b = Subset.from_elements(6, [2, 3])
    assert (a | b).elements() == (0, 1, 2, 3)
    assert (a & b).elements() == (2,)
    assert b & (a | b) == b
    with pytest.raises(GroupMismatch):
        a | Subset.from_elements(7, [0])
    with pytest.raises(GroupMismatch):
        a & Subset.from_elements(7, [0])


def test_sort_key_orders_by_smallest_differing_element():
    lo = Subset.from_elements(8, [0, 5])
    hi = Subset.from_elements(8, [1, 2])
    assert lo.sort_key() < hi.sort_key()
