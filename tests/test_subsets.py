import pytest

from smalldoubling import Subset, cyclic


def test_construction_and_cardinality():
    s = cyclic(8).subset([1, 5, 3])
    assert s.mask == 0b101010
    assert s.cardinality == 3
    assert s.elements() == (1, 3, 5)
    assert list(s) == [1, 3, 5]
    assert 3 in s and 2 not in s and 9 not in s


def test_empty_and_full():
    assert Subset(5, 0).is_empty
    assert Subset(5, 0b11111).cardinality == 5
    assert Subset(5, 0).elements() == ()


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        cyclic(4).subset([4])
    with pytest.raises(ValueError):
        Subset(4, 1 << 4)
    with pytest.raises(ValueError):
        Subset(0, 0)

