"""The public API: every exported name resolves, and none is listed twice;
the source calls nothing newer than the numpy floor it declares."""

from pathlib import Path

import hamrc


def test_every_public_name_resolves_once():
    names = hamrc.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hamrc, name)] == []
    assert len(names) == 58


def test_helpers_that_only_tests_call_live_in_the_tests():
    # each moved into tests/conftest.py, with nothing in the source calling it
    moved = ["average", "cnot_generator", "dense_of_pauli", "filter_support", "unitarity_defect"]
    assert [name for name in moved if hasattr(hamrc, name)] == []


def test_the_source_keeps_to_the_numpy_floor():
    # pyproject declares numpy>=1.22, and a run on numpy 2 cannot catch a
    # call that only numpy 2 has: np.bitwise_count came in 2.0
    source = Path(hamrc.__file__).parent.glob("*.py")
    assert [p.name for p in source if "bitwise_count(" in p.read_text()] == []
