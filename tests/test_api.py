"""The public API: every exported name resolves, and none is listed twice."""

import hamrc


def test_every_public_name_resolves_once():
    names = hamrc.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hamrc, name)] == []
