"""The package's public names."""

import georep


def test_every_exported_name_resolves():
    assert [name for name in georep.__all__ if not hasattr(georep, name)] == []
    assert len(set(georep.__all__)) == len(georep.__all__)
