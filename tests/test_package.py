"""The package's public names."""

import orbitlab as ol


def test_every_public_name_resolves():
    # a name deleted from the package but left in __all__ would break
    # `from orbitlab import *`
    assert [name for name in ol.__all__ if not hasattr(ol, name)] == []
    assert len(set(ol.__all__)) == len(ol.__all__)
