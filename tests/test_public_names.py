"""Every name that `stratacalc` exports resolves, so removing a function
from the package also removes it from `__all__`."""

import stratacalc


def test_every_exported_name_resolves():
    assert [name for name in stratacalc.__all__ if not hasattr(stratacalc, name)] == []
    assert len(set(stratacalc.__all__)) == len(stratacalc.__all__)
