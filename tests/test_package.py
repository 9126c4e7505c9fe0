"""The package's public names."""

import sqnreg


def test_every_all_name_resolves():
    missing = [name for name in sqnreg.__all__ if not hasattr(sqnreg, name)]
    assert missing == []


def test_star_import_gives_every_all_name():
    namespace = {}
    exec("from sqnreg import *", namespace)
    assert set(sqnreg.__all__) <= set(namespace)
