"""The package's public names: every export resolves, and every public
name the package binds is exported."""

from types import ModuleType

import latcov


def test_all_names_resolve():
    assert len(set(latcov.__all__)) == len(latcov.__all__)
    missing = [n for n in latcov.__all__ if not hasattr(latcov, n)]
    assert missing == []


def test_star_import():
    ns: dict = {}
    exec("from latcov import *", ns)
    assert set(latcov.__all__) <= set(ns)


def test_all_lists_every_public_binding():
    bound = {n for n, v in vars(latcov).items()
             if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert bound - set(latcov.__all__) == set()
