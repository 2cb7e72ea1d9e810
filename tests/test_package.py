import importlib

import risradar


def test_all_is_sorted_unique_and_importable():
    names = risradar.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    module = importlib.import_module("risradar")
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
    namespace: dict = {}
    exec("from risradar import *", namespace)
    assert set(names) <= set(namespace)
