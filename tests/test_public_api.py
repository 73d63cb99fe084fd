"""The package namespace: every name in __all__ exists, once."""

import kerrcasimir


def test_all_names_resolve():
    missing = [name for name in kerrcasimir.__all__
               if not hasattr(kerrcasimir, name)]
    assert missing == []


def test_all_has_no_duplicates():
    names = kerrcasimir.__all__
    assert len(set(names)) == len(names)
