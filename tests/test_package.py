import types

import pecstream


def test_all_names_resolve_and_exclude_submodules():
    assert len(set(pecstream.__all__)) == len(pecstream.__all__)
    for name in pecstream.__all__:
        # getattr raises for a stale entry
        assert not isinstance(getattr(pecstream, name), types.ModuleType), name
