import types

import pecstream
from pecstream import sizeindex

#: the codec functions behind the index dispatch, importable from
#: `pecstream.sizeindex` but not exported from the package root
PER_CODEC = ("bic_decode", "bic_encode", "gamma_decode_sizes",
             "gamma_encode_sizes", "i32_decode_sizes", "i32_encode_sizes",
             "rtc_decode", "rtc_encode")


def test_all_names_resolve_and_exclude_submodules():
    assert len(set(pecstream.__all__)) == len(pecstream.__all__)
    for name in pecstream.__all__:
        # getattr raises for a stale entry
        assert not isinstance(getattr(pecstream, name), types.ModuleType), name


def test_root_exports_the_index_dispatch_only():
    assert {"encode_index", "decode_index"} <= set(pecstream.__all__)
    for name in (*PER_CODEC, "reverse_byte", "build_range_tree"):
        assert name not in pecstream.__all__, name


def test_per_codec_functions_import_from_sizeindex():
    for name in PER_CODEC:
        assert callable(getattr(sizeindex, name)), name
