"""The names that bench/tracer.py wraps, checked without importing bench/.

The tracer replaces functions by module and attribute name and reads the
memo statistics of `insert` and `cell_fingerprint`; a rename or a dropped
memo in the package would otherwise surface only in the bench suite.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    for targets in _load_tracer().TARGETS.values():
        for module_name, attr, _mode in targets:
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module_name, attr)


def test_traced_memos_expose_cache_info():
    from dominocells.cells import cell_fingerprint
    from dominocells.insertion import insert

    for fn in (insert, cell_fingerprint):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0
