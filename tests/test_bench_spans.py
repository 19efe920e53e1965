"""The benchmark's per-layer spans still find the program's layers.

``perfbench/spans.py`` wraps each layer function by (module, attribute)
and silently skips a name the program no longer has, so a refactor that
moves or renames one would zero that layer's metrics unnoticed.  The
table is read, not edited: the import writes no bytecode there.
"""

import importlib
import os
import sys
from collections import defaultdict

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spanned():
    sys.path.insert(0, _REPO)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("perfbench.spans").SPANNED
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(_REPO)


def test_every_span_resolves_in_the_program():
    found = defaultdict(list)
    for mod_name, attr, span_name in _spanned():
        module = importlib.import_module(mod_name)
        found[span_name].append(hasattr(module, attr))
    assert found
    missing = sorted(name for name, hits in found.items() if not any(hits))
    assert not missing, f"spans with no resolvable (module, attribute): {missing}"
