"""Counting-kernel backend selection.

The hot loop (the one-coin-at-a-time prefix convolution that fills a
representation-count table) exists twice: a compiled Cython kernel and a
numpy fallback with identical semantics (bitwise-equal tables, same
overflow signalling).  The compiled one is preferred when its import
succeeds; set ``GENFROB_NO_EXT=1`` to force the fallback.

Both backends need numpy, so the choice is made when ``build_counts`` or
``BACKEND`` is first read (``GENFROB_NO_EXT`` is read then), not at
import; both are then plain module attributes.
"""

import os

__all__ = ["BACKEND", "available_backends", "build_counts"]


def _select():
    """The backend module: the compiled kernel unless it is absent or disabled."""
    if not os.environ.get("GENFROB_NO_EXT"):
        try:
            from . import _ckernel

            return _ckernel
        except ImportError:
            pass
    from . import _pykernel

    return _pykernel


def __getattr__(name):
    if name not in ("BACKEND", "build_counts"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    impl = _select()
    # setdefault: a build_counts patched in before the first read stays
    globals().setdefault("BACKEND", impl.BACKEND)
    globals().setdefault("build_counts", impl.build_counts)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


def available_backends():
    """Importable kernel modules keyed by backend name."""
    from . import _pykernel

    found = {_pykernel.BACKEND: _pykernel}
    try:
        from . import _ckernel

        found[_ckernel.BACKEND] = _ckernel
    except ImportError:
        pass
    return found
