"""The counting kernel: one-coin-at-a-time prefix convolution in numpy.

For a single coin of size ``a`` the in-order update ``c[n] += c[n-a]`` is a
running prefix sum along every residue class mod ``a``, so one coin pass is
an ``add.accumulate`` down the rows of a ``(rows, a)``-shaped view.

A table of fewer than :data:`CHUNK` entries lives in one buffer padded by
``max part - 1`` scratch entries, so every coin's view is a plain reshape of
a prefix: no per-pass copy.  Scratch entries past ``n_max`` only feed later
scratch entries.

Larger tables are streamed chunk-major (:func:`stream_counts`): a chunk of
entries passes every coin while it is still in cache, and only the finished
counts leave it.  Coin ``a``'s stage keeps its last ``a`` outputs as a
carry.  Placed just below the chunk, the carry is row 0 of the same
``(rows, a)`` view, so one ``add.accumulate`` continues every residue class
across the chunk boundary.  A stream holds O(chunk + sum of parts) entries
whatever its length, and a consumer may stop it early.

numpy loads with the first table (see the denumerant module docstring).
"""

from .errors import RangeOverflowError

# entries per streamed chunk, and the smallest table that is streamed:
# 512 KiB of int64, sized to stay in a per-core L2 cache
CHUNK = 1 << 16


def build_counts(parts, n_max):
    """int64 table of representation counts for 0..n_max over ``parts``.

    Wraparound is detected after every coin pass (the first wrapped partial
    sum is always negative) and raised as :class:`RangeOverflowError`.
    """
    parts = [int(part) for part in parts]
    if n_max < CHUNK:
        return _one_buffer(parts, n_max)
    import numpy as np

    counts = np.empty(n_max + 1, dtype=np.int64)
    for lo, chunk in _chunks(parts, n_max, CHUNK):
        counts[lo : lo + chunk.size] = chunk
    return counts


def stream_counts(parts, n_max, first=CHUNK):
    """Yield ``(lo, chunk)`` pairs whose chunks are the table for 0..n_max, in order.

    ``chunk`` holds the counts of ``lo .. lo + len(chunk) - 1``.  It is a
    view into a buffer that the next chunk overwrites, so copy what must
    outlive the step.  A table of at most ``first`` entries and fewer than
    :data:`CHUNK` comes as one chunk built in one buffer; otherwise the
    first chunk has ``min(first, CHUNK)`` entries and each later one twice
    its predecessor's, up to :data:`CHUNK`.  Wraparound raises
    :class:`RangeOverflowError` at the chunk where it first happens.
    """
    parts = [int(part) for part in parts]
    if n_max < min(first, CHUNK):
        yield 0, _one_buffer(parts, n_max)
    else:
        yield from _chunks(parts, n_max, first)


def _one_buffer(parts, n_max):
    import numpy as np

    width = max([a for a in parts if 1 <= a <= n_max], default=1)
    buf = np.zeros(n_max + width, dtype=np.int64)
    buf[0] = 1
    counts = buf[: n_max + 1]
    for a in parts:
        if a < 1:
            raise ValueError("parts must be positive")
        if a > n_max:
            continue
        rows = -(-(n_max + 1) // a)
        view = buf[: rows * a].reshape(rows, a)
        np.add.accumulate(view, axis=0, out=view)
        # the same test as counts.min() < 0; argmin skips the Python-level
        # wrapper around min, a microsecond a pass on tiny tables
        if counts[counts.argmin()] < 0:
            raise RangeOverflowError("representation count exceeds int64")
    return counts


def _chunks(parts, n_max, first):
    """The chunk-major stream behind :func:`stream_counts`."""
    import numpy as np

    if min(parts, default=1) < 1:
        raise ValueError("parts must be positive")
    active = [a for a in parts if a <= n_max]
    top = max(active, default=1)
    size = min(CHUNK, n_max + 1)
    # [top entries of carry room | the chunk | top entries of padding]: stage
    # a's view starts a entries below the chunk and ends in a ragged last
    # row, whose padding entries hold scratch that feeds only themselves
    buf = np.empty(2 * top + size, dtype=np.int64)
    carries = [np.zeros(a, dtype=np.int64) for a in active]

    def views(length):
        return [buf[top - a : top + -(-length // a) * a].reshape(-1, a) for a in active]

    lo, length, full = 0, min(first, size), None
    while lo <= n_max:
        length = min(length, n_max + 1 - lo)
        if length == size:
            full = full or views(size)
            stage_views = full
        else:
            stage_views = views(length)
        chunk = buf[top : top + length]
        chunk.fill(0)
        if lo == 0:
            chunk[0] = 1
        for a, carry, view in zip(active, carries, stage_views):
            buf[top - a : top] = carry
            np.add.accumulate(view, axis=0, out=view)
            if chunk[chunk.argmin()] < 0:
                raise RangeOverflowError("representation count exceeds int64")
            # row 0 is left as it was, so this holds for length < a too
            carry[:] = buf[top + length - a : top + length]
        yield lo, chunk
        lo += length
        length = min(2 * length, size)
