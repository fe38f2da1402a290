"""The counting kernel: one-coin-at-a-time prefix convolution in numpy.

For a single coin of size ``a`` the in-order update ``c[n] += c[n-a]`` is a
running prefix sum along every residue class mod ``a``, so one coin pass is
an ``add.accumulate`` down the rows of a ``(rows, a)``-shaped view.

The whole table lives in one buffer padded by ``max part - 1`` scratch
entries, so every coin's view is a plain reshape of a prefix: no per-pass
copy.  Scratch entries past ``n_max`` only feed later scratch entries.  The
rows are accumulated in blocks of about :data:`BLOCK` entries, carrying the
previous block's last row into the next block's first, so each column walk
stays in cache instead of striding down the whole table.

numpy loads with the first table (see the denumerant module docstring).
"""

from .errors import RangeOverflowError

# entries per accumulated block: 256 KiB of int64, sized to stay in a per-core L2 cache
BLOCK = 1 << 15


def build_counts(parts, n_max):
    """int64 table of representation counts for 0..n_max over ``parts``.

    Wraparound is detected after every coin pass (the first wrapped partial
    sum is always negative) and raised as :class:`RangeOverflowError`.
    """
    import numpy as np

    parts = [int(part) for part in parts]
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
        step = BLOCK // a or 1
        if rows <= step:  # one block: skip the blocked loop's set-up
            np.add.accumulate(view, axis=0, out=view)
        else:
            _accumulate_blocks(view, step)
        # the same test as counts.min() < 0; argmin skips the Python-level
        # wrapper around min, a microsecond a pass on tiny tables
        if counts[counts.argmin()] < 0:
            raise RangeOverflowError("representation count exceeds int64")
    return counts


def _accumulate_blocks(view, step):
    """In place, ``step`` rows at a time: each row of ``view`` becomes the
    sum of itself and all rows above it."""
    import numpy as np

    np.add.accumulate(view[:step], axis=0, out=view[:step])
    for top in range(step, view.shape[0], step):
        block = view[top : top + step]
        block[0] += view[top - 1]
        np.add.accumulate(block, axis=0, out=block)
