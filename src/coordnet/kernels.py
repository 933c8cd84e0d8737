"""Pair-similarity accumulation kernel on scipy.sparse.

Postings (offsets, accounts, weights) are the CSR rows of Xᵀ, the
term x account weight matrix. The kernel multiplies blocks of account
rows of X by Xᵀ with scipy's row-wise sparse product (Gustavson 1978),
which adds each pair's products in ascending term order, exactly as
the reference accumulator in coordnet._pairsim_py does. The two are
bitwise identical and tested against each other.
"""

import numpy as np

from coordnet import _pairsim_py

BACKEND = "python"

# Account rows per sparse product; bounds the block's candidate-pair memory.
BLOCK_ROWS = 4096


def accumulate_pair_products(offsets, accounts, weights):
    """Accumulate dot-product contributions for every co-occurring pair.

    Postings for term t are accounts[offsets[t]:offsets[t+1]] (ascending
    account index) with aligned positive weights. Returns (keys, dots)
    where key = (a << 32) | b for account indices a < b, keys ascending.
    """
    if len(accounts) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    # Imported here, not at module top: every CLI process imports this
    # module, but only a detect stage with eligible accounts multiplies,
    # and loading scipy.sparse raises each process's peak RSS.
    import scipy.sparse as sp

    n_accounts = int(np.max(accounts)) + 1
    xt = sp.csr_array(
        (weights, accounts, offsets), shape=(len(offsets) - 1, n_accounts)
    )
    x = xt.T.tocsr()
    key_blocks = []
    dot_blocks = []
    for lo in range(0, n_accounts, BLOCK_ROWS):
        block = x[lo : lo + BLOCK_ROWS] @ xt
        block.sort_indices()
        rows = np.repeat(
            np.arange(lo, lo + block.shape[0], dtype=np.int64), np.diff(block.indptr)
        )
        cols = block.indices.astype(np.int64)
        upper = cols > rows
        key_blocks.append((rows[upper] << 32) | cols[upper])
        dot_blocks.append(block.data[upper])
    return np.concatenate(key_blocks), np.concatenate(dot_blocks)


# Bound once at import: a caller may rebind the module attribute (a
# tracing wrapper does), and get_backend must still return the kernels.
_BACKENDS = {
    "python": accumulate_pair_products,
    "reference": _pairsim_py.accumulate_pair_products,
}


def available_backends():
    """Names of the kernel backends, the default first."""
    return list(_BACKENDS)


def get_backend(name):
    """Return the accumulate_pair_products implementation for `name`."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown kernel backend: {name!r}") from None
