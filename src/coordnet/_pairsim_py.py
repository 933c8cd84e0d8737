"""Pure-Python accumulator for candidate-pair dot products.

Reference for the pair-similarity kernel: the scipy.sparse kernel in
coordnet.kernels is tested to match it bitwise. Contributions to a
pair are added in ascending term order, each contribution is a single
mul followed by a single add, and keys come back sorted ascending.
"""

import numpy as np

BACKEND = "python"


def accumulate_pair_products(offsets, accounts, weights):
    """Accumulate dot-product contributions for every co-occurring pair.

    Postings for term t are accounts[offsets[t]:offsets[t+1]] (ascending
    account index) with aligned weights. Returns (keys, dots) where
    key = (a << 32) | b for account indices a < b, keys ascending.
    """
    off = offsets.tolist()
    acct = accounts.tolist()
    wts = weights.tolist()
    acc = {}
    get = acc.get
    for t in range(len(off) - 1):
        lo = off[t]
        hi = off[t + 1]
        for i in range(lo, hi):
            wi = wts[i]
            key_hi = acct[i] << 32
            for j in range(i + 1, hi):
                key = key_hi | acct[j]
                acc[key] = get(key, 0.0) + wi * wts[j]
    keys = np.fromiter(acc.keys(), dtype=np.int64, count=len(acc))
    dots = np.fromiter(acc.values(), dtype=np.float64, count=len(acc))
    order = np.argsort(keys)
    return keys[order], dots[order]
