"""Pure-Python accumulator for candidate-pair dot products.

Reference for the pair-similarity kernel: the numpy kernel in
coordnet.kernels is tested to match it bitwise. Contributions to a
pair are added in ascending term order, each contribution is a single
mul followed by a single add, pairs whose sum is exactly zero are left
out, and keys come back sorted ascending.
"""

import numpy as np

BACKEND = "python"


def accumulate_pair_products(offsets, accounts, weights):
    """Accumulate dot-product contributions for every co-occurring pair.

    Postings for term t are accounts[offsets[t]:offsets[t+1]] (ascending
    account index) with aligned non-negative weights. Returns (keys, dots)
    where key = (a << 32) | b for account indices a < b, keys ascending;
    a pair whose products sum to exactly zero (every term it shares
    weighs zero) is left out.
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
    acc = {key: dot for key, dot in acc.items() if dot != 0.0}
    keys = np.fromiter(acc.keys(), dtype=np.int64, count=len(acc))
    dots = np.fromiter(acc.values(), dtype=np.float64, count=len(acc))
    order = np.argsort(keys)
    return keys[order], dots[order]
