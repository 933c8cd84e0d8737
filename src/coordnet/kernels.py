"""Pair-similarity accumulation kernel on numpy.

Postings (offsets, accounts, weights) are the CSR rows of Xᵀ, the
term x account weight matrix. Entry p of term t pairs with every entry
after it in t's posting, so the upper triangle of X Xᵀ is the sum of
those products. The kernel walks the accounts in row blocks sized by
their product count. For each block it lists every product
w[a,t]·w[b,t] with a in the block and a < b, in ascending term order
(a row-wise sparse product in the sense of Gustavson 1978), and
np.bincount sums each pair's products in that input order. That is
the add order of the reference accumulator in coordnet._pairsim_py, so
the two are bitwise identical, and tested against each other.

A caller that keeps only some pairs passes select: each block's
(keys, dots) goes through it before the block is kept, so the kernel
holds the kept pairs and one block, O(kept + block) memory, never the
full candidate list of up to C(n,2) pairs. Blocks ascend by first
account, so the kept pairs come back in key order as long as select
keeps each block's order (a boolean mask does). select must return new
arrays, not views: a view keeps its block's arrays alive.
"""

import numpy as np

from coordnet import _pairsim_py

BACKEND = "python"

# Pair products per row block. A block's working arrays take a few tens
# of bytes per product, so this bounds the kernel's memory apart from
# its input-sized arrays and its output; a row with more products than
# this is a block of its own.
PAIR_BUDGET = 1 << 15

# A block sums into a dense (rows x accounts) grid when the grid has at
# most this many cells per product; a sparser block sorts its pair keys.
DENSE_CELLS_PER_PRODUCT = 4


def accumulate_pair_products(offsets, accounts, weights, select=None):
    """Accumulate dot-product contributions for every co-occurring pair.

    Postings for term t are accounts[offsets[t]:offsets[t+1]] (ascending
    account index) with aligned non-negative weights. Returns (keys, dots)
    where key = (a << 32) | b for account indices a < b, keys ascending;
    a pair whose products sum to exactly zero is left out, as a sparse
    product stores no zeros. When select is given, each row block's
    (keys, dots) is replaced by select(keys, dots), which returns new
    arrays, and the result joins what select kept.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    accounts = np.asarray(accounts, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    key_blocks = [np.empty(0, dtype=np.int64)]
    dot_blocks = [np.empty(0, dtype=np.float64)]
    if len(accounts) == 0:
        return key_blocks[0], dot_blocks[0]

    n_accounts = int(accounts.max()) + 1
    # partners[p]: entries after p in its posting, the products p starts.
    partners = np.repeat(offsets[1:], np.diff(offsets))
    partners -= np.arange(1, len(accounts) + 1)
    # Entries row by row; stable, so terms ascend within each row.
    by_row = np.argsort(accounts, kind="stable")
    row_start = np.zeros(n_accounts + 1, dtype=np.int64)
    np.cumsum(np.bincount(accounts, minlength=n_accounts), out=row_start[1:])
    products_before = np.zeros(len(accounts) + 1, dtype=np.int64)
    np.cumsum(partners[by_row], out=products_before[1:])
    row_products = products_before[row_start]

    lo = 0
    while lo < n_accounts:
        budget_end = row_products[lo] + PAIR_BUDGET
        hi = max(lo + 1, int(np.searchsorted(row_products, budget_end, side="right")) - 1)
        total = int(row_products[hi] - row_products[lo])
        if total:
            keys, dots = _block_sums(
                by_row[row_start[lo] : row_start[hi]], partners, accounts, weights,
                total, lo, hi - lo, n_accounts,
            )
            if select is not None:
                keys, dots = select(keys, dots)
            key_blocks.append(keys)
            dot_blocks.append(dots)
        lo = hi
    return np.concatenate(key_blocks), np.concatenate(dot_blocks)


def _block_sums(entries, partners, accounts, weights, total, lo, rows, n_accounts):
    """(keys, dots) of the pairs whose first account is in rows lo.. of
    the block; entries are the block's posting positions, row by row."""
    counts = partners[entries]
    # Partner positions: entries + 1, entries + 2, ... for each entry.
    partner = np.repeat(entries + 1 - (np.cumsum(counts) - counts), counts)
    partner += np.arange(total)
    products = np.repeat(weights[entries], counts)
    products *= weights[partner]
    firsts = accounts[entries]
    seconds = accounts[partner]
    if rows * n_accounts <= DENSE_CELLS_PER_PRODUCT * total:
        return _dense_sums(firsts, counts, seconds, products, lo, rows, n_accounts)
    return _sorted_sums(firsts, counts, seconds, products)


def _dense_sums(firsts, counts, seconds, products, lo, rows, n_accounts):
    """Sum each pair's products into grid cell (a - lo) * n_accounts + b."""
    cells = np.repeat((firsts - lo) * n_accounts, counts)
    cells += seconds
    sums = np.bincount(cells, weights=products, minlength=rows * n_accounts)
    hit = sums != 0
    row_keys = np.arange(lo, lo + rows, dtype=np.int64)[:, None] << 32
    grid_keys = row_keys | np.arange(n_accounts, dtype=np.int64)
    return grid_keys.ravel()[hit], sums[hit]


def _sorted_sums(firsts, counts, seconds, products):
    """Sum each pair's products by pair key; a stable sort keeps each
    pair's products in their listed order."""
    keys = np.repeat(firsts << 32, counts)
    keys += seconds
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    sums = np.bincount(np.cumsum(first) - 1, weights=products[order])
    keys = keys[first]
    hit = sums != 0
    return keys[hit], sums[hit]


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
