"""Exact dense linear algebra over a FieldDescriptor (rank only)."""

from __future__ import annotations

from .poly import FieldDescriptor


def matrix_rank(rows, K: FieldDescriptor) -> int:
    """Rank of a dense matrix given as a list of rows of field elements."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = K.inv(m[rank][col])
        m[rank] = [K.mul(x, inv) for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [K.submul(x, f, y) for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank
