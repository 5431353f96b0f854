"""A certificate for the engine's column reductions, checked independently.

`FilteredComplex.reductions[k]` is (R, V, lows) of d_k, the integer matrix D
with columns `integer_d[k]`.  `certify` checks, for every column j,

- R_j = D V_j, by applying D to V_j;
- max(V_j) = j and V_j[j] != 0, so V is upper triangular with a nonzero
  diagonal and hence invertible;

and that the lows of the nonzero R_j are distinct, with `lows` mapping each
to its column.  Together these make R = D V a reduction of D: its nonzero
columns are a basis of Im D, the V_j at its zero columns one of Ker D, and
by the uniqueness of the persistence pairing (Cohen-Steiner, Edelsbrunner &
Morozov 2006) its lows are the pairs of d_k.  A cleared column has R_j = {}
and the boundary as V_j, and passes the same checks.  None of this reads
`reduce_columns`, so the certificate holds or fails whatever it does.
"""

from __future__ import annotations

from specseq.linalg import apply_columns


def certify(fc) -> None:
    """Assert the certificate of every reduction of `fc`, naming k and j."""
    for k, (R, V, lows) in enumerate(fc.reductions):
        D = fc.integer_d[k]
        assert len(R) == len(V) == len(D), f"d_{k}: R, V and D differ in width"
        for j, (r, v) in enumerate(zip(R, V)):
            assert apply_columns(D, v) == r, f"d_{k}: R_{j} != D V_{j}"
            assert max(v, default=None) == j and v[j], f"d_{k}: V_{j} is not triangular at {j}"
        found = [max(r) for r in R if r]
        assert len(set(found)) == len(found), f"d_{k}: two columns share a low"
        assert lows == {max(r): j for j, r in enumerate(R) if r}, f"d_{k}: lows misrecorded"
