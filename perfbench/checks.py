"""Output checks for the in-process workloads.

The mark identity checks an existence degree against data the degree
solve does not produce.  The mark of a Burnside element x at a class (H)
is sum_L x_L n(H, L) |W(L)|, computed here forward from the lattice's
n_table and Weyl orders.  The degree of -id on the negative space V has
mark (-1)^{dim V^H}, so the existence degree (G) - deg must have mark
1 - (-1)^{dim V^H}, with dim V^H from fixed_point_dim.

Bifurcation reports are compared with digests captured at the seed
commit (see capture_reference.py).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from eqdeg.reps import fixed_point_dim
from eqdeg.spectral import eigenspace_character


def negative_character(ctx, table) -> np.ndarray:
    total = np.zeros(ctx.group.order)
    for j, mu, _lam in table.negative_lambdas:
        total += eigenspace_character(ctx, j, table.entry(mu))
    return total


def mark_identity_holds(ctx, table, coeffs: dict[int, int]) -> bool:
    """True when the coefficients have the marks an existence degree must."""
    poset = ctx.poset
    char = negative_character(ctx, table)
    weyl = [c.weyl_order for c in poset.classes]
    for h, cls in enumerate(poset.classes):
        row = poset.n_table[h]
        forward = sum(c * int(row[l]) * weyl[l] for l, c in coeffs.items())
        if forward != 1 - (-1) ** fixed_point_dim(char, cls.ids):
            return False
    return True


def report_digest(report) -> str:
    """Digest of every critical value, its (j, mu) pairs and its omega."""
    rows = [[f"{inv.point.alpha:.12g}",
             [[j, f"{mu:.12g}"] for j, mu in inv.point.contributions],
             inv.omega.to_pairs()]
            for inv in report.invariants]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
