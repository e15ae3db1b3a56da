"""Readable canonical names for subgroup conjugacy classes.

Names are derived from construction tags, never from raw multiplication
tables.  The grammar:

  Subgroups of a cyclic group         Z{k}
  Subgroups of a dihedral group D_n   Z{k} for rotation subgroups,
                                      D{l} for dihedral subgroups with l
                                      rotations, ~D{l} for the second
                                      reflection-parity class (exists when
                                      n/l is even)
  Subgroups of K x Z2 (sign factor)   name(L)       inside K x {+1}
                                      name(L)^p     full product L x Z2
                                      name(L)^z     twisted, kernel = rotations
                                      name(L)^d     twisted, cyclic L or fused
                                                    dihedral kernel pair, or the
                                                    even reflection kernel
                                      name(L)^dh    twisted, odd reflection kernel
  Subgroups of A x B (general)        "L x R" when the subgroup is a direct
                                      product, otherwise the amalgam notation
                                      L^{KA} x_{Q}^{KB} R with trivial kernels
                                      omitted

Distinct classes that still collide get #2, #3 suffixes in canonical order
(handled by the lattice module, not here).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .groups import Cyclic, Dihedral, FiniteGroup, Permutation, Product, Sign, Trivial


def class_base_name(group: FiniteGroup, ids: Sequence[int]) -> str:
    """Conjugation-invariant display name for the subgroup with these ids."""
    ids = sorted(int(i) for i in ids)
    tag = group.structure
    if isinstance(tag, Trivial):
        return "Z1"
    if isinstance(tag, (Cyclic, Sign)):
        return f"Z{len(ids)}"
    if isinstance(tag, Dihedral):
        return _dihedral_name(tag.n, ids)
    if isinstance(tag, Permutation):
        return _generic_name(group, ids)
    if isinstance(tag, Product):
        if isinstance(tag.right.structure, Sign):
            return _sign_product_name(group, ids)
        return _goursat_name(group, ids)
    raise ValidationError(f"no naming rule for structure {tag!r}")


def _dihedral_name(n: int, ids: list[int]) -> str:
    rot = [i for i in ids if i < n]
    refl = _dihedral_reflection_exponents(n, ids)
    if not refl:
        return f"Z{len(rot)}"
    l = len(rot)
    d = n // l
    # reflection exponents all agree mod d; their parity is a class
    # invariant exactly when d is even
    tilde = "~" if d % 2 == 0 and refl[0] % 2 == 1 else ""
    return f"{tilde}D{l}"


def _dihedral_reflection_exponents(n: int, ids: list[int]) -> list[int]:
    return [i - n for i in ids if i >= n]


def _sign_product_name(group: FiniteGroup, ids: list[int]) -> str:
    tag = group.structure
    left = tag.left
    proj = sorted({i // 2 for i in ids})
    kernel = sorted(i // 2 for i in ids if i % 2 == 0)
    base = class_base_name(left, proj)
    if len(kernel) == len(ids):
        return base                       # inside K x {+1}
    if 1 in ids:
        return base + "^p"                # contains (e, -1), full product
    return base + _twist_suffix(left, proj, kernel)


def _twist_suffix(left: FiniteGroup, proj: list[int], kernel: list[int]) -> str:
    """Suffix for the graph of the nontrivial character proj -> {+-1}."""
    if not isinstance(left.structure, Dihedral):
        return "^d"                       # cyclic left factor
    n = left.structure.n
    proj_refl = _dihedral_reflection_exponents(n, proj)
    ker_refl = _dihedral_reflection_exponents(n, kernel)
    if not proj_refl:
        return "^d"                       # cyclic subgroup of the dihedral group
    if not ker_refl:
        return "^z"                       # kernel is the rotation part
    # dihedral kernel inside a dihedral projection: two kernel classes,
    # fused by the normalizer exactly when the rotation index d is even
    l = len(proj) // 2
    d = n // l
    if d % 2 == 0:
        return "^d"
    j0 = ((ker_refl[0] - proj_refl[0]) // d) % 2
    return "^d" if j0 == 0 else "^dh"


def _goursat_name(group: FiniteGroup, ids: list[int]) -> str:
    tag = group.structure
    left, right = tag.left, tag.right
    nb = right.order
    pairs = [(i // nb, i % nb) for i in ids]
    proj_l = sorted({a for a, _ in pairs})
    proj_r = sorted({b for _, b in pairs})
    ker_l = sorted(a for a, b in pairs if b == 0)
    ker_r = sorted(b for a, b in pairs if a == 0)
    lname = class_base_name(left, proj_l)
    rname = class_base_name(right, proj_r)
    q = len(proj_l) // len(ker_l)
    if q == 1:
        return f"{lname} x {rname}"
    qname = _quotient_name(left, proj_l, ker_l)
    ka = "" if len(ker_l) == 1 else f"^{{{class_base_name(left, ker_l)}}}"
    kb = "" if len(ker_r) == 1 else f"^{{{class_base_name(right, ker_r)}}}"
    return f"{lname}{ka} x_{{{qname}}}{kb} {rname}"


def _quotient_name(group: FiniteGroup, sub: list[int], ker: list[int]) -> str:
    """Isomorphism-type label for sub/ker (ker normal in sub)."""
    ker_set = frozenset(ker)
    cosets: dict[frozenset, int] = {}
    coset_of = {}
    for g in sub:
        cs = frozenset(group.mul(g, k) for k in ker)
        if cs not in cosets:
            cosets[cs] = len(cosets)
        coset_of[g] = cosets[cs]
    q = len(cosets)
    # element orders in the quotient
    reps = {}
    for g in sub:
        reps.setdefault(coset_of[g], g)
    orders = []
    for _, g in sorted(reps.items()):
        k, x = 1, g
        while x not in ker_set:
            x = group.mul(x, g)
            k += 1
        orders.append(k)
    if q in orders:
        return f"Z{q}"
    if all(o <= 2 for o in orders):
        return f"E{q}"
    if q % 2 == 0 and (q // 2) in orders:
        return f"D{q // 2}"
    return f"Q{q}"


def _generic_name(group: FiniteGroup, ids: list[int]) -> str:
    k = len(ids)
    if k == 1:
        return "Z1"
    if k == group.order:
        return group.name
    for g in ids:
        if group.element_order(g) == k:
            return f"Z{k}"
    return f"G{k}"
