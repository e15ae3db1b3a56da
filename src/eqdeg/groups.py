"""Finite groups materialized as explicit multiplication tables.

Every group used by this package is small (order <= MAX_GROUP_ORDER), so
we store the full Cayley table as an int32 array.  Element ids are plain
integers 0..order-1 with the identity always at id 0.  A construction tag
records how each group was assembled; subgroup naming relies on these
tags, and representation assembly on the id layout of direct_product,
instead of re-deriving structure from the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError

# Hard cap on materialized group order; direct products refuse to exceed it.
MAX_GROUP_ORDER = 400
# Hard cap on the frequencies j a spectrum or window may need over one eigenvalue.
MAX_FREQUENCIES = 1000


def check_order(order: int, what: str) -> None:
    """Refuse an order above the cap before any table is allocated."""
    if order > MAX_GROUP_ORDER:
        raise ValidationError(f"{what} order {order} exceeds cap {MAX_GROUP_ORDER}")


def frequency_count(x: float, what: str) -> int:
    """Number of frequencies j >= 0 with j^2 < x, refused above the cap.

    Called before a loop over j, so that no loop outgrows the cap.
    """
    if not x > 0:
        return 0
    if x > MAX_FREQUENCIES ** 2:      # also an infinite x
        raise ValidationError(f"{what}: frequencies over one eigenvalue exceed "
                              f"cap MAX_FREQUENCIES = {MAX_FREQUENCIES}")
    return math.isqrt(math.ceil(x) - 1) + 1


# ---------------------------------------------------------------------------
# construction tags

@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Dihedral:
    """Dihedral group of order 2n.

    Element encoding: ids 0..n-1 are the rotations r^a, ids n..2n-1 are
    the reflections r^a * s (s a fixed reflection, s^2 = e, s r s = r^-1).
    """

    n: int


@dataclass(frozen=True)
class Sign:
    """Multiplicative group {+1, -1}; id 0 is +1."""


@dataclass(frozen=True)
class Permutation:
    degree: int


@dataclass(frozen=True)
class Product:
    """Direct product; id of (a, b) is a * right.order + b."""

    left: "FiniteGroup"
    right: "FiniteGroup"


StructureTag = Trivial | Cyclic | Dihedral | Sign | Permutation | Product


# ---------------------------------------------------------------------------
# core group type

@dataclass(eq=False)
class FiniteGroup:
    name: str
    table: np.ndarray
    structure: StructureTag
    inverse: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.table = np.ascontiguousarray(self.table, dtype=np.int32)
        n = self.order
        if self.table.shape != (n, n):
            raise ValidationError(f"{self.name}: table shape {self.table.shape} "
                                  "is not square")
        check_order(n, f"{self.name}:")
        inv = np.full(n, -1, dtype=np.int32)
        rows, cols = np.nonzero(self.table == 0)
        inv[rows] = cols
        self.inverse = inv

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = int(self.table[x, g])
            k += 1
        return k

    def element_orders(self) -> np.ndarray:
        return np.array([self.element_order(g) for g in range(self.order)],
                        dtype=np.int32)

    def subgroup_generated(self, gens: Sequence[int]) -> np.ndarray:
        """Sorted ids of the subgroup generated by gens, by squaring a mask."""
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        mask[np.asarray(gens, dtype=np.intp)] = True
        cur = np.flatnonzero(mask)
        while True:
            mask[self.table[cur[:, None], cur]] = True
            nxt = np.flatnonzero(mask)
            if nxt.size == cur.size:
                return nxt.astype(np.int32)
            cur = nxt

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# permutation actions

@dataclass(eq=False)
class PermutationAction:
    """A homomorphism from a group into permutations of {0..degree-1}.

    images[g][i] is the image of point i under element g.  Matrices act on
    vectors by (M(g) x)_i = x_{g^-1(i)}, so M(g) e_j = e_{g(j)} and
    M(g h) = M(g) M(h).
    """

    group: FiniteGroup
    degree: int
    images: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.ascontiguousarray(self.images, dtype=np.int32)
        if self.images.shape != (self.group.order, self.degree):
            raise ValidationError("permutation action shape mismatch")

    def matrix(self, g: int) -> np.ndarray:
        m = np.zeros((self.degree, self.degree))
        m[self.images[g], np.arange(self.degree)] = 1.0
        return m

    def matrices(self) -> np.ndarray:
        out = np.zeros((self.group.order, self.degree, self.degree))
        ar = np.arange(self.degree)
        for g in range(self.group.order):
            out[g, self.images[g], ar] = 1.0
        return out


# ---------------------------------------------------------------------------
# constructors

def make_trivial() -> FiniteGroup:
    return FiniteGroup("Z1", np.zeros((1, 1), dtype=np.int32), Trivial())


def make_cyclic(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group needs n >= 1")
    check_order(n, "cyclic group")
    a = np.arange(n, dtype=np.int32)
    table = (a[:, None] + a[None, :]) % n
    return FiniteGroup(name or f"Z{n}", table, Cyclic(n))


def make_sign_group() -> FiniteGroup:
    table = np.array([[0, 1], [1, 0]], dtype=np.int32)
    return FiniteGroup("Z2s", table, Sign())


def _dihedral_table(n: int) -> np.ndarray:
    # id a in 0..n-1 is r^a, id n+a is r^a s with s r s = r^-1
    table = np.zeros((2 * n, 2 * n), dtype=np.int32)
    a = np.arange(n)
    add = (a[:, None] + a[None, :]) % n
    sub = (a[:, None] - a[None, :]) % n
    table[:n, :n] = add                    # r^a r^b = r^(a+b)
    table[:n, n:] = add + n                # r^a (r^b s) = r^(a+b) s
    table[n:, :n] = sub + n                # (r^a s) r^b = r^(a-b) s
    table[n:, n:] = sub                    # (r^a s)(r^b s) = r^(a-b)
    return table


def make_dihedral(n: int, name: str | None = None) -> FiniteGroup:
    """Dihedral group of order 2n (n >= 1; D1 is the order-2 reflection group)."""
    if n < 1:
        raise ValidationError("dihedral group needs n >= 1")
    check_order(2 * n, "dihedral group")
    return FiniteGroup(name or f"D{n}", _dihedral_table(n), Dihedral(n))


def dihedral_rotation_action(group: FiniteGroup) -> PermutationAction:
    """Standard action of D_n on n points: r is i -> i+1, s is i -> -i (mod n)."""
    if not isinstance(group.structure, Dihedral):
        raise ValidationError("dihedral_rotation_action needs a dihedral group")
    n = group.structure.n
    pts = np.arange(n, dtype=np.int32)
    images = np.zeros((2 * n, n), dtype=np.int32)
    for a in range(n):
        images[a] = (pts + a) % n          # r^a
        images[n + a] = (a - pts) % n      # r^a s
    return PermutationAction(group, n, images)


def make_permutation_group(degree: int,
                           generators: Sequence[Sequence[int]],
                           name: str = "perm") -> tuple[FiniteGroup, PermutationAction]:
    """Closure of the given permutations of {0..degree-1}.

    Generators are image lists: gen[i] is where point i goes.  Returns the
    abstract group together with its defining action.
    """
    if degree < 1:
        raise ValidationError("permutation degree must be >= 1")
    gens = []
    pts = tuple(range(degree))
    for g in generators:
        t = tuple(int(x) for x in g)
        if sorted(t) != list(pts):
            raise ValidationError(f"not a permutation of 0..{degree - 1}: {g}")
        gens.append(t)
    ident = pts
    elems: dict[tuple[int, ...], int] = {ident: 0}
    order_list = [ident]
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            # right multiplication keeps discovery order deterministic
            nxt = tuple(cur[g[i]] for i in range(degree))
            if nxt not in elems:
                if len(elems) >= MAX_GROUP_ORDER:
                    raise ValidationError("permutation group exceeds order cap "
                                          f"{MAX_GROUP_ORDER}")
                elems[nxt] = len(order_list)
                order_list.append(nxt)
                queue.append(nxt)
    n = len(order_list)
    table = np.zeros((n, n), dtype=np.int32)
    for i, p in enumerate(order_list):
        for j, q in enumerate(order_list):
            table[i, j] = elems[tuple(p[q[k]] for k in range(degree))]
    group = FiniteGroup(name, table, Permutation(degree))
    action = PermutationAction(group, degree, np.array(order_list, dtype=np.int32))
    return group, action


def direct_product(left: FiniteGroup, right: FiniteGroup,
                   name: str | None = None) -> FiniteGroup:
    """Direct product with id(a, b) = a * right.order + b."""
    na, nb = left.order, right.order
    check_order(na * nb, "product")
    table = (left.table[:, None, :, None].astype(np.int64) * nb
             + right.table[None, :, None, :]).reshape(na * nb, na * nb)
    return FiniteGroup(name or f"{left.name}x{right.name}",
                       table.astype(np.int32), Product(left, right))


def sign_factor(group: FiniteGroup) -> tuple[int, np.ndarray] | None:
    """(z, mask of K) when the last direct factor of group is the sign group.

    Then group = K x Z2 with z = (e, -1) central.  direct_product numbers
    (a, b) as a * right.order + b, so the sign coordinate of an id is that
    of its right component, and z, with every other coordinate at the
    identity, is id 1.  K is the ids with sign coordinate 0.  None when
    the group has no trailing sign factor.
    """
    tag = group.structure
    if isinstance(tag, Sign):
        return 1, np.array([True, False])
    if isinstance(tag, Product) and (inner := sign_factor(tag.right)):
        z, in_k = inner
        return z, np.tile(in_k, tag.left.order)
    return None
