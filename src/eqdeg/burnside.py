"""Burnside ring of a finite group over its subgroup-class lattice.

Elements are integer combinations of subgroup conjugacy classes; the class
with index i stands for the transitive G-set G/H_i.  The exact core is
the mark map.  The mark of a class (L) on an element x counts the points
of x fixed by L:

    mark_L(x) = sum_H x_H n(L, H) |W(H)|,

read from the lattice's n_table and Weyl orders.  Marks are ring
homomorphisms into the ghost ring Z^c (tom Dieck, Transformation Groups
and Representation Theory, LNM 766, 1979), so a product multiplies marks
pointwise.  n(L, H) vanishes unless (L) <= (H), and n(L, L) = 1, so one
top-down solve recovers the coefficients from any mark vector:

    x_L = (mark_L - sum_{H > L} x_H n(L, H) |W(H)|) / |W(L)|.

The division is exact on the image of the mark map; from_marks rejects
any other vector, and any mark that is not an integer.  Products, powers,
degrees (degrees.py, spectral.py, cli.py) and bifurcation jumps
(bifurcation.py) all go through this one solve.

Both directions walk the lattice's sparse columns: poset.below(h) lists
the (L, n(L, H)) with n(L, H) > 0 as python ints.  A solve is a few
thousand integer updates, so it runs as a plain loop; stepping through
numpy columns instead cost more per call than the arithmetic itself.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .lattice import SubgroupPoset


class BurnsideElement:
    """Integer combination of subgroup classes with ring operations.

    Coefficients are python ints, so products of many factors never
    overflow.  Instances are immutable in practice: operations return new
    elements.
    """

    __slots__ = ("poset", "coeffs")

    def __init__(self, poset: SubgroupPoset, coeffs: dict[int, int]):
        self.poset = poset
        self.coeffs = {i: int(c) for i, c in coeffs.items() if c != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, poset: SubgroupPoset) -> "BurnsideElement":
        return cls(poset, {})

    @classmethod
    def unit(cls, poset: SubgroupPoset) -> "BurnsideElement":
        return cls(poset, {poset.top_index: 1})

    @classmethod
    def basis(cls, poset: SubgroupPoset, index: int) -> "BurnsideElement":
        if not 0 <= index < len(poset):
            raise ValidationError(f"no subgroup class with index {index}")
        return cls(poset, {index: 1})

    # -- mark coordinates ----------------------------------------------------

    def marks(self) -> list[int]:
        """mark_L(x) = sum_H x_H n(L, H) |W(H)| for every class L, in order."""
        poset = self.poset
        out = [0] * len(poset)
        for h, x in self.coeffs.items():
            scale = x * poset.classes[h].weyl_order
            for l, n in poset.below(h):
                out[l] += scale * n
        return out

    @classmethod
    def from_marks(cls, poset: SubgroupPoset, marks) -> "BurnsideElement":
        """The element with these marks, solved top-down over the classes."""
        rest = marks.tolist() if isinstance(marks, np.ndarray) else list(marks)
        if len(rest) != len(poset):
            raise ValidationError("mark vector length does not match the lattice")
        for l, v in enumerate(rest):
            if type(v) is not int:
                rest[l] = _integer_mark(poset, l, v)
        coeffs: dict[int, int] = {}
        for l in range(len(rest) - 1, -1, -1):
            v = rest[l]
            if not v:
                continue
            q, r = divmod(v, poset.classes[l].weyl_order)
            if r:
                raise ValidationError("marks are not those of a Burnside element: "
                                      "non-integer coefficient at class "
                                      f"{poset.classes[l].name}")
            coeffs[l] = q
            for k, n in poset.below(l):
                rest[k] -= v * n
        return cls(poset, coeffs)

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "BurnsideElement") -> None:
        if self.poset is not other.poset:
            raise ValidationError("elements live over different lattices")

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return BurnsideElement(self.poset, out)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.poset, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BurnsideElement(self.poset,
                                   {i: c * other for i, c in self.coeffs.items()})
        self._check(other)
        return BurnsideElement.from_marks(
            self.poset, [a * b for a, b in zip(self.marks(), other.marks())])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BurnsideElement":
        if n < 0:
            raise ValidationError("negative powers are not defined")
        return BurnsideElement.from_marks(self.poset,
                                          [v ** n for v in self.marks()])

    def __eq__(self, other) -> bool:
        return (isinstance(other, BurnsideElement)
                and self.poset is other.poset
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.poset), tuple(sorted(self.coeffs.items()))))

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, index: int) -> int:
        return self.coeffs.get(index, 0)

    def coefficient_by_name(self, name: str) -> int:
        return self.coefficient(self.poset.index_by_name(name))

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def to_pairs(self) -> list[tuple[str, int]]:
        """(name, coefficient) pairs, largest class first."""
        return [(self.poset.classes[i].name, self.coeffs[i])
                for i in sorted(self.coeffs, reverse=True)]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for name, c in self.to_pairs():
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}({name})"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BurnsideElement({self})"


def _integer_mark(poset: SubgroupPoset, l: int, v) -> int:
    """v as a python int; anything but an integer is outside the mark image."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != v:
        raise ValidationError("marks are not those of a Burnside element: "
                              f"mark {v!r} at class {poset.classes[l].name} "
                              "is not an integer")
    return i
