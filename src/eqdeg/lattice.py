"""Subgroup lattice of a finite group, organized by conjugacy class.

Enumeration uses closure-extension (cyclic extension; Pfeiffer, "The
subgroups of M24", Experiment. Math. 1997): starting from the trivial
subgroup, every class representative H is extended by elements x of
prime-power order outside H.  Each element decomposes into commuting
prime-power components, so every subgroup is generated by its
prime-power elements and the sweep is complete.  Whole conjugacy orbits
are registered at once, so extensions only ever run on class
representatives.

Pruning: for n in the normalizer N(H) and h, h' in H, n H n^-1 = H gives
<H, n h x h' n^-1> = n <H, x> n^-1.  So once <H, x> is registered, the
N(H)-orbit of the double coset H x H is dropped from the candidates: each
of its elements only leads to a class already registered.  The set of
classes is that of the full sweep, and representatives (the conjugate
with the least sorted id tuple) and the canonical order below do not
depend on discovery order, so the output is unchanged.

The central sign.  When the last direct factor of G is the sign group
(groups.sign_factor: D_m x Z2 and Gamma x (D_m x Z2)), G = K x Z2 with
z = (e, -1) central, and a subgroup S of G is one of three kinds.  Let H
be its image in K and N = S n K.  If z is in S, S = H x Z2.  Otherwise
S -> H is one-to-one, so N = H (S = H inside K) or N has index 2 in H and
S is the graph N u z(H - N).  This is Goursat's lemma for K x Z2 (Balanov,
Krawcewicz and Steinlein, Applied Equivariant Degree, 2006).  Since z is
central, conjugating by kz is conjugating by k: the G-classes of
subgroups of K are its K-classes, and conjugation everywhere runs over K
only.  So the sweep runs on the prime-power elements of K alone and finds
the classes of K; then each representative H is lifted to H x Z2 and to
the graph of every index-2 subgroup N of H.  Those N are the conjugates
of classes of order |H|/2 that lie inside H.  Graphs of N and of n N n^-1
for n in N(H) are conjugate; register drops a subgroup whose conjugate it
has seen, so the lift needs no N(H)-orbits.  Groups without a trailing
sign factor take the same sweep with K = G and no lift.

Classes are sorted canonically by (order, element-order multiset, name)
with the sorted id tuple of the representative as a final deterministic
tie break.  Name collisions between distinct classes get #2, #3 suffixes
in this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import naming
from .errors import ValidationError
from .groups import FiniteGroup, sign_factor


def _is_prime_power(k: int) -> bool:
    if k < 2:
        return False
    for p in range(2, k + 1):
        if p * p > k:
            return True          # k itself is prime
        if k % p == 0:
            while k % p == 0:
                k //= p
            return k == 1
    return False


@dataclass(eq=False)
class SubgroupClass:
    index: int
    ids: np.ndarray               # sorted element ids of the representative
    orbit_masks: np.ndarray       # (n_conjugates, group order) boolean
    order: int
    n_conjugates: int
    weyl_order: int
    name: str

    def __repr__(self) -> str:
        return f"SubgroupClass({self.index}: {self.name}, order={self.order})"


class SubgroupPoset:
    """Conjugacy classes of subgroups with containment data.

    n_table[i, j] counts conjugates of class-j subgroups that contain the
    class-i representative; leq is its positivity.  masks stacks the
    representatives' membership rows and orders their orders, both in
    class order.

    below(h) is column h of n_table as a sparse list of python ints, the
    form the mark solve of burnside.py walks.  Each column is built on its
    first use and kept in a per-class slot for the life of the poset.  A
    lattice built for one request is solved over only a few times, so
    building every column up front would cost more than it saves.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.classes: list[SubgroupClass] = []
        self._build()
        self._below: list[list[tuple[int, int]] | None] = [None] * len(self.classes)

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        g = self.group
        n = g.order
        table = g.table
        lift = sign_factor(g)
        z, in_k = lift if lift else (None, np.ones(n, dtype=bool))
        k_ids = np.flatnonzero(in_k)
        # conj[i, x] = k x k^-1 for the i-th element k of K; z is central,
        # so conjugation by K gives every G-conjugate
        conj = table[table[k_ids], g.inverse[k_ids, None]]
        el_orders = g.element_orders()
        ppow = np.array([_is_prime_power(int(k)) for k in el_orders])

        registered: set[bytes] = set()
        raw_classes: list[tuple[np.ndarray, np.ndarray]] = []   # (orbit rows, masks)

        def register(ids: np.ndarray) -> None:
            if ids.tobytes() in registered:
                return
            # distinct conjugates as packed masks; descending masks = ascending id rows
            member = np.zeros((k_ids.size, n), dtype=bool)
            member[np.arange(k_ids.size)[:, None], conj[:, ids]] = True
            packed = np.packbits(member, axis=1)
            distinct = np.unique(packed.view(f"V{packed.shape[1]}").ravel())
            rows = distinct.view(np.uint8).reshape(-1, packed.shape[1])
            masks = np.flipud(np.unpackbits(rows, axis=1, count=n)).astype(bool)
            orbit = np.nonzero(masks)[1].astype(np.int32).reshape(-1, ids.size)
            for row in orbit:
                registered.add(row.tobytes())
            raw_classes.append((orbit, masks))

        # sweep: the classes of K, each representative extended inside K
        register(np.array([0], dtype=np.int32))
        coset = np.empty(n, dtype=bool)
        swept = 0
        while swept < len(raw_classes):
            sub = raw_classes[swept][0][0]
            swept += 1
            inside = np.zeros(n, dtype=bool)
            inside[sub] = True
            normalizer = np.flatnonzero(inside[conj[:, sub]].all(axis=1))
            todo = ppow & in_k & ~inside
            while (candidates := np.flatnonzero(todo)).size:
                x = candidates[0]
                register(g.subgroup_generated(np.append(sub, x)))
                # each y in N (H x H) N^-1 generates a conjugate of <H, x>
                coset[:] = False
                coset[table[sub[:, None], table[x, sub]]] = True
                todo[conj[np.ix_(normalizer, np.flatnonzero(coset))]] = False

        # lift: H x Z2 and the graphs N u z(H - N) of index-2 subgroups N of H
        if z is not None:
            k_masks = np.concatenate([masks for _, masks in raw_classes])
            k_orders = k_masks.sum(axis=1)
            for orbit, _ in raw_classes[:swept]:
                sub = orbit[0]
                register(np.union1d(sub, table[z, sub]))
                rows = k_masks[2 * k_orders == sub.size]
                # the index-2 subgroups N of H: rows of order |H|/2 inside H
                for kernel in rows[rows[:, sub].sum(axis=1) == sub.size // 2]:
                    graph = kernel.copy()
                    graph[table[z, sub[~kernel[sub]]]] = True
                    register(np.flatnonzero(graph).astype(np.int32))

        # canonical ordering; each class is named once
        keys = [(orbit.shape[1], tuple(sorted(el_orders[orbit[0]].tolist())),
                 naming.class_base_name(g, orbit[0]), tuple(orbit[0]))
                for orbit, _ in raw_classes]
        ordered = sorted(range(len(raw_classes)), key=keys.__getitem__)
        counts: dict[str, int] = {}
        for idx, raw in enumerate(ordered):
            orbit, masks = raw_classes[raw]
            size, _, base, _ = keys[raw]
            counts[base] = counts.get(base, 0) + 1
            k = orbit.shape[0]
            if (n // k) % size != 0:
                raise ValidationError("normalizer order not divisible by subgroup order")
            self.classes.append(SubgroupClass(
                index=idx,
                ids=orbit[0].copy(),
                orbit_masks=masks,
                order=size,
                n_conjugates=k,
                weyl_order=(n // k) // size,
                name=base if counts[base] == 1 else f"{base}#{counts[base]}",
            ))

        self._compute_tables()

    def _compute_tables(self) -> None:
        c = len(self.classes)
        self.masks = np.array([cls.orbit_masks[0] for cls in self.classes])
        self.orders = np.array([cls.order for cls in self.classes])
        reps = self.masks.astype(np.int16)
        self.n_table = np.zeros((c, c), dtype=np.int64)
        for j, large in enumerate(self.classes):
            # hits[r, s]: elements of rep small[s] in conjugate r of class j
            small = np.flatnonzero(large.order % self.orders == 0)
            hits = large.orbit_masks.astype(np.int16) @ reps[small].T
            self.n_table[small, j] = (hits == self.orders[small]).sum(axis=0)
        self.leq = self.n_table > 0

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def top_index(self) -> int:
        return len(self.classes) - 1

    def index_by_name(self, name: str) -> int:
        for c in self.classes:
            if c.name == name:
                return c.index
        raise ValidationError(f"no subgroup class named {name!r}")

    def below(self, h: int) -> list[tuple[int, int]]:
        """(L, n(L, H)) for every class L with n(L, H) > 0, in class order."""
        col = self._below[h]
        if col is None:
            rows = np.flatnonzero(self.n_table[:, h])
            col = list(zip(rows.tolist(), self.n_table[rows, h].tolist()))
            self._below[h] = col
        return col

    def maximal_elements(self, indices) -> list[int]:
        """Members of `indices` not strictly below another member."""
        idx = np.array(sorted(set(int(i) for i in indices)), dtype=np.intp)
        only_self = self.leq[np.ix_(idx, idx)].sum(axis=1) == 1
        return idx[only_self].tolist()


# keyed by group identity; the bound keeps long sweeps in flat memory
@lru_cache(maxsize=4)
def subgroup_poset(group: FiniteGroup) -> SubgroupPoset:
    return SubgroupPoset(group)
