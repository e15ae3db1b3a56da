"""Slow reference implementations used to cross-check the library.

Everything here trades speed for obviousness: brute-force subset closures,
full axiom checks, direct orbit counting, elementwise definitions, closed
forms, explicit representation matrices and random sampling.  Tests
compare library output against these on small groups.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from eqdeg import naming
from eqdeg.bifurcation import CriticalPoint
from eqdeg.burnside import BurnsideElement
from eqdeg.degrees import degree_for_character
from eqdeg.errors import ValidationError
from eqdeg.groups import FiniteGroup, PermutationAction, Product
from eqdeg.lattice import SubgroupPoset
from eqdeg.reps import DEFAULT_SEED, MinusIrrep
from eqdeg.spectral import SpectralTable, SymmetryContext, eigenspace_character


def validate_group(group: FiniteGroup) -> None:
    """Full axiom check: Latin square, identity, inverses, associativity."""
    n = group.order
    t = group.table
    if t.min() < 0 or t.max() >= n:
        raise ValidationError(f"{group.name}: table entries out of range")
    ident = np.arange(n, dtype=np.int32)
    if not (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)):
        raise ValidationError(f"{group.name}: id 0 is not an identity")
    if not np.all(np.sort(t, axis=1) == ident[None, :]):
        raise ValidationError(f"{group.name}: a row is not a permutation")
    if not np.all(np.sort(t, axis=0) == ident[:, None]):
        raise ValidationError(f"{group.name}: a column is not a permutation")
    if np.any(group.inverse < 0):
        raise ValidationError(f"{group.name}: some element has no inverse")
    if not np.array_equal(t[ident, group.inverse], np.zeros(n, dtype=np.int32)):
        raise ValidationError(f"{group.name}: inverse table inconsistent")
    for a in range(n):
        left = t[t[a, :], :]          # (a b) c
        right = t[a, t]               # a (b c)
        if not np.array_equal(left, right):
            raise ValidationError(f"{group.name}: associativity fails at a={a}")


def validate_action(action: PermutationAction) -> None:
    """Identity acts trivially, every image is a permutation, g h acts as g after h."""
    n, k = action.group.order, action.degree
    pts = np.arange(k, dtype=np.int32)
    if not np.array_equal(action.images[0], pts):
        raise ValidationError("action: identity does not act trivially")
    for g in range(n):
        if not np.array_equal(np.sort(action.images[g]), pts):
            raise ValidationError(f"action: element {g} is not a permutation")
    for g in range(n):
        # composed[h] = images[g][images[h]] must equal images[g*h]
        composed = action.images[g][action.images]
        if not np.array_equal(composed, action.images[action.group.table[g]]):
            raise ValidationError(f"action: homomorphism fails at g={g}")


def product_components(group: FiniteGroup, g: int) -> tuple[int, int]:
    """(a, b) with g = id(a, b) in a direct product."""
    if not isinstance(group.structure, Product):
        raise ValidationError("product_components needs a product group")
    nb = group.structure.right.order
    return g // nb, g % nb


def index_of_subgroup(poset: SubgroupPoset, ids) -> int:
    """Class of the subgroup with these ids, by its membership mask."""
    mask = np.zeros(poset.group.order, dtype=bool)
    mask[np.asarray(list(ids), dtype=np.intp)] = True
    for cls in poset.classes:
        if (cls.orbit_masks == mask).all(axis=1).any():
            return cls.index
    raise ValidationError("not a subgroup of this lattice's group")


def closure(group: FiniteGroup, seed: set[int]) -> frozenset[int]:
    cur = set(seed) | {0}
    while True:
        new = {group.mul(a, b) for a in cur for b in cur}
        if new <= cur:
            return frozenset(cur)
        cur |= new


def brute_force_subgroups(group: FiniteGroup, max_gens: int = 3) -> set[frozenset[int]]:
    """All subgroups generated by up to max_gens elements.

    Complete whenever every subgroup of the group is max_gens-generated,
    which holds for every group this package targets at max_gens = 3
    (checked against the layered enumerator in tests).
    """
    subs: set[frozenset[int]] = {frozenset({0})}
    elems = range(1, group.order)
    for r in range(1, max_gens + 1):
        for gens in combinations(elems, r):
            subs.add(closure(group, set(gens)))
    return subs


def conjugate_subgroup(group: FiniteGroup, ids: frozenset[int], h: int) -> frozenset[int]:
    return frozenset(int(group.table[group.table[h, g], group.inverse[h]]) for g in ids)


def subgroup_conjugacy_classes(group: FiniteGroup,
                               subs: set[frozenset[int]]) -> list[set[frozenset[int]]]:
    remaining = set(subs)
    classes = []
    while remaining:
        rep = min(remaining, key=lambda s: (len(s), sorted(s)))
        orb = {conjugate_subgroup(group, rep, h) for h in range(group.order)}
        classes.append(orb)
        remaining -= orb
    return classes


def normalizer(group: FiniteGroup, ids: frozenset[int]) -> frozenset[int]:
    return frozenset(h for h in range(group.order)
                     if conjugate_subgroup(group, ids, h) == ids)


def count_conjugates_containing(group: FiniteGroup,
                                small: frozenset[int],
                                large: frozenset[int]) -> int:
    """n(small, large): conjugates of `large` that contain `small`, by listing."""
    conjs = {conjugate_subgroup(group, large, h) for h in range(group.order)}
    return sum(1 for c in conjs if small <= c)


def burnside_product_by_orbit_count(group: FiniteGroup,
                                    h_ids: frozenset[int],
                                    k_ids: frozenset[int],
                                    all_subs: set[frozenset[int]]) -> dict[frozenset[int], int]:
    """Multiply [G/H] [G/K] by decomposing G/H x G/K into orbits.

    Returns a map from subgroup-class representative (the minimal member of
    each conjugacy class present) to its multiplicity.
    """
    h_cosets = _cosets(group, h_ids)
    k_cosets = _cosets(group, k_ids)
    points = [(i, j) for i in range(len(h_cosets)) for j in range(len(k_cosets))]
    h_act = _coset_action(group, h_cosets)
    k_act = _coset_action(group, k_cosets)
    seen = set()
    result: dict[frozenset[int], int] = {}
    for p in points:
        if p in seen:
            continue
        orbit = set()
        stack = [p]
        while stack:
            q = stack.pop()
            if q in orbit:
                continue
            orbit.add(q)
            for g in range(group.order):
                stack.append((h_act[g][q[0]], k_act[g][q[1]]))
        seen |= orbit
        q0 = min(orbit)
        stab = frozenset(g for g in range(group.order)
                         if (h_act[g][q0[0]], k_act[g][q0[1]]) == q0)
        rep = min((conjugate_subgroup(group, stab, h) for h in range(group.order)),
                  key=lambda s: sorted(s))
        result[rep] = result.get(rep, 0) + 1
    return result


def unpruned_lattice(group: FiniteGroup) -> tuple[list[tuple], np.ndarray]:
    """Subgroup classes by the full closure-extension sweep, no pruning.

    Every class representative is extended by every element of prime-power
    order outside it, and each extension is closed with np.unique over the
    whole product block.  Returns the classes in canonical order, each as
    (name, representative ids, orbit rows, n_conjugates, Weyl order), and
    n_table counted one class pair at a time.
    """
    n = group.order
    table = group.table
    conj = np.array([table[table[h, :], group.inverse[h]] for h in range(n)])
    el_orders = group.element_orders()
    ppow = [x for x in range(1, n) if _is_prime_power(int(el_orders[x]))]

    def close(seed: np.ndarray) -> np.ndarray:
        cur = np.unique(seed)
        while True:
            nxt = np.unique(table[np.ix_(cur, cur)])
            if nxt.size == cur.size:
                return nxt.astype(np.int32)
            cur = nxt

    known: set[bytes] = set()
    orbits: list[np.ndarray] = []
    worklist: list[np.ndarray] = []

    def register(ids: np.ndarray) -> None:
        if ids.tobytes() in known:
            return
        orbit = np.unique(np.sort(conj[:, ids], axis=1), axis=0).astype(np.int32)
        known.update(row.tobytes() for row in orbit)
        orbits.append(orbit)
        worklist.append(orbit[0])

    register(np.array([0], dtype=np.int32))
    while worklist:
        sub = worklist.pop()
        for x in ppow:
            if x not in sub:
                register(close(np.append(sub, np.int32(x))))

    def sort_key(orbit):
        rep = orbit[0]
        return (rep.size, tuple(sorted(int(el_orders[i]) for i in rep)),
                naming.class_base_name(group, rep), tuple(rep))

    orbits.sort(key=sort_key)
    counts: dict[str, int] = {}
    classes = []
    for orbit in orbits:
        base = naming.class_base_name(group, orbit[0])
        counts[base] = counts.get(base, 0) + 1
        name = base if counts[base] == 1 else f"{base}#{counts[base]}"
        k, size = orbit.shape
        classes.append((name, orbit[0], orbit, k, n // k // size))

    masks = []
    for orbit in orbits:
        mask = np.zeros((orbit.shape[0], n), dtype=bool)
        for r, row in enumerate(orbit):
            mask[r, row] = True
        masks.append(mask)
    c = len(orbits)
    n_table = np.zeros((c, c), dtype=np.int64)
    for i, small in enumerate(orbits):
        for j, large in enumerate(orbits):
            if large.shape[1] % small.shape[1] == 0:
                n_table[i, j] = int(masks[j][:, small[0]].all(axis=1).sum())
    return classes, n_table


def _is_prime_power(k: int) -> bool:
    factors = [p for p in range(2, k + 1) if k % p == 0]
    return bool(factors) and all(p % factors[0] == 0 for p in factors)


def _cosets(group: FiniteGroup, ids: frozenset[int]) -> list[frozenset[int]]:
    seen: set[int] = set()
    cosets = []
    for g in range(group.order):
        if g in seen:
            continue
        cs = frozenset(group.mul(g, h) for h in ids)
        seen |= cs
        cosets.append(cs)
    return cosets


def _coset_action(group: FiniteGroup, cosets: list[frozenset[int]]) -> list[list[int]]:
    index = {c: i for i, c in enumerate(cosets)}
    act = []
    for g in range(group.order):
        row = []
        for c in cosets:
            moved = frozenset(group.mul(g, x) for x in c)
            row.append(index[moved])
        act.append(row)
    return act


def multiply_oracle(poset: SubgroupPoset, i: int, j: int) -> BurnsideElement:
    """Basis product [G/H_i][G/H_j] by explicit orbit decomposition.

    Independent of the mark solve: builds both coset actions, walks
    the orbits of the product action and classifies each stabilizer.
    """
    act_h = _coset_table(poset, i)
    act_k = _coset_table(poset, j)
    nh, nk = act_h.shape[1], act_k.shape[1]
    seen = np.zeros((nh, nk), dtype=bool)
    coeffs: dict[int, int] = {}
    for a in range(nh):
        for b in range(nk):
            if seen[a, b]:
                continue
            stab_mask = (act_h[:, a] == a) & (act_k[:, b] == b)
            stab = np.nonzero(stab_mask)[0].astype(np.int32)
            cls = index_of_subgroup(poset, stab)
            coeffs[cls] = coeffs.get(cls, 0) + 1
            seen[act_h[:, a], act_k[:, b]] = True
    return BurnsideElement(poset, coeffs)


def from_marks_dense(poset: SubgroupPoset, marks) -> BurnsideElement:
    """The element with these marks, by dense back substitution.

    Independent of poset.below: mark_L = sum_H x_H n(L, H) |W(H)| is upper
    triangular in class order with diagonal |W(L)|, so each row of n_table
    is read whole, from the top class down, and divided exactly.
    """
    c = len(poset)
    if len(marks) != c:
        raise ValidationError("mark vector length does not match the lattice")
    rows = poset.n_table.tolist()
    weyl = [cls.weyl_order for cls in poset.classes]
    scaled = [0] * c                       # x_H |W(H)|, filled top-down
    coeffs: dict[int, int] = {}
    for l in range(c - 1, -1, -1):
        name = poset.classes[l].name
        try:
            mark = int(marks[l])
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"mark at class {name} is not an integer")
        if mark != marks[l]:
            raise ValidationError(f"mark at class {name} is not an integer")
        rest = mark - sum(n * s for n, s in zip(rows[l][l + 1:], scaled[l + 1:]))
        q, r = divmod(rest, weyl[l])
        if r:
            raise ValidationError(f"non-integer coefficient at class {name}")
        coeffs[l] = q
        scaled[l] = q * weyl[l]
    return BurnsideElement(poset, coeffs)


def _coset_table(poset: SubgroupPoset, i: int) -> np.ndarray:
    """Left action of G on G/H_i: (action[g, c] = coset index of g * rep_c)."""
    g = poset.group
    h_ids = poset.classes[i].ids
    coset_id = np.full(g.order, -1, dtype=np.int32)
    reps = []
    for x in range(g.order):
        if coset_id[x] >= 0:
            continue
        members = g.table[x, h_ids]
        coset_id[members] = len(reps)
        reps.append(x)
    return coset_id[g.table[:, np.array(reps, dtype=np.int32)]]


def closed_form_basic_degree(poset: SubgroupPoset, m: int,
                             index: int) -> BurnsideElement:
    """Basic degree of the sign-twisted dihedral irrep, named classes only.

    Valid over the lattice of D_m x Z2.  Needs no mark computation, so it
    cross-checks both the mark solve and the class naming.  The planar
    cases branch on p = m / gcd(m, index): the isotropy pattern of a
    planar mode depends only on whether p is odd, twice odd, or divisible
    by four.
    """
    if poset.group.order != 4 * m:
        raise ValidationError(f"lattice does not belong to D_{m} x Z2")
    s = (m + 1) // 2
    if index == 0:
        sub = {f"D{m}": -1}
    elif index == s:
        sub = {f"D{m}^z": -1}
    elif m % 2 == 0 and index == s + 1:
        sub = {f"D{m}^d": -1}
    elif m % 2 == 0 and index == s + 2:
        sub = {f"D{m}^dh": -1}
    elif 0 < index < m / 2:
        h = math.gcd(m, index)
        p = m // h
        if p % 2 == 1:
            sub = {f"D{h}": -1, f"D{h}^z": -1, f"Z{h}": 1}
        elif p % 4 == 2:
            sub = {f"D{2 * h}^d": -1, f"D{2 * h}^dh": -1, f"Z{2 * h}^d": 1}
        else:
            sub = {f"D{2 * h}^d": -1, f"~D{2 * h}^d": -1, f"Z{2 * h}^d": 1}
    else:
        raise ValidationError(f"no dihedral irrep with index {index} for m={m}")
    coeffs = {poset.top_index: 1}
    for name, c in sub.items():
        coeffs[poset.index_by_name(name)] = c
    return BurnsideElement(poset, coeffs)


def closed_form_eta(m: int, jmax: int, mult: int) -> dict[int, int]:
    """eta over one eigenvalue whose negative blocks are j = 0..jmax.

    Counts the fold of each frequency without listing them: with
    jmax = q m + a, the trivial index gets q + 1 blocks, the index s
    q, the half-period pair (even m) q + 1 when 2 a >= m, and the planar
    index i gets 2q, 2q + 1 or 2(q + 1) blocks as a < i, i <= a < m - i
    or a >= m - i; each block counts mult times.
    """
    s = (m + 1) // 2
    q, a = divmod(jmax, m)
    eta = {0: (q + 1) * mult, s: q * mult}
    if m % 2 == 0:
        eta[s + 1] = eta[s + 2] = (q + 1) * mult if 2 * a >= m else q * mult
    for i in range(1, (m + 1) // 2):
        if a < i:
            eta[i] = 2 * q * mult
        elif a < m - i:
            eta[i] = (2 * q + 1) * mult
        else:
            eta[i] = 2 * (q + 1) * mult
    return eta


def isotropy_oracle(poset: SubgroupPoset,
                    irreps: list[MinusIrrep],
                    samples: int = 40,
                    seed: int = DEFAULT_SEED) -> set[int]:
    """Isotropy classes met by random points of the direct sum of irreps.

    Cross-checks reps.orbit_types: every returned class is an
    orbit type, and with enough samples the generic strata all appear.
    Random vectors are drawn both globally and inside each class's fixed
    subspace so that non-principal strata are hit too.
    """
    group = poset.group
    dims = [r.dim for r in irreps]
    total = sum(dims)
    mats = np.zeros((group.order, total, total))
    for g in range(group.order):
        at = 0
        for r in irreps:
            mats[g, at:at + r.dim, at:at + r.dim] = r.matrix(g)
            at += r.dim
    rng = np.random.default_rng(seed)
    found: set[int] = set()

    def classify(vec: np.ndarray) -> None:
        if np.linalg.norm(vec) < 1e-12:
            return
        moved = mats @ vec
        fixed = np.linalg.norm(moved - vec[None, :], axis=1) < 1e-8
        found.add(index_of_subgroup(poset, np.nonzero(fixed)[0]))

    for _ in range(samples):
        classify(rng.standard_normal(total))
    for cls in poset.classes:
        proj = mats[cls.ids].mean(axis=0)
        for _ in range(4):
            classify(proj @ rng.standard_normal(total))
    return found


def bifurcation_reference(ctx: SymmetryContext, table: SpectralTable,
                          point: CriticalPoint, tol: float) -> BurnsideElement:
    """omega at one critical point, rebuilt from scratch.

    The prefix lists every block strictly below the point anew, and the
    jump prefix * ((G) - block) is multiplied one basis pair at a time by
    multiply_oracle instead of through marks.
    """
    m = ctx.m
    prefix = np.zeros(ctx.group.order)
    for e in table.eigenvalues:
        j = 0
        while e.mu + j * j / (m * m) < point.alpha - tol:
            prefix += eigenspace_character(ctx, j, e)
            j += 1
    block = sum(eigenspace_character(ctx, j, table.entry(mu))
                for j, mu in point.contributions)
    left = degree_for_character(ctx.poset, prefix)
    right = BurnsideElement.unit(ctx.poset) - degree_for_character(ctx.poset, block)
    out = BurnsideElement.zero(ctx.poset)
    for i, a in left.coeffs.items():
        for k, b in right.coeffs.items():
            out = out + a * b * multiply_oracle(ctx.poset, i, k)
    return out


def fourier_mode_fixed_dims(ctx: SymmetryContext, modes) -> np.ndarray:
    """dim V^H for every class, V the span of the Fourier modes (j, mu).

    Builds the action of G = Gamma x (D_m x Z2) on each mode
    E_mu (x) span{cos(j t / m), sin(j t / m)} from its definition, with
    no irrep, character or fold rule: Gamma permutes the coordinates of
    the eigenvectors of A, the shift (r^a u)(t) = u(t - 2 pi a) turns the
    (cos, sin) coefficients by 2 pi a j / m, the reversal
    (s u)(t) = u(-t) negates the sin coefficient, and the sign factor
    acts as -1.  The constant mode j = 0 has no sin part.  The average
    of the matrices over H is the orthogonal projection onto V^H, so its
    singular values are 0 or 1 and its rank is dim V^H.  Needs a spatial
    group acting by coordinate permutations and an explicit matrix A.
    """
    group, m = ctx.group, ctx.m
    base = group.structure.right
    w, v = np.linalg.eigh(np.asarray(ctx.config.a_matrix, dtype=float))
    blocks = []
    for j, mu in modes:
        basis = v[:, np.abs(w - mu) <= 1e-6 * max(1.0, abs(mu))]
        rho = []
        for g in range(group.order):
            gamma, b = product_components(group, g)
            d, e = product_components(base, b)
            a, refl = (d, False) if d < m else (d - m, True)
            th = 2.0 * np.pi * a * j / m
            time = np.array([[np.cos(th), -np.sin(th)],
                             [np.sin(th), np.cos(th)]])
            if refl:
                time = time @ np.diag([1.0, -1.0])
            if j == 0:
                time = time[:1, :1]
            space = basis.T @ ctx.gamma_action.matrix(gamma) @ basis
            rho.append((-1.0) ** e * np.kron(space, time))
        blocks.append(np.array(rho))
    n = sum(b.shape[1] for b in blocks)
    rho = np.zeros((group.order, n, n))
    at = 0
    for b in blocks:
        rho[:, at:at + b.shape[1], at:at + b.shape[1]] = b
        at += b.shape[1]
    return np.array([np.linalg.matrix_rank(rho[cls.ids].mean(axis=0), tol=0.5)
                     for cls in ctx.poset.classes], dtype=np.int64)
