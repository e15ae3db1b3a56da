"""Real irreducible representations and fixed-point machinery.

Time symmetry contributes dihedral irreps known in closed form; a spatial
symmetry group contributes whatever real irreps occur in its action on
phase space, extracted numerically by averaging a random symmetric matrix
over the action.  Degree computations only ever use irreps tensored with
the antipodal character of the sign factor, so those are the product
irreps assembled here.

Eigenvalue clustering and multiplicity extraction are guarded: characters
must have squared norm 1, 2 or 4 and every multiplicity must be integral
to about 1e-6, otherwise the decomposition is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .groups import FiniteGroup, PermutationAction
from .lattice import SubgroupPoset

DEFAULT_SEED = 12345
INTEGRALITY_TOL = 1e-6
CLUSTER_TOL = 1e-7   # relative gap below which eigenvalues merge


# ---------------------------------------------------------------------------
# dihedral irreps (time symmetry side), exact formulas

@dataclass(eq=False)
class TimeIrrep:
    """Real irrep of a dihedral group D_m.

    Index layout: 0 is trivial; 0 < i < m/2 are the planar 2-dim irreps
    (rotation by 2 pi i / m, reflection by conjugation); s = floor((m+1)/2)
    sends rotations to 1 and reflections to -1; for even m, s+1 and s+2
    send the base rotation to -1 with reflection image +1 and -1.
    """

    m: int
    index: int
    dim: int
    label: str
    character: np.ndarray

    def matrix(self, g: int) -> np.ndarray:
        m, i = self.m, self.index
        a, refl = (g, False) if g < m else (g - m, True)
        s = (m + 1) // 2
        if i == 0:
            val = 1.0
        elif 0 < i < m / 2:
            th = 2.0 * np.pi * i * a / m
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            if refl:
                rot = rot @ np.diag([1.0, -1.0])
            return rot
        elif i == s:
            val = -1.0 if refl else 1.0
        elif i == s + 1:
            val = (-1.0) ** a
        elif i == s + 2:
            val = (-1.0) ** (a + 1) if refl else (-1.0) ** a
        else:
            raise ValidationError(f"no dihedral irrep with index {i} for m={m}")
        return np.array([[val]])


def time_irrep_indices(m: int) -> list[int]:
    s = (m + 1) // 2
    planar = [i for i in range(1, (m + 1) // 2) if 2 * i != m]
    out = [0, *planar, s]
    if m % 2 == 0:
        out += [s + 1, s + 2]
    return sorted(out)


@lru_cache(maxsize=None)
def time_irreps(m: int) -> tuple[TimeIrrep, ...]:
    if m < 1:
        raise ValidationError("dihedral irreps need m >= 1")
    out = []
    for i in time_irrep_indices(m):
        probe = TimeIrrep(m, i, 1, f"V{i}", np.zeros(2 * m))
        dim = probe.matrix(0).shape[0]
        char = np.array([np.trace(probe.matrix(g)) for g in range(2 * m)])
        out.append(TimeIrrep(m, i, dim, f"V{i}", char))
    total = sum(r.dim ** 2 for r in out)
    if total != 2 * m:
        raise ValidationError("dihedral irrep dimensions are inconsistent")
    return tuple(out)


def time_irrep(m: int, index: int) -> TimeIrrep:
    for r in time_irreps(m):
        if r.index == index:
            return r
    raise ValidationError(f"no dihedral irrep with index {index} for m={m}")


def fold_frequency(j: int, m: int) -> list[int]:
    """Dihedral irrep indices carried by the Fourier mode of frequency j.

    Frequency 0 carries only the trivial irrep; positive multiples of m
    fold onto the trivial and rotation-fixed sign irreps; for even m the
    half-period residue carries the two remaining sign irreps; every other
    frequency folds onto a single planar irrep.
    """
    if j < 0:
        raise ValidationError("frequency must be nonnegative")
    s = (m + 1) // 2
    if j == 0:
        return [0]
    a = j % m
    if a == 0:
        return [0, s]
    if m % 2 == 0 and 2 * a == m:
        return [s + 1, s + 2]
    return [a] if a <= m // 2 else [m - a]


# ---------------------------------------------------------------------------
# spatial symmetry irreps, numeric route

@dataclass(eq=False)
class GammaIrrep:
    """Real irrep of the spatial group occurring in its phase-space action.

    basis columns span one copy inside the permutation module (None for
    the trivial group, whose single irrep needs no basis).  norm_sq is the
    squared character norm: 1, 2 or 4 for real, complex or quaternionic
    type.
    """

    label: str
    dim: int
    character: np.ndarray
    norm_sq: int
    basis: np.ndarray | None
    action: PermutationAction | None

    def matrix(self, a: int) -> np.ndarray:
        if self.basis is None or self.action is None:
            return np.array([[1.0]])
        return self.basis.T @ self.action.matrix(a) @ self.basis


def trivial_gamma_irrep() -> GammaIrrep:
    return GammaIrrep("U0", 1, np.ones(1), 1, None, None)


def gamma_irreps_in(action: PermutationAction,
                    seed: int = DEFAULT_SEED,
                    attempts: int = 8) -> list[GammaIrrep]:
    """Real irreps occurring in a permutation action, found numerically.

    Averages a random symmetric matrix over the action; eigenspaces of the
    average are invariant and generically single irreducible copies.
    Clusters separated by less than ten times the merge tolerance trigger
    a retry with a fresh random matrix.
    """
    group = action.group
    n, k = group.order, action.degree
    mats = action.matrices()
    rng = np.random.default_rng(seed)
    last_error = None
    for _ in range(attempts):
        x = rng.standard_normal((k, k))
        x = (x + x.T) / 2.0
        avg = np.einsum("gij,jk,glk->il", mats, x, mats) / n
        try:
            return _split_eigenspaces(action, mats, avg)
        except _RetryDecomposition as exc:
            last_error = exc
    raise ValidationError(f"equivariant decomposition failed: {last_error}")


class _RetryDecomposition(Exception):
    pass


def cluster_eigenvalues(w: np.ndarray) -> tuple[list[np.ndarray], float | None]:
    """Index blocks of the ascending eigenvalues w, split where they part.

    Neighbours merge when their gap is at most CLUSTER_TOL * max(1, |w|).
    A gap above that but below ten times it leaves the clustering
    ambiguous: then no blocks are returned, and the second value is the
    eigenvalue just above the first such gap (None when there is none).
    """
    tol = CLUSTER_TOL * max(1.0, float(np.abs(w).max(initial=0.0)))
    gaps = np.diff(w)
    ambiguous = np.flatnonzero((gaps > tol) & (gaps < 10.0 * tol))
    if ambiguous.size:
        return [], float(w[ambiguous[0] + 1])
    return np.split(np.arange(len(w)), np.flatnonzero(gaps > tol) + 1), None


def _split_eigenspaces(action: PermutationAction,
                       mats: np.ndarray,
                       avg: np.ndarray) -> list[GammaIrrep]:
    group = action.group
    n, k = group.order, action.degree
    w, v = np.linalg.eigh(avg)
    blocks, near = cluster_eigenvalues(w)
    if near is not None:
        raise _RetryDecomposition(f"ambiguous eigenvalue gap near {near:.3e}")
    found: list[GammaIrrep] = []
    copies: list[int] = []
    for idx in blocks:
        basis = v[:, idx]
        char = np.einsum("ij,gjk,ki->g", basis.T, mats, basis)
        for r, known in enumerate(found):
            if known.dim == len(idx) and np.allclose(known.character, char,
                                                     atol=1e-5):
                copies[r] += 1
                break
        else:
            norm_sq = float(char @ char) / n
            if not any(abs(norm_sq - t) < INTEGRALITY_TOL for t in (1, 2, 4)):
                raise _RetryDecomposition(
                    f"character norm {norm_sq:.6f} is not 1, 2 or 4")
            found.append(GammaIrrep("U?", len(idx), char, round(norm_sq),
                                    basis, action))
            copies.append(1)
    if sum(r.dim * c for r, c in zip(found, copies)) != k:
        raise _RetryDecomposition("dimensions of extracted irreps do not add up")
    order = sorted(range(len(found)),
                   key=lambda r: (found[r].dim,
                                  tuple(-np.round(found[r].character, 6))))
    out = []
    for new_label, r in enumerate(order):
        rep = found[r]
        out.append(GammaIrrep(f"U{new_label}", rep.dim, rep.character,
                              rep.norm_sq, rep.basis, rep.action))
    return out


def isotypic_multiplicity(irrep: GammaIrrep, space_character: np.ndarray) -> int:
    """Multiplicity of the irrep in an invariant subspace with this character."""
    n = irrep.character.size
    raw = float(irrep.character @ space_character) / n / irrep.norm_sq
    nearest = round(raw)
    if abs(raw - nearest) > 1e-5 or nearest < 0:
        raise ValidationError(f"non-integral isotypic multiplicity {raw!r}")
    return nearest


# ---------------------------------------------------------------------------
# product irreps used by degree computations

@dataclass(eq=False)
class MinusIrrep:
    """Irrep (spatial irrep) x (dihedral irrep) x (antipodal sign character).

    This is the only kind of irrep entering degree products: the sign
    factor acts by -1, matching the oddness of the maps whose degrees are
    composed.
    """

    group: FiniteGroup
    gamma: GammaIrrep
    time: TimeIrrep
    label: str
    dim: int
    character: np.ndarray

    def matrix(self, g: int) -> np.ndarray:
        a, b, e = split_ids(g, self.time.m)
        return (1 - 2 * e) * np.kron(self.gamma.matrix(a), self.time.matrix(b))


def split_ids(ids, m: int):
    """(Gamma, D_m, Z2) components of ids of Gamma x (D_m x Z2).

    direct_product numbers (a, b) as a * right.order + b, so an id of
    Gamma x (D_m x Z2) is gamma * 4m + 2 d + e, with e = 1 for the sign
    -1.  D_m x Z2 itself is the case of trivial Gamma (gamma = 0).
    """
    rest = ids % (4 * m)
    return ids // (4 * m), rest // 2, rest % 2


def minus_irrep(group: FiniteGroup, gamma: GammaIrrep, time: TimeIrrep) -> MinusIrrep:
    if group.order != gamma.character.size * 4 * time.m:
        raise ValidationError("group is not of the form Gamma x D_m x Z2 or D_m x Z2")
    a, b, e = split_ids(np.arange(group.order), time.m)
    sign = 1.0 - 2.0 * e
    char = sign * gamma.character[a] * time.character[b]
    label = f"{time.label}-" if gamma.label == "U0" and gamma.dim == 1 \
        and gamma.character.size == 1 else f"{time.label}x{gamma.label}-"
    return MinusIrrep(group, gamma, time, label, gamma.dim * time.dim, char)


# ---------------------------------------------------------------------------
# fixed points and orbit types

def fixed_point_dim(character: np.ndarray, ids: np.ndarray) -> int:
    """dim of the fixed subspace of the subgroup with these element ids.

    The independent route of tests and perfbench/checks.py to fixed_dims.
    """
    raw = float(np.sum(character[ids])) / len(ids)
    nearest = round(raw)
    if abs(raw - nearest) > INTEGRALITY_TOL:
        raise ValidationError(f"fixed point dimension {raw!r} is not integral")
    return nearest


def fixed_dims(poset: SubgroupPoset, character: np.ndarray) -> np.ndarray:
    """dim V^H for every class (H), in class order, where V has this character."""
    raw = poset.masks @ np.asarray(character, dtype=float) / poset.orders
    nearest = np.rint(raw)
    bad = np.flatnonzero(~(np.abs(raw - nearest) <= INTEGRALITY_TOL))
    if bad.size:
        raise ValidationError(f"fixed point dimension {float(raw[bad[0]])!r} "
                              "is not integral")
    return nearest.astype(np.int64)


def orbit_types(poset: SubgroupPoset, dims: np.ndarray) -> list[int]:
    """Isotropy classes of the nonzero vectors of V, where dims[H] = dim V^H.

    (H) is an orbit type iff the H-fixed subspace is nonzero and strictly
    larger than the K-fixed subspace for every class (K) > (H): a real
    vector space is never a finite union of proper subspaces.
    """
    # row H counts the classes (K) >= (H) with dim V^K >= dim V^H; (H) is one
    not_smaller = (poset.leq & (dims[None, :] >= dims[:, None])).sum(axis=1)
    return np.flatnonzero((dims > 0) & (not_smaller == 1)).tolist()


def maximal_orbit_types(poset: SubgroupPoset, dims: np.ndarray) -> list[int]:
    return poset.maximal_elements(orbit_types(poset, dims))
