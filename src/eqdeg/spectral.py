"""Spectral pipeline for subharmonic existence degrees.

A problem configuration fixes the period multiplier m, the phase-space
dimension k, an optional spatial symmetry group acting by coordinate
permutations, and a symmetric linearization matrix A commuting with that
action.  On the Fourier mode of frequency j over an eigenvalue mu of A,
the linearized operator acts as the scalar

    lambda(j, mu) = 1 + m^2 (mu - 1) / (j^2 + m^2),

so only finitely many (j, mu) blocks are negative.  Each block carries
the dihedral irreps folded from frequency j tensored with the spatial
irreps of the mu-eigenspace; the degree of -id over the direct sum of
all negative blocks, subtracted from the unit, is the existence degree.
Nonzero coefficients at maximal orbit types of the function space then
guarantee whole orbits of 2 pi m periodic solutions.

The counter eta[i] counts the negative blocks whose frequency folds onto
the dihedral irrep i, with multiplicity, and rho sums eta over planar
indices sharing their gcd with m; their parities feed the shortcuts for
trivial spatial symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .burnside import BurnsideElement
from .errors import InputError, ValidationError
from .groups import (FiniteGroup, PermutationAction, check_order,
                     dihedral_rotation_action, direct_product,
                     frequency_count, make_dihedral, make_permutation_group,
                     make_sign_group)
from .lattice import SubgroupPoset, subgroup_poset
from .reps import (DEFAULT_SEED, GammaIrrep, MinusIrrep, cluster_eigenvalues,
                   fixed_dims, fold_frequency, gamma_irreps_in,
                   isotypic_multiplicity, maximal_orbit_types, minus_irrep,
                   split_ids, time_irrep_indices, time_irreps,
                   trivial_gamma_irrep)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class GammaSpec:
    """Spatial symmetry: trivial, dihedral on n vertices, or raw generators."""

    type: str = "trivial"
    n: int = 0
    generators: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class ProblemConfig:
    """One subharmonic problem: period multiplier, symmetry, linearization.

    Either a_matrix (dense symmetric, commuting with the spatial action)
    or an exact spectrum list of (eigenvalue, multiplicity) pairs must be
    given; the exact form is only meaningful for trivial spatial symmetry
    and bypasses floating-point clustering entirely.
    """

    m: int
    k: int
    gamma: GammaSpec = GammaSpec()
    a_matrix: tuple[tuple[float, ...], ...] | None = None
    spectrum: tuple[tuple[Fraction, int], ...] | None = None
    tolerance: float = 1e-9
    nagumo_assumed: bool = True
    seed: int = DEFAULT_SEED


def validate_problem(config: ProblemConfig) -> None:
    if config.m < 2:
        raise ValidationError("period multiplier m must be an integer >= 2")
    if config.k < 1:
        raise ValidationError("phase-space dimension k must be >= 1")
    if (config.a_matrix is None) == (config.spectrum is None):
        raise ValidationError("exactly one of a_matrix and spectrum is required")
    if config.spectrum is not None and config.gamma.type != "trivial":
        raise ValidationError("an exact spectrum cannot carry spatial "
                              "isotypic data; supply a_matrix instead")
    seen: set[Fraction] = set()
    for t, (mu, mult) in enumerate(config.spectrum or ()):
        if mult < 1:
            raise InputError(f"spectrum[{t}]: multiplicity {mult} is below 1")
        if Fraction(mu) in seen:
            raise InputError(f"spectrum[{t}]: eigenvalue {Fraction(mu)} is "
                             "listed twice")
        seen.add(Fraction(mu))
    if config.tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    if config.seed < 0:
        raise InputError("seed must be a nonnegative integer")
    if config.gamma.type not in ("trivial", "dihedral", "permutation"):
        raise InputError(f"unknown symmetry type {config.gamma.type!r}")


# ---------------------------------------------------------------------------
# symmetry context: the ambient group and its irreps

@dataclass(eq=False)
class SymmetryContext:
    """The ambient group, its lattice and irreps.

    minus[i, l] is the sign-twisted irrep of dihedral index i and spatial
    irrep l, and dims[i, l] its dim V^H for every class (H), built once
    per context.  Each occurs in the function space, so maximal_types
    are the maximal orbit types of the sum of all dims[i, l].
    """

    config: ProblemConfig
    group: FiniteGroup
    poset: SubgroupPoset
    gamma_action: PermutationAction | None
    gamma_irreps: tuple[GammaIrrep, ...]
    minus: dict[tuple[int, int], MinusIrrep]
    dims: dict[tuple[int, int], np.ndarray]
    maximal_types: list[int]

    @property
    def m(self) -> int:
        return self.config.m


def build_symmetry_context(config: ProblemConfig) -> SymmetryContext:
    validate_problem(config)
    spec = config.gamma
    check_order(4 * config.m * (2 * spec.n if spec.type == "dihedral" else 1),
                "group")
    base = direct_product(make_dihedral(config.m), make_sign_group(),
                          name=f"D{config.m} x Z2")
    if spec.type == "trivial":
        group: FiniteGroup = base
        action: PermutationAction | None = None
        irreps: tuple[GammaIrrep, ...] = (trivial_gamma_irrep(),)
    else:
        if spec.type == "dihedral":
            if spec.n < 1:
                raise ValidationError("dihedral symmetry needs n >= 1")
            gamma_group = make_dihedral(spec.n)
            action = dihedral_rotation_action(gamma_group)
        else:
            gamma_group, action = make_permutation_group(config.k,
                                                         spec.generators)
        if action.degree != config.k:
            raise ValidationError(f"spatial action degree {action.degree} "
                                  f"does not match k={config.k}")
        group = direct_product(gamma_group, base,
                               name=f"{gamma_group.name} x ({base.name})")
        irreps = tuple(gamma_irreps_in(action, seed=config.seed))
    minus = {(t.index, l): minus_irrep(group, gamma, t)
             for t in time_irreps(config.m) for l, gamma in enumerate(irreps)}
    poset = subgroup_poset(group)
    dims = {key: fixed_dims(poset, irr.character) for key, irr in minus.items()}
    return SymmetryContext(config, group, poset, action, irreps, minus, dims,
                           maximal_orbit_types(poset, sum(dims.values())))


# ---------------------------------------------------------------------------
# spectrum of A and of the linearized operator

@dataclass(frozen=True)
class EigenvalueEntry:
    mu: float
    mult: int
    gamma_mults: tuple[int, ...]
    mu_exact: Fraction | None = None


@dataclass
class SpectralTable:
    eigenvalues: list[EigenvalueEntry]
    negative_lambdas: list[tuple[int, float, float]] = field(default_factory=list)
    eta: dict[int, int] = field(default_factory=dict)
    rho: dict[int, int] = field(default_factory=dict)

    def entry(self, mu: float) -> EigenvalueEntry:
        for e in self.eigenvalues:
            if e.mu == mu:
                return e
        raise ValidationError(f"{mu!r} is not a tabulated eigenvalue")


def matrix_spectrum(config: ProblemConfig,
                    ctx: SymmetryContext) -> SpectralTable:
    """Eigenvalues of A with clustering and spatial isotypic multiplicities."""
    if config.spectrum is not None:
        entries = [EigenvalueEntry(float(mu), int(mult), (int(mult),),
                                   Fraction(mu))
                   for mu, mult in config.spectrum]
        entries.sort(key=lambda e: e.mu)
        if sum(e.mult for e in entries) != config.k:
            raise ValidationError("spectrum multiplicities do not sum to k")
        return SpectralTable(eigenvalues=entries)

    a = np.asarray(config.a_matrix, dtype=float)
    if a.shape != (config.k, config.k):
        raise ValidationError(f"A must be {config.k}x{config.k}")
    if not np.allclose(a, a.T, atol=config.tolerance):
        raise ValidationError("assumption (A5) violated: linearization "
                              "matrix A is not symmetric")
    if ctx.gamma_action is not None:
        for g in range(ctx.gamma_action.group.order):
            p = ctx.gamma_action.matrix(g)
            if not np.allclose(p @ a, a @ p, atol=1e-8):
                raise ValidationError("assumption (A4) violated: A does not "
                                      "commute with the spatial symmetry "
                                      "action")
    w, v = np.linalg.eigh(a)
    # every cluster mean below must stay finite
    if not math.isfinite(float(np.abs(w).max()) * len(w)):
        raise ValidationError("eigenvalues of A exceed the floating-point range")
    blocks, near = cluster_eigenvalues(w)
    if near is not None:
        raise ValidationError("eigenvalue clustering is ambiguous "
                              f"near {near:.6e}; supply exact data")
    entries = []
    for idx in blocks:
        mu = float(np.mean(w[idx]))
        mult = len(idx)
        if ctx.gamma_action is None:
            gm: tuple[int, ...] = (mult,)
        else:
            basis = v[:, idx]
            mats = ctx.gamma_action.matrices()
            char = np.einsum("ij,gjk,ki->g", basis.T, mats, basis)
            gm = tuple(isotypic_multiplicity(r, char) for r in ctx.gamma_irreps)
            if sum(c * r.dim for c, r in zip(gm, ctx.gamma_irreps)) != mult:
                raise ValidationError("eigenspace does not decompose into "
                                      "the spatial irreps found in R^k")
        entries.append(EigenvalueEntry(mu, mult, gm))
    return SpectralTable(eigenvalues=entries)


def lambda_value(j: int, mu, m: int):
    """Eigenvalue of the linearized operator on frequency j over mu."""
    return 1 + (m * m) * (mu - 1) / (j * j + m * m)


def check_nondegeneracy(table: SpectralTable, m: int,
                        tol: float = 1e-9) -> list[tuple[int, float]]:
    """(j, mu) pairs with j^2/m^2 + mu within tol of zero (lambda = 0)."""
    out = []
    for e in table.eigenvalues:   # only j near sqrt(-m^2 mu) can qualify
        scaled = m * m * e.mu
        if not math.isfinite(scaled):
            raise ValidationError("assumption (A5) cannot be checked: "
                                  f"m^2 mu overflows at mu={e.mu!r}")
        blocks = frequency_count(-scaled, f"negative blocks at mu={e.mu!r}")
        for j in range(blocks + 2):
            if abs(j * j / (m * m) + e.mu) <= tol:
                out.append((j, e.mu))
    return out


def count_eta_rho(table: SpectralTable, m: int) -> SpectralTable:
    """Per-irrep occurrence counters over the negative spectrum.

    eta[i] counts the negative blocks (j, mu) whose frequency j folds onto
    the dihedral irrep index i, each weighted by the multiplicity of mu;
    rho groups planar eta's by gcd with m, because basic degrees coincide
    exactly on those gcd classes.
    """
    indices = time_irrep_indices(m)
    table.eta = dict.fromkeys(indices, 0)
    for j, mu, _lam in table.negative_lambdas:
        for i in fold_frequency(j, m):
            table.eta[i] += table.entry(mu).mult
    table.rho = {}
    for i in indices:
        if 0 < i < m / 2:
            h = math.gcd(i, m)
            table.rho[i] = sum(table.eta[i2] for i2 in indices
                               if 0 < i2 < m / 2 and math.gcd(i2, m) == h)
        else:
            table.rho[i] = table.eta[i]
    return table


def spectral_table(config: ProblemConfig, ctx: SymmetryContext) -> SpectralTable:
    """Full table: spectrum, nondegeneracy, negative lambdas, counters."""
    table = matrix_spectrum(config, ctx)
    if sum(e.mult for e in table.eigenvalues) != config.k:
        raise ValidationError("eigenvalue multiplicities do not sum to k")
    bad = check_nondegeneracy(table, config.m, config.tolerance)
    if bad:
        j, mu = bad[0]
        raise ValidationError("assumption (A5) violated: degenerate "
                              f"linearization, lambda(j, mu) = 0 at j={j}, "
                              f"mu={mu!r}")
    m = config.m
    for e in table.eigenvalues:   # the negative blocks: j^2 < -m^2 mu
        for j in range(frequency_count(-m * m * e.mu,
                                       f"negative blocks at mu={e.mu!r}")):
            table.negative_lambdas.append((j, e.mu, float(lambda_value(j, e.mu, m))))
    return count_eta_rho(table, m)


# ---------------------------------------------------------------------------
# degrees and interpretation

def block_terms(m: int, j: int, entry: EigenvalueEntry):
    """(i, l, multiplicity) of each irrep minus[i, l] in the (j, mu) block."""
    for l, mult in enumerate(entry.gamma_mults):
        if mult:
            for i in fold_frequency(j, m):
                yield i, l, mult


def block_dims(ctx: SymmetryContext, j: int, entry: EigenvalueEntry) -> np.ndarray:
    """dim V^H of the (j, mu) eigenspace for every class (H), in integers."""
    return sum(mult * ctx.dims[i, l] for i, l, mult in block_terms(ctx.m, j, entry))


def eigenspace_character(ctx: SymmetryContext, j: int,
                         entry: EigenvalueEntry) -> np.ndarray:
    """Character of the (j, mu) eigenspace of the linearized operator.

    Reports read block_dims; this float route stays as the independent
    check of tests and perfbench/checks.py.
    """
    total = np.zeros(ctx.group.order)
    for i, l, mult in block_terms(ctx.m, j, entry):
        total += mult * ctx.minus[i, l].character
    return total


@dataclass(frozen=True)
class SolutionGuarantee:
    orbit_type: str
    orbit_size: int
    nonconstant: bool
    minimal_period_exceeds_base: bool


@dataclass
class DegreeReport:
    degree: BurnsideElement
    product_part: BurnsideElement
    nonzero_terms: list[tuple[str, int]]
    maximal_orbit_types: list[str]
    guarantees: list[SolutionGuarantee]
    table: SpectralTable
    total_solutions: int


def interpret(ctx: SymmetryContext, degree: BurnsideElement,
              maximal_indices: list[int] | None = None) -> list[SolutionGuarantee]:
    """Solution guarantees read off the degree.

    A nonzero coefficient at a class that is maximal among the orbit
    types of the function space pins the isotropy of a solution exactly,
    so the whole orbit G/H consists of distinct solutions.  A solution
    class is nonconstant when no conjugate contains the embedded time
    symmetries (a constant function is fixed by every time shift and
    reflection), and its minimal period exceeds the base period when the
    isotropy couples a nontrivial time element with the antipodal map.
    """
    poset = ctx.poset
    if maximal_indices is None:
        maximal_indices = ctx.maximal_types
    m = ctx.m
    time_ids = [2 * b for b in range(2 * m)]
    out = []
    for i in sorted(set(int(x) for x in maximal_indices), reverse=True):
        c = degree.coefficient(i)
        if c == 0:
            continue
        cls = poset.classes[i]
        contains_time = any(bool(mask[time_ids].all())
                            for mask in cls.orbit_masks)
        _gamma, d, e = split_ids(cls.ids, m)
        flips = (e == 1) & (d != 0)
        out.append(SolutionGuarantee(cls.name, poset.group.order // cls.order,
                                     not contains_time, bool(flips.any())))
    return out


def existence_degree(config: ProblemConfig,
                     ctx: SymmetryContext | None = None) -> DegreeReport:
    """Degree of the full nonlinear problem and its solution guarantees."""
    if ctx is None:
        ctx = build_symmetry_context(config)
    table = spectral_table(config, ctx)
    dims = np.zeros(len(ctx.poset), dtype=np.int64)
    for j, mu, _lam in table.negative_lambdas:
        dims += block_dims(ctx, j, table.entry(mu))
    product_part = BurnsideElement.from_marks(ctx.poset, 1 - 2 * (dims % 2))
    degree = BurnsideElement.unit(ctx.poset) - product_part
    guarantees = interpret(ctx, degree)
    return DegreeReport(
        degree=degree,
        product_part=product_part,
        nonzero_terms=degree.to_pairs(),
        maximal_orbit_types=[ctx.poset.classes[i].name
                             for i in sorted(ctx.maximal_types, reverse=True)],
        guarantees=guarantees,
        table=table,
        total_solutions=sum(g.orbit_size for g in guarantees))


# ---------------------------------------------------------------------------
# parity shortcuts (trivial spatial symmetry)

@dataclass(frozen=True)
class ParityPrediction:
    """At least one candidate class carries a nonzero degree coefficient."""

    candidates: tuple[str, ...]
    source: str


def parity_predictions(table: SpectralTable, m: int) -> list[ParityPrediction]:
    """Orbit types forced by the parities of the rho counters.

    Valid over D_m x Z2 (trivial spatial symmetry).  Odd rho at an index
    whose basic degree has a mark of -1 at an index-2 subgroup forces
    that coefficient outright; the remaining cases follow from maximality
    of the named classes in the function space, with a two-candidate
    hedge where cancellation against a larger class is possible.
    """
    s = (m + 1) // 2
    rho = table.rho
    out = []
    if rho.get(0, 0) % 2 == 1:
        out.append(ParityPrediction((f"D{m}",), "rho[0] odd"))
    if rho.get(s, 0) % 2 == 1:
        out.append(ParityPrediction((f"D{m}^z",), f"rho[{s}] odd"))
    for p in range(3, m + 1, 2):
        if m % p or not _is_prime(p):
            continue
        ml = m // p
        if 0 < ml < m / 2 and rho.get(ml, 0) % 2 == 1:
            out.append(ParityPrediction((f"D{ml}^z", f"D{m}^z"),
                                        f"rho[{ml}] odd"))
    if m % 2 == 0:
        if rho.get(s + 1, 0) % 2 == 1:
            out.append(ParityPrediction((f"D{m}^d",), f"rho[{s + 1}] odd"))
        if rho.get(s + 2, 0) % 2 == 1:
            out.append(ParityPrediction((f"D{m}^dh",), f"rho[{s + 2}] odd"))
        e0 = (m & -m).bit_length() - 1
        for k in range(2, e0 + 1):
            i = m >> k
            if i >= 1 and rho.get(i, 0) % 2 == 1:
                half = m >> (k - 1)
                out.append(ParityPrediction((f"D{half}^d",),
                                            f"rho[{i}] odd"))
                out.append(ParityPrediction((f"~D{half}^d",),
                                            f"rho[{i}] odd"))
    return out


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
