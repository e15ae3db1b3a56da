"""Bifurcation invariants along a one-parameter path of linearizations.

Shifting the linearization by a parameter alpha moves the block eigenvalue
of frequency j over mu through zero at the critical value

    alpha(j, mu) = mu + j^2 / m^2,

so the critical set of the trivial branch is the grid of these values over
the spectrum of A.  At each critical value alpha0 the local invariant is
the Burnside-ring jump of the degree across alpha0,

    omega(alpha0) = deg(alpha0 - eps) - deg(alpha0 + eps)
                  = prefix * ((G) - block(alpha0)),

where prefix multiplies the degrees of all blocks crossed strictly below
alpha0 and block(alpha0) collects the blocks crossing at alpha0 itself.
In mark coordinates this is one solve (burnside.py): with P and B the
vectors dim V^H of the prefix and crossing blocks,

    mark_H(omega) = (-1)^{P_H} (1 - (-1)^{B_H}).

Fixed dimensions add over blocks, so one walk over the critical points in
increasing order keeps P as a running sum, adding each block once.  The
prefix runs over every earlier critical value, not just those inside a
reporting window, so each omega depends only on data at and before its
own critical point.  A nonzero omega forces a branch of nontrivial
solutions bifurcating from (alpha0, 0), with symmetries at least the
classes carrying nonzero coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .burnside import BurnsideElement
from .errors import ValidationError
from .groups import frequency_count
from .spectral import (EigenvalueEntry, ProblemConfig, SpectralTable,
                       SymmetryContext, block_dims, block_terms,
                       context_for, matrix_spectrum)


@dataclass(frozen=True)
class CriticalPoint:
    """One merged critical value with everything crossing there."""

    alpha: float
    contributions: tuple[tuple[int, float], ...]   # (j, mu), sigma ordering
    crossing_multiplicities: tuple[tuple[str, int], ...]
    simple: bool                                   # one (j, mu), simple mu
    alpha_exact: Fraction | None = None


@dataclass
class BifurcationInvariant:
    point: CriticalPoint
    omega: BurnsideElement
    nonzero: bool
    odd_crossing: bool
    branch_types: list[tuple[str, int]]


@dataclass
class BifurcationReport:
    window: tuple[float, float]
    invariants: list[BifurcationInvariant]


def default_window(table: SpectralTable) -> tuple[float, float]:
    lo = min(e.mu for e in table.eigenvalues) - 1.0
    return (lo, 0.0)


def critical_values(ctx: SymmetryContext, table: SpectralTable,
                    window: tuple[float, float] | None = None,
                    tol: float | None = None) -> list[CriticalPoint]:
    """All alpha(j, mu) in the half-open window, coincidences merged."""
    if window is None:
        window = default_window(table)
    lo, hi = window
    if not lo < hi:
        raise ValidationError("empty parameter window")
    if tol is None:
        tol = ctx.config.tolerance
    m = ctx.m
    raw: list[tuple[float, int, EigenvalueEntry, Fraction | None]] = []
    for e in table.eigenvalues:
        frequency_count(m * m * (hi - e.mu),
                        f"critical values below {hi!r} at mu={e.mu!r}")
        j = 0
        while e.mu + j * j / (m * m) < hi:
            alpha = e.mu + j * j / (m * m)
            if alpha >= lo:
                exact = (e.mu_exact + Fraction(j * j, m * m)
                         if e.mu_exact is not None else None)
                raw.append((alpha, j, e, exact))
            j += 1
    raw.sort(key=lambda t: (t[0], t[1]))
    points: list[CriticalPoint] = []
    group: list[tuple[float, int, EigenvalueEntry, Fraction | None]] = []
    for item in raw:
        if group and item[0] - group[0][0] > tol:
            points.append(_merge(ctx, group))
            group = []
        group.append(item)
    if group:
        points.append(_merge(ctx, group))
    return points


def _merge(ctx: SymmetryContext,
           group: list[tuple[float, int, EigenvalueEntry, Fraction | None]]
           ) -> CriticalPoint:
    group = sorted(group, key=lambda t: (t[2].mu, t[1]))
    mults: dict[str, int] = {}
    for _alpha, j, entry, _ex in group:
        for i, l, gmult in block_terms(ctx.m, j, entry):
            label = ctx.minus[i, l].label
            mults[label] = mults.get(label, 0) + gmult
    simple = len(group) == 1 and group[0][2].mult == 1
    exacts = {ex for *_xs, ex in group}
    exact = exacts.pop() if len(exacts) == 1 else None
    return CriticalPoint(
        alpha=float(np.mean([a for a, *_rest in group])),
        contributions=tuple((j, entry.mu) for _a, j, entry, _e in group),
        crossing_multiplicities=tuple(sorted(mults.items())),
        simple=simple,
        alpha_exact=exact)


def local_invariant(ctx: SymmetryContext, table: SpectralTable,
                    point: CriticalPoint, tol: float | None = None,
                    strict: bool = False) -> BifurcationInvariant:
    return _walk(ctx, table, [point], tol, strict)[0]


def _walk(ctx: SymmetryContext, table: SpectralTable,
          points: list[CriticalPoint], tol: float | None = None,
          strict: bool = False) -> list[BifurcationInvariant]:
    """Invariants at points in increasing alpha, with one running prefix.

    next_j[t] is the first frequency over eigenvalue t not yet in prefix.
    """
    if tol is None:
        tol = ctx.config.tolerance
    m = ctx.m
    if points:   # the prefix stays below the last point
        for e in table.eigenvalues:
            frequency_count(m * m * (points[-1].alpha - e.mu),
                            f"prefix below {points[-1].alpha!r} at mu={e.mu!r}")
    prefix = np.zeros(len(ctx.poset), dtype=np.int64)
    next_j = [0] * len(table.eigenvalues)
    out = []
    for point in points:
        if strict and len(point.contributions) > 1:
            raise ValidationError("ambiguous crossing: several (j, mu) pairs "
                                  f"coincide at alpha={point.alpha!r}")
        for t, e in enumerate(table.eigenvalues):
            j = next_j[t]
            while e.mu + j * j / (m * m) < point.alpha - tol:
                prefix += block_dims(ctx, j, e)
                j += 1
            next_j[t] = j
        block = sum(block_dims(ctx, j, table.entry(mu))
                    for j, mu in point.contributions)
        # marks of prefix_degree * ((G) - block_degree)
        omega = BurnsideElement.from_marks(
            ctx.poset, (1 - 2 * (prefix % 2)) * (2 * (block % 2)))
        odd = point.simple and all(v % 2 == 1
                                   for _k, v in point.crossing_multiplicities)
        out.append(BifurcationInvariant(point=point, omega=omega,
                                        nonzero=bool(omega.support()),
                                        odd_crossing=odd,
                                        branch_types=omega.to_pairs()))
    return out


def bifurcation_report(config: ProblemConfig,
                       ctx: SymmetryContext | None = None,
                       window: tuple[float, float] | None = None
                       ) -> BifurcationReport:
    """Critical values in the window with their local invariants.

    The odd-crossing shortcut marks points where a simple eigenvalue
    crosses with every irrep multiplicity odd; such a point must carry a
    nonzero invariant, which the computed omega confirms independently.
    """
    ctx = context_for(config, ctx)
    table = matrix_spectrum(config, ctx)
    if window is None:
        window = default_window(table)
    points = critical_values(ctx, table, window, config.tolerance)
    invs = _walk(ctx, table, points, config.tolerance)
    for inv in invs:
        if inv.odd_crossing and not inv.nonzero:
            raise ValidationError("odd-crossing shortcut contradicts a zero "
                                  f"invariant at alpha={inv.point.alpha!r}")
    return BifurcationReport(window=window, invariants=invs)
