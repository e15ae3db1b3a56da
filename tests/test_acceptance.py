"""Release gate: the twelve numbered targets, one pass/fail line each.

Each test checks one target for the two worked configurations (m = 3
and m = 4 with D3 permuting the coordinates of R^3) or for the
scale-free algebraic properties, prints a single line

    criterion N: PASS
    criterion N: FAIL <what differs>

and then asserts.  Targets 7 and 9 once pinned a hand-transcribed
reference with a nonzero coefficient at the index-2 class Gamma x D_m
((D3 x D3) = -1 for m = 3).  No existence degree can have it: every
mark is 0 or 2, so an index-2 coefficient is 0 or 1, and that class
fixes an even-dimensional subspace of the negative modes, so its
coefficient is 0.  The corrected values are derived in the two tests'
docstrings and rest on the Fourier-mode oracle test in test_spectral.py,
which builds the group action on each mode without irreps, characters
or the fold rule.
"""

from fractions import Fraction

import numpy as np

from eqdeg.burnside import BurnsideElement
from eqdeg.degrees import basic_degree, degree_for_character
from eqdeg.groups import direct_product, make_dihedral, make_sign_group
from eqdeg.lattice import subgroup_poset
from eqdeg.reps import (fixed_dims, maximal_orbit_types, minus_irrep,
                        orbit_types, time_irrep, time_irrep_indices,
                        trivial_gamma_irrep)
from eqdeg.spectral import (ProblemConfig, build_symmetry_context,
                            existence_degree, parity_predictions,
                            spectral_table)
from eqdeg.bifurcation import bifurcation_report

from .conftest import case_config
from .oracles import closed_form_basic_degree, isotropy_oracle, multiply_oracle
from .test_spectral import SIGMA_M3, SIGMA_M4


def _report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {n}: {status}"
    if detail and not ok:
        line += f"  {detail}"
    print(line)
    assert ok, detail


def _base(m):
    group = direct_product(make_dihedral(m), make_sign_group())
    return group, subgroup_poset(group)


def test_criterion_01_lattice_cardinalities(ctx_m3, ctx_m4):
    got = (len(ctx_m3.poset), len(ctx_m4.poset))
    _report(1, got == (69, 236), f"class counts {got}, expected (69, 236)")


def test_criterion_02_irrep_counts():
    gamma = len(time_irrep_indices(3))        # real irreps of D3
    got = tuple(gamma * len(time_irrep_indices(m)) * 2 for m in (3, 4))
    _report(2, got == (18, 30), f"irrep counts {got}, expected (18, 30)")


def test_criterion_03_closed_forms():
    bad = []
    for m in (3, 4, 5, 6, 8):
        group, poset = _base(m)
        for i in time_irrep_indices(m):
            irr = minus_irrep(group, trivial_gamma_irrep(), time_irrep(m, i))
            if basic_degree(poset, irr) != closed_form_basic_degree(poset, m, i):
                bad.append((m, i))
    _report(3, not bad, f"closed form mismatches at {bad}")


def test_criterion_04_involutions(ctx_m3):
    bad = []
    for m in (3, 4, 5, 6, 8):
        group, poset = _base(m)
        unit = BurnsideElement.unit(poset)
        for i in time_irrep_indices(m):
            d = basic_degree(poset, minus_irrep(
                group, trivial_gamma_irrep(), time_irrep(m, i)))
            if d * d != unit:
                bad.append(("base", m, i))
    unit = BurnsideElement.unit(ctx_m3.poset)
    for i in time_irrep_indices(3):
        for l in range(len(ctx_m3.gamma_irreps)):
            d = basic_degree(ctx_m3.poset, ctx_m3.minus[i, l])
            if d * d != unit:
                bad.append(("product", i, l))
    _report(4, not bad, f"non-involutive degrees at {bad}")


def test_criterion_05_burnside_oracle(ctx_m3):
    bad = []

    def check(poset, i, j):
        left = BurnsideElement(poset, {i: 1}) * BurnsideElement(poset, {j: 1})
        if left != multiply_oracle(poset, i, j):
            bad.append((poset.group.name, i, j))

    for group in (direct_product(make_dihedral(3), make_sign_group()),
                  make_dihedral(4)):
        poset = subgroup_poset(group)
        for i in range(len(poset)):
            for j in range(i, len(poset)):
                check(poset, i, j)
    rng = np.random.default_rng(12345)
    for _ in range(200):
        i, j = (int(x) for x in rng.integers(0, len(ctx_m3.poset), size=2))
        check(ctx_m3.poset, i, j)
    _report(5, not bad, f"recurrence/orbit-count disagreement at {bad}")


def test_criterion_06_negative_spectra(ctx_m3, ctx_m4):
    bad = []
    for m, ctx, expected in ((3, ctx_m3, SIGMA_M3), (4, ctx_m4, SIGMA_M4)):
        table = spectral_table(case_config(m), ctx)
        got = table.negative_lambdas
        if len(got) != len(expected):
            bad.append((m, "count", len(got)))
            continue
        for (j, mu, lam), (ej, emu, elam) in zip(got, expected):
            if j != ej or abs(mu - emu) > 1e-9 or abs(lam - float(elam)) > 1e-9:
                bad.append((m, j, mu, lam))
    _report(6, not bad, f"sigma mismatches {bad}")


def test_criterion_07_existence_degree_m3(ctx_m3):
    """Coefficients of (G) - prod deg_V for m = 3, where G = D3 x D3 x Z2.

    Every mark is 1 - (-1)^{dim V^H}, V the negative modes.  (e, e, -1)
    negates every mode, so V^G = 0 and the mark and coefficient at (G)
    are 0.  An index-2 class H has |W(H)| = 2 and only (G) above it, so
    its coefficient is mark_H / 2, which is 0 or 1.  H is the kernel of
    a character chi of G, and dim V^H is the multiplicity of chi in V.
    For D3 x D3, chi is trivial on D3 x D3 and -1 on (e, e, -1); it
    occurs in the constant (j = 0) and cos t (j = 3) modes along
    (1, 1, 1), mu = -2, and not over mu = -1/2, which has no
    Gamma-fixed vector.  So dim V^H = 2, the coefficient is 0, and the
    degree has 14 nonzero terms.
    """
    expected = {"D3 x D3": 0, "D3 x D3^z": 1, "D3 x D1^z": -1,
                "D3 x D1": 1, "D1 x D3": 1, "Z1 x D3": -1,
                "D1 x D1": -2, "D1 x_{Z2}^{D3} D3^p": 1}
    report = existence_degree(case_config(3), ctx_m3)
    nz = dict(report.nonzero_terms)
    problems = []
    if len(nz) != 14:
        problems.append(f"{len(nz)} nonzero terms, expected 14")
    for name, coeff in expected.items():
        if nz.get(name, 0) != coeff:
            problems.append(f"({name}) = {nz.get(name, 0)}, expected {coeff}")
    _report(7, not problems, "; ".join(problems))


def test_criterion_08_maximal_orbit_types(ctx_m3, ctx_m4):
    problems = []
    report = existence_degree(case_config(3), ctx_m3)
    expected3 = {"D3 x D3", "D3 x D3^z",
                 "D1 x_{Z2}^{D3} D3^p", "D1 x_{Z2}^{D3^z} D3^p"}
    if set(report.maximal_orbit_types) != expected3:
        problems.append(f"m=3 set {sorted(report.maximal_orbit_types)}")

    # m = 4 ambient carries every irrep of the spatial group, including the
    # sign character that the coordinate action itself never reaches
    m, nb = 4, 16
    signvec = np.where(np.arange(ctx_m4.group.order) // nb < 3, 1.0, -1.0)
    char = np.zeros(ctx_m4.group.order)
    for i in time_irrep_indices(m):
        char += ctx_m4.minus[i, 0].character + ctx_m4.minus[i, 1].character
        char += signvec * ctx_m4.minus[i, 0].character
    names = {ctx_m4.poset.classes[i].name
             for i in maximal_orbit_types(ctx_m4.poset,
                                          fixed_dims(ctx_m4.poset, char))}
    required4 = {"D3 x D2^d", "D3 x ~D2^d", "D3^{Z3} x_{Z2}^{D4} D4^p",
                 "D3 x D4^d", "D3 x D4^dh", "D3 x D4^z"}
    if not required4 <= names:
        problems.append(f"m=4 missing {sorted(required4 - names)}")
    _report(8, not problems, "; ".join(problems))


def test_criterion_09_solution_counts(ctx_m3, ctx_m4):
    """Orbit sizes of the guarantees: nonzero coefficients at maximal types.

    At a maximal type H the coefficient is (1 - (-1)^{dim V^H}) / |W(H)|
    (see criterion 7), and every maximal type here has |W(H)| = 2, so H
    is a guarantee exactly when dim V^H is odd.  An index-2 class is the
    kernel of a character chi, and dim V^H is the multiplicity of chi in
    the negative modes, all along (1, 1, 1), mu = -2.  Write chi as the
    signs (r, s) of the time shift and reversal, with the sign factor -1.
    m = 3: (r+, s-) occurs once (sin t, j = 3), so D3 x D3^z has size 2;
    with D1 x_{Z2}^{D3} D3^p (size 6) the sizes are [2, 6], total 8.
    m = 4: (r+, s-) (sin t, j = 4), (r-, s+) (cos, j = 2) and (r-, s-)
    (sin, j = 2) occur once each, giving D3 x D4^z, D3 x D4^d and
    D3 x D4^dh of size 2; D3 x D2^d and D3 x ~D2^d give 4; the
    Gamma-broken D1 x_{Z2}^{D4|D4^d|D4^dh} D4^p give 6 and
    D1 x_{Z2}^{D2^d|~D2^d} (~)D2^p give 12; total 56.
    """
    problems = []
    r3 = existence_degree(case_config(3), ctx_m3)
    sizes3 = sorted(g.orbit_size for g in r3.guarantees)
    if r3.total_solutions < 8:
        problems.append(f"m=3 total {r3.total_solutions} < 8")
    if sizes3 != [2, 6]:
        problems.append(f"m=3 orbit sizes {sizes3}, expected [2, 6]")
    r4 = existence_degree(case_config(4), ctx_m4)
    sizes4 = sorted(g.orbit_size for g in r4.guarantees)
    if r4.total_solutions < 16:
        problems.append(f"m=4 total {r4.total_solutions} < 16")
    if sizes4 != [2, 2, 2, 4, 4, 6, 6, 6, 12, 12]:
        problems.append(f"m=4 orbit sizes {sizes4}, "
                        "expected [2, 2, 2, 4, 4, 6, 6, 6, 12, 12]")
    _report(9, not problems, "; ".join(problems))


def test_criterion_10_trivial_symmetry_maximal_types():
    def lemma_list(m):
        names = {f"D{m}", f"D{m}^z"}
        if m % 2 == 0:
            names |= {f"D{m}^d", f"D{m}^dh"}
        e0 = (m & -m).bit_length() - 1
        for k in range(2, e0 + 1):
            half = m >> (k - 1)
            names |= {f"D{half}^d", f"~D{half}^d"}
        return names

    bad = []
    for m in (3, 4, 5, 6, 8, 12):
        cfg = ProblemConfig(m=m, k=1, spectrum=((Fraction(-2), 1),))
        ctx = build_symmetry_context(cfg)
        char = np.zeros(ctx.group.order)
        for i in time_irrep_indices(m):
            char += ctx.minus[i, 0].character
        found = {ctx.poset.classes[i].name
                 for i in maximal_orbit_types(ctx.poset,
                                              fixed_dims(ctx.poset, char))}
        if found != lemma_list(m):
            bad.append((m, sorted(found)))
    _report(10, not bad, f"maximal-type mismatches {bad}")


def test_criterion_11_bifurcation_fixtures(ctx_m3):
    problems = []
    report = bifurcation_report(case_config(3), ctx_m3)
    inv = report.invariants
    alphas = [p.point.alpha for p in inv]
    for target in (-2.0, -17.0 / 9.0, -0.5, -7.0 / 18.0):
        if not any(abs(a - target) <= 1e-9 for a in alphas):
            problems.append(f"no critical value near {target}")
    unit = BurnsideElement.unit(ctx_m3.poset)
    first = unit - basic_degree(ctx_m3.poset, ctx_m3.minus[0, 0])
    if inv[0].omega != first:
        problems.append("omega at the first crossing is not (G) - deg V_{0,0}")
    if inv[2].omega != -inv[1].omega:
        problems.append("omega at the third crossing is not minus the second")
    _report(11, not problems, "; ".join(problems))


def test_criterion_12_property_suite(ctx_m3):
    problems = []
    poset = ctx_m3.poset
    rng = np.random.default_rng(12345)

    def random_element():
        support = rng.choice(len(poset), size=4, replace=False)
        return BurnsideElement(
            poset, {int(i): int(c) for i, c in
                    zip(support, rng.integers(-3, 4, size=4))})

    unit = BurnsideElement.unit(poset)
    for _ in range(5):
        x, y, z = random_element(), random_element(), random_element()
        if x * y != y * x:
            problems.append("commutativity")
        if (x * y) * z != x * (y * z):
            problems.append("associativity")
        if x * (y + z) != x * y + x * z:
            problems.append("distributivity")
        if unit * x != x:
            problems.append("unit")

    irreps = [ctx_m3.minus[i, l]
              for i in time_irrep_indices(3) for l in range(2)]
    for _ in range(3):
        mults = rng.integers(0, 3, size=len(irreps))
        char = sum((int(c) * r.character for c, r in zip(mults, irreps)),
                   np.zeros(ctx_m3.group.order))
        prod = unit
        for c, r in zip(mults, irreps):
            for _rep in range(int(c)):
                prod = prod * basic_degree(poset, r)
        if degree_for_character(poset, char) != prod:
            problems.append(f"multiplicativity at {mults.tolist()}")

    for r in irreps:
        types = set(orbit_types(poset, fixed_dims(poset, r.character)))
        if isotropy_oracle(poset, [r]) != types:
            problems.append(f"isotropy oracle disagrees on {r.label}")

    for _ in range(20):
        m = int(rng.choice([3, 4, 6]))
        ps = []
        while len(ps) < 3:
            q = int(rng.integers(1, 28))
            if q % 7 != 0 and q not in ps:
                ps.append(q)
        spectrum = tuple((Fraction(-p, 7), 1) for p in sorted(ps))
        rep = existence_degree(ProblemConfig(m=m, k=3, spectrum=spectrum))
        nz = dict(rep.nonzero_terms)
        for pred in parity_predictions(rep.table, m):
            if not any(nz.get(c, 0) != 0 for c in pred.candidates):
                problems.append(f"parity miss m={m} {pred.candidates}")
    _report(12, not problems, "; ".join(sorted(set(problems))))
