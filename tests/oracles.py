"""Independent oracles used by the test suite.

Everything here is deliberately written from first principles, without
calling the code paths it is meant to check: the resultant oracle builds
its own Sylvester matrix and expands the determinant by cofactors, the
height oracle runs the defining limit d^-n h(f^n x) on raw integer pairs,
the local-height oracle iterates exact Fractions with no renormalization,
and the multiplier oracle finds fixed points numerically at 60 digits.
The full-scan descent is the reference for the hole-guided one: it
evaluates all p + 1 tree neighbors at every step, each scored by the
Sylvester determinant of the canonical conjugate, where the library reads
ord_p Res off the transformation law.  The archimedean
conjugator family of ``h_res`` is rebuilt from products of matrices with
exact ``Fraction`` entries, and each conjugate is expanded term by term
with binomial coefficients, then canonicalized and its resultant taken.
The full archimedean scan conjugates every member of the integer family,
where ``h_res`` skips each member whose extreme-coefficient bound cannot
beat the running maximum.  The p-adic escape oracle iterates exact
Fractions, where the library reads valuations off a residue
orbit; the per-form residue orbit evaluates P and Q one at a time and takes
each valuation by repeated division, where the library runs one Horner pass
for both forms and one gcd with p^r; the per-form float orbit likewise calls
``BinaryForm.evaluate`` once per form and step, where the library reads both
forms off one chain of powers.  The pairing oracle recomputes the
wedge and the resultant term for every (pair, place) term, over the places
found by factoring each wedge, where the energy table takes one closed-form
sum per place from the product of the wedges and factors no wedge.  The
F_p-root and Milnor oracles are the sympy paths the library used before it
had its own: ``gf_gcd``/``gf_factor`` over F_p, and ``dmp_resultant`` over Z[w].
Three checks read the library's own outputs against an identity instead:
``functional_check`` (hhat(f x) = d hhat(x)), ``verify_cycle`` (an orbit
record's cycle equation, replayed) and ``normalized_resultant_abs`` (|Res|_v
over the sup norm, which a change of lift must not move).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from sympy import factorint
from sympy.polys.densebasic import dmp_normal
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_resultant
from sympy.polys.galoistools import gf_factor, gf_from_int_poly, gf_gcd, gf_sqf_part

from dynheights import (
    BinaryForm,
    CertifiedValue,
    HomogeneousLift,
    MinResCertificate,
    Mobius,
    Place,
    apply_map,
    canonical_height,
    conjugate,
    hom_local_height,
)
from dynheights.arith import bareiss_det
from dynheights.certified import log_abs_certified, log_rational_multiple
from dynheights.maps_core import _conjugate_forms, sylvester_matrix
from dynheights.reduction import (
    _ARCH_FAMILY_CAP,
    _ARCH_FAMILY_RADIUS,
    _arch_conjugator_family,
    neighbor_moves,
)


# ---------------------------------------------------------------------------
# Determinants and resultants
# ---------------------------------------------------------------------------


def det_cofactor(m):
    """Recursive cofactor-expansion determinant (exact, any field)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def naive_resultant(p_desc, q_desc):
    """Resultant of two equal-degree binary forms from descending coefficients."""
    d = len(p_desc) - 1
    rows = []
    for i in range(d):
        rows.append([0] * i + list(p_desc) + [0] * (d - 1 - i))
    for i in range(d):
        rows.append([0] * i + list(q_desc) + [0] * (d - 1 - i))
    return det_cofactor(rows)


def resultant_ratio(F) -> Fraction:
    """|Res(F)| / max|coeff|^(2d) exactly: |Res(f)|_inf before rounding."""
    return Fraction(abs(F.resultant), F.max_abs_coeff() ** (2 * F.d))


def normalized_resultant_abs(F, v: Place):
    """|Res(f)|_v = |Res(F)|_v / max|coeff|_v^(2d); independent of the lift.

    Res is homogeneous of degree 2d in the 2d+2 coefficients (degree d in
    each form), so the 2d-th power of the sup norm is the normalizer that
    cancels under F -> cF.  The canonical lift has content 1, so at a finite
    place the normalizer is 1 and the value is the exact Fraction
    |Res(F)|_p.  At the archimedean place it is a CertifiedValue (the ratio
    is an exact rational, only the float conversion is inexact).
    """
    if v.is_archimedean:
        frac = resultant_ratio(F)
        value = frac.numerator / frac.denominator
        approx = Fraction(value)
        if approx == frac:
            return CertifiedValue.exact_float(value)
        return CertifiedValue(value, math.nextafter(abs(float(approx - frac)) * 2, math.inf))
    return Fraction(1, v.prime ** _ord_int(F.resultant, v.prime))


# ---------------------------------------------------------------------------
# Minimal resultant
# ---------------------------------------------------------------------------


def ord_res_by_determinant(F, p: int, phi: Mobius) -> int:
    """ord_p Res of conjugate(F, phi), by the Bareiss determinant of the
    canonical conjugate's Sylvester matrix, not by the transformation law."""
    G = conjugate(F, phi)
    return _ord_int(bareiss_det(sylvester_matrix(G.P, G.Q)), p)


def full_scan_descent(F, p: int) -> MinResCertificate:
    """Greedy descent from the identity that evaluates all p + 1 neighbors
    at every step.

    Moves to the strictly best neighbor, ties broken by the lexicographic
    order of the resulting matrix entries.  Small p only: each step costs
    p + 1 resultants, each a determinant (``ord_res_by_determinant``).
    """
    phi = Mobius.identity()
    current = ord_res_by_determinant(F, p, phi)
    ord_start = current
    while current > 0:
        best = None
        for mv in neighbor_moves(p):
            cand = mv.compose(phi)
            o = ord_res_by_determinant(F, p, cand)
            key = (o, cand.a, cand.b, cand.c, cand.d)
            if best is None or key < best[0]:
                best = (key, cand, o)
        if best[2] >= current:
            break
        phi, current = best[1], best[2]
    return MinResCertificate(p=p, ord_start=ord_start, ord_min=current, conjugator=phi)


# ---------------------------------------------------------------------------
# Conjugation and the archimedean conjugator family
# ---------------------------------------------------------------------------


def _compose_form(coeffs_asc, alpha: int, beta: int, gamma: int, delta: int) -> list:
    """Ascending integer coefficients of C(alpha*x + beta*y, gamma*x + delta*y)."""
    d = len(coeffs_asc) - 1
    out = [0] * (d + 1)
    for i, ci in enumerate(coeffs_asc):
        if ci == 0:
            continue
        # (alpha x + beta y)^i and (gamma x + delta y)^(d-i), ascending in x
        t1 = [math.comb(i, k) * alpha**k * beta ** (i - k) for k in range(i + 1)]
        t2 = [math.comb(d - i, k) * gamma**k * delta ** (d - i - k) for k in range(d - i + 1)]
        for k1, v1 in enumerate(t1):
            for k2, v2 in enumerate(t2):
                out[k1 + k2] += ci * v1 * v2
    return out


def conjugate_forms_by_composition(F, m) -> tuple:
    """Ascending forms of M o F o adj(M), M = ((a, b), (c, d)): each form is
    composed with adj(M) on its own, one binomial expansion per coefficient."""
    (a, b), (c, d) = m
    Pw = _compose_form(F.P.coeffs, d, -b, -c, a)
    Qw = _compose_form(F.Q.coeffs, d, -b, -c, a)
    return [a * p + b * q for p, q in zip(Pw, Qw)], [c * p + d * q for p, q in zip(Pw, Qw)]


#: a 2x2 matrix with exact Fraction entries [[a, b], [c, d]]
FractionMatrix = namedtuple("FractionMatrix", "a b c d")


def _matrix(a, b, c, d) -> FractionMatrix:
    return FractionMatrix(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def _matrix_product(m, n) -> FractionMatrix:
    """m * n (apply n first)."""
    return FractionMatrix(
        m.a * n.a + m.b * n.c, m.a * n.b + m.b * n.d, m.c * n.a + m.d * n.c, m.c * n.b + m.d * n.d
    )


def _matrix_inverse(m) -> FractionMatrix:
    det = m.a * m.d - m.b * m.c
    return FractionMatrix(m.d / det, -m.b / det, -m.c / det, m.a / det)


def _mobius_arch_generators(primes):
    """Unit shears and the coordinate swap, then per prime q the moves
    z -> z/q and z -> qz + j (j = 0..q-1), then their exact inverses."""
    yield _matrix(1, 1, 0, 1)
    yield _matrix(1, -1, 0, 1)
    yield _matrix(1, 0, 1, 1)
    yield _matrix(1, 0, -1, 1)
    yield _matrix(0, 1, 1, 0)
    for q in primes:
        yield from _mobius_moves(q)
        yield from (_matrix_inverse(m) for m in _mobius_moves(q))


def _mobius_moves(q: int):
    """z -> z/q, then z -> qz + j for j = 0..q-1, one at a time."""
    yield _matrix(1, 0, 0, q)
    for j in range(q):
        yield _matrix(q, j, 0, 1)


def mobius_arch_family(F) -> list:
    """The archimedean conjugator family of ``h_res`` as products of exact
    Fraction matrices, deduplicated as matrices (not as maps: I and 2I are
    two members), in insertion order."""
    primes = sorted({2, 3} | set(F.resultant_primes))
    gens = []
    for g in _mobius_arch_generators(primes):
        if len(gens) == _ARCH_FAMILY_CAP:
            break
        gens.append(g)
    identity = _matrix(1, 0, 0, 1)
    family = {identity: None}  # insertion-ordered set
    frontier = [identity]
    for _ in range(_ARCH_FAMILY_RADIUS):
        new_frontier = []
        for phi in frontier:
            for g in gens:
                cand = _matrix_product(phi, g)
                if cand not in family:
                    family[cand] = None
                    new_frontier.append(cand)
                if len(family) >= _ARCH_FAMILY_CAP:
                    return list(family)
        frontier = new_frontier
    return list(family)


def mobius_arch_best_ratio(F, family):
    """max |Res|/max|coeff|^(2d) over the canonical conjugates by the family,
    each built by composition and its resultant taken by Bareiss."""
    best = None
    for phi in family:
        den = math.lcm(*(e.denominator for e in (phi.a, phi.b, phi.c, phi.d)))
        m = ((int(phi.a * den), int(phi.b * den)), (int(phi.c * den), int(phi.d * den)))
        g0, g1 = conjugate_forms_by_composition(F, m)
        ratio = resultant_ratio(HomogeneousLift(BinaryForm(tuple(g0)), BinaryForm(tuple(g1))))
        best = ratio if best is None else max(best, ratio)
    return best


def arch_best_ratio_full_scan(F) -> Fraction:
    """max |Res|/max|coeff|^(2d) over the integer family of ``h_res``, with
    every member conjugated: |Res F| |det N|^(d^2+d) / max|coeff H|^(2d) for
    the raw conjugate H, compared by cross-multiplication."""
    d = F.d
    best_num, best_den = 0, 1
    for a, b, c, dd, _ in _arch_conjugator_family(F):
        g0, g1 = _conjugate_forms(F, ((a, b), (c, dd)))
        num = abs(a * dd - b * c) ** (d * d + d)
        den = max(map(abs, g0 + g1)) ** (2 * d)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(abs(F.resultant) * best_num, best_den)


# ---------------------------------------------------------------------------
# Height oracles
# ---------------------------------------------------------------------------


def _apply_int(p_asc, q_asc, d, x0, x1):
    """One exact step on a coprime integer pair, reduced to coprime form."""
    w0 = sum(c * x0**i * x1 ** (d - i) for i, c in enumerate(p_asc))
    w1 = sum(c * x0**i * x1 ** (d - i) for i, c in enumerate(q_asc))
    g = math.gcd(abs(w0), abs(w1))
    return w0 // g, w1 // g


def hhat_limit(F, x, n: int) -> float:
    """Defining-limit canonical height oracle: d^-n h(f^n x).

    Accurate to within height_gap_constant(F) / d^n of the true value.
    """
    p_asc, q_asc, d = list(F.P.coeffs), list(F.Q.coeffs), F.d
    a, b = x.x0, x.x1
    for _ in range(n):
        a, b = _apply_int(p_asc, q_asc, d, a, b)
    return math.log(max(abs(a), abs(b))) / d**n


@dataclass(frozen=True)
class ResidualReport:
    """|lhs - rhs| of an identity that must hold up to the error budget."""

    residual: float
    budget: float
    lhs: float
    rhs: float

    def holds(self, slack: float = 0.0) -> bool:
        return self.residual <= self.budget + slack


def functional_check(F, x, n_iter: int = 30) -> ResidualReport:
    """Residual of the functional equation: canonical height multiplies by d under f."""
    hx = canonical_height(F, x, n_iter)
    hfx = canonical_height(F, apply_map(F, x), n_iter)
    lhs = hfx.total.value
    rhs = F.d * hx.total.value
    budget = hfx.total.err + F.d * hx.total.err
    return ResidualReport(abs(lhs - rhs), budget, lhs, rhs)


def verify_cycle(F, rec) -> bool:
    """Re-verify the exact cycle equation of a preperiodic orbit record."""
    if rec.status != "preperiodic":
        return False
    y = rec.start
    for _ in range(rec.tail_length):
        y = apply_map(F, y)
    z = y
    for _ in range(rec.cycle_length):
        z = apply_map(F, z)
    return z == y


def local_height_padic_oracle(F, z, p: int, n: int) -> float:
    """d^-n log||F^n(z)||_p by raw exact iteration (no renormalization)."""
    d = F.d
    cur = (Fraction(z[0]), Fraction(z[1]))
    for _ in range(n):
        cur = (F.P.evaluate(*cur), F.Q.evaluate(*cur))
    norm_ord = min(_ord_frac(cur[0], p), _ord_frac(cur[1], p))
    return (-norm_ord * math.log(p)) / d**n


def local_height_arch_oracle(F, z, n: int) -> float:
    """d^-n log||F^n(z)||_inf by raw exact iteration, logged at 60 digits."""
    d = F.d
    cur = (Fraction(z[0]), Fraction(z[1]))
    for _ in range(n):
        cur = (F.P.evaluate(*cur), F.Q.evaluate(*cur))
    big = max(abs(cur[0]), abs(cur[1]))
    with mpmath.workdps(60):
        val = mpmath.log(mpmath.mpf(big.numerator)) - mpmath.log(mpmath.mpf(big.denominator))
        return float(val / d**n)


def exact_padic_escape(F, z, p: int, n_steps: int, delta: float) -> bool:
    """The escape induction at p on exact Fraction iterates, no precision bound.

    True iff ||F^k(z)||_p = p^-M_k grows by at least (1 + delta)^(d-1) at
    each of n_steps steps.  The iterates are rescaled by powers of p only,
    so their numerators grow like d^k digits: keep n_steps small.
    """
    d = F.d
    z0, z1 = Fraction(z[0]), Fraction(z[1])
    ratio = (1 + Fraction(delta)) ** (d - 1)
    big_m = min(_ord_frac(z0, p), _ord_frac(z1, p))
    scale = Fraction(p) ** big_m
    cur0, cur1 = z0 / scale, z1 / scale
    for _ in range(n_steps):
        w0, w1 = F.P.evaluate(cur0, cur1), F.Q.evaluate(cur0, cur1)
        mu = min(_ord_frac(w0, p), _ord_frac(w1, p))
        new_big_m = d * big_m + mu
        if not (new_big_m < big_m and Fraction(p) ** (big_m - new_big_m) >= ratio):
            return False
        shift = Fraction(p) ** mu
        cur0, cur1 = w0 / shift, w1 / shift
        big_m = new_big_m
    return True


def padic_steps_by_forms(F, x0: Fraction, x1: Fraction, p: int, n_steps: int):
    """(m0, [m_1, ..., m_n]) of ``local_heights._padic_steps``, one form at a time.

    The residue orbit mod p^r at full precision, r = (n+1)e + 2, so more than
    e digits remain before every step and no table or precision schedule is
    involved; each step evaluates P and Q separately and reads m_k as the
    smaller of the two residues' valuations, a zero residue counting as all
    r remaining digits.
    """
    e = _ord_int(F.resultant, p)
    m0 = min(_ord_frac(x0, p), _ord_frac(x1, p))
    scale = Fraction(p) ** m0
    u0, u1 = x0 / scale, x1 / scale
    remaining = (n_steps + 1) * e + 2
    modulus = p**remaining
    z0 = u0.numerator * pow(u0.denominator, -1, modulus) % modulus
    z1 = u1.numerator * pow(u1.denominator, -1, modulus) % modulus
    steps = []
    for _ in range(n_steps):
        w0, w1 = F.P.evaluate(z0, z1) % modulus, F.Q.evaluate(z0, z1) % modulus
        m = min(
            _ord_int(w0, p) if w0 else remaining,
            _ord_int(w1, p) if w1 else remaining,
        )
        if m > e:
            raise ArithmeticError("p-adic step valuation exceeded its certified bound")
        steps.append(m)
        shift = p**m
        remaining -= m
        modulus //= shift
        z0, z1 = w0 // shift, w1 // shift
    return m0, steps


def arch_steps_by_forms(F, y0: int, y1: int, n_steps: int):
    """The t_k of ``local_heights._arch_steps``, one form at a time.

    The same binary-renormalized float orbit from the same start, but each
    step evaluates P and Q by two ``BinaryForm.evaluate`` calls at the float
    pair, and the norm of u_k is taken from u_k itself, where the library
    reads both forms off one shared chain of powers and takes the next norm
    from the frexp mantissa.  The floats must agree bit for bit.
    """
    d = F.d
    scale = 1 << (max(abs(y0), abs(y1)).bit_length() - 1)
    u0, u1 = y0 / scale, y1 / scale
    for _ in range(n_steps):
        w0, w1 = F.P.evaluate(u0, u1), F.Q.evaluate(u0, u1)
        nw = max(abs(w0), abs(w1))
        if nw == 0.0 or math.isinf(nw) or math.isnan(nw):
            raise ArithmeticError("archimedean iteration left the certified float range")
        yield math.log(nw) - d * math.log(max(abs(u0), abs(u1)))
        _, ex = math.frexp(nw)
        u0, u1 = math.ldexp(w0, -ex), math.ldexp(w1, -ex)


def _ord_int(n: int, p: int) -> int:
    """Valuation by repeated squaring of the divisor (fast on huge inputs)."""
    n = abs(n)
    v, q, e = 0, p, 1
    while True:
        quo, rem = divmod(n, q)
        if rem:
            break
        n, v = quo, v + e
        q, e = q * q, 2 * e
    while e > 1:
        e //= 2
        q = p**e
        quo, rem = divmod(n, q)
        if rem == 0:
            n, v = quo, v + e
    return v


def _ord_frac(x: Fraction, p: int):
    if x == 0:
        return float("inf")
    return _ord_int(x.numerator, p) - _ord_int(x.denominator, p)


# ---------------------------------------------------------------------------
# Green pairings and energy sums
# ---------------------------------------------------------------------------


def green_pairing_by_formula(F, x, y, v, height):
    """g_v(x, y) = -log|x^y|_v + H_v(x) + H_v(y) - log|Res F|_v / (d(d-1)),
    with every term computed afresh for this pair and place.

    The same terms as ``local_heights.green_pairing``, built with the same
    rounding helpers and added in the same order, so the two agree bit for
    bit; the library reads the local heights and the resultant term from a
    ``LocalHeights`` memo.
    """
    d = F.d
    c = d * (d - 1)
    w = x.wedge(y)
    res = F.resultant
    if v.is_archimedean:
        total = -log_abs_certified(w)
        total = total + height(x, v)
        total = total + height(y, v)
        total = total - log_abs_certified(res).div_int(c)
        return total
    p = v.prime
    if w % p != 0 and res % p != 0:
        return CertifiedValue.exact_zero()
    total = log_rational_multiple(_ord_int(w, p), p)  # -log|w|_p
    total = total + height(x, v)
    total = total + height(y, v)
    total = total + log_rational_multiple(Fraction(_ord_int(res, p), c), p)
    return total


def energy_by_formula(F, pts, v, n_iter: int):
    """Unordered energy sum over i < j of distinct pts at the place v, over
    all places for v = "all", or over the primes of good reduction for
    v = "good", folded pair by pair with ``green_pairing_by_formula``.

    For "all" the places of a pair are infinity and the primes of Res and of
    the wedge, ascending; for "good" the primes of the wedge that do not
    divide Res; both from sympy's factorint.  Each local height comes from
    ``hom_local_height`` on the canonical lift.
    """
    heights = {}

    def height(x, place):
        if (x, place) not in heights:
            heights[x, place] = hom_local_height(F, x.lift(), place, n_iter)
        return heights[x, place]

    res_primes = set(factorint(abs(F.resultant)))
    total = CertifiedValue.exact_zero()
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            places = [v]
            if v in ("all", "good"):
                wedge_primes = set(factorint(abs(x.wedge(y))))
                if v == "all":
                    primes, places = res_primes | wedge_primes, [Place.archimedean()]
                else:
                    primes, places = wedge_primes - res_primes, []
                places += [Place.finite(p) for p in sorted(primes)]
            for place in places:
                total = total + green_pairing_by_formula(F, x, y, place, height)
    return total


# ---------------------------------------------------------------------------
# Numerical multiplier oracle (60-digit arithmetic)
# ---------------------------------------------------------------------------


def sigma_numeric(F):
    """(sigma1, sigma2, sigma3) of a quadratic map from numerical fixed points.

    Affine fixed points are the roots of p(z) - z q(z); the point at
    infinity is fixed iff that cubic degenerates, contributing multiplier
    g'(0) of g(w) = 1/f(1/w) with the remaining multiplicity.
    """
    if F.d != 2:
        raise ValueError("quadratic maps only")
    with mpmath.workdps(60):
        p_desc = [mpmath.mpf(c) for c in F.P.descending()]
        q_desc = [mpmath.mpf(c) for c in F.Q.descending()]
        # phi(z) = p(z) - z q(z), descending degree-3 coefficients
        phi = [mpmath.mpf(0)] * 4
        for i, c in enumerate(p_desc):  # p term: degree 2 shifted into slots 1..3
            phi[i + 1] += c
        for i, c in enumerate(q_desc):  # z*q term: degree 3
            phi[i] -= c
        while phi and phi[0] == 0:
            phi = phi[1:]
        inf_multiplicity = 4 - len(phi) if phi else 3
        lams = []
        if len(phi) > 1:
            roots = mpmath.polyroots(phi, maxsteps=200, extraprec=120)
            dp = _poly_deriv(p_desc)
            dq = _poly_deriv(q_desc)
            for r in roots:
                pv = _poly_eval(p_desc, r)
                qv = _poly_eval(q_desc, r)
                lams.append((_poly_eval(dp, r) * qv - pv * _poly_eval(dq, r)) / qv**2)
        # fixed point(s) at infinity: g(w) = q^(w)/p^(w) with reversed coefficients
        if inf_multiplicity > 0:
            p_rev = list(reversed(p_desc))
            q_rev = list(reversed(q_desc))
            dpr = _poly_deriv(p_rev)
            dqr = _poly_deriv(q_rev)
            w = mpmath.mpf(0)
            pv = _poly_eval(p_rev, w)
            qv = _poly_eval(q_rev, w)
            lam_inf = (_poly_eval(dqr, w) * pv - qv * _poly_eval(dpr, w)) / pv**2
            lams.extend([lam_inf] * inf_multiplicity)
        s1 = lams[0] + lams[1] + lams[2]
        s2 = lams[0] * lams[1] + lams[0] * lams[2] + lams[1] * lams[2]
        s3 = lams[0] * lams[1] * lams[2]
        return complex(s1), complex(s2), complex(s3)


def _poly_eval(desc, x):
    acc = mpmath.mpf(0)
    for c in desc:
        acc = acc * x + c
    return acc


def _poly_deriv(desc):
    n = len(desc) - 1
    return [c * (n - i) for i, c in enumerate(desc[:-1])] or [mpmath.mpf(0)]


def hole_moves_by_gf_factor(G, p: int) -> list:
    """``reduction.hole_moves`` through sympy: the monic linear factors x + j
    of gcd(P(x,1), Q(x,1)) over F_p from ``gf_factor``, in its order."""
    moves = []
    if G.P.coeffs[-1] % p == 0 and G.Q.coeffs[-1] % p == 0:
        moves.append(Mobius(p, 0, 0, 1))
    common = gf_gcd(
        gf_from_int_poly(G.P.descending(), p), gf_from_int_poly(G.Q.descending(), p), p, ZZ
    )
    for factor, _ in gf_factor(common, p, ZZ)[1]:
        if len(factor) == 2:
            moves.append(Mobius(1, int(factor[1]), 0, p))
    return moves


def hole_gcd_degrees(G, p: int) -> tuple:
    """Degrees of g = gcd(P(x,1), Q(x,1)) over F_p and of its squarefree
    part, by sympy's ``gf_gcd`` and ``gf_sqf_part``."""
    common = gf_gcd(
        gf_from_int_poly(G.P.descending(), p), gf_from_int_poly(G.Q.descending(), p), p, ZZ
    )
    return len(common) - 1, len(gf_sqf_part(common, p, ZZ)) - 1


def milnor_sigmas_by_dmp_resultant(F) -> tuple:
    """(sigma1, sigma2, sigma3) of a quadratic map from one sympy resultant
    Res_z(phi, (w - 1) q - phi') over Z[w], in the chart of ``milnor_invariants``."""
    s = next(s for s in range(4) if F.P.evaluate(s, 1) != s * F.Q.evaluate(s, 1))
    chart = conjugate(F, Mobius(0, 1, 1, -s))
    p, q = chart.P.coeffs, chart.Q.coeffs
    phi = [p[0], p[1] - q[0], p[2] - q[1], -q[2]]  # ascending in z
    dphi = [k * c for k, c in enumerate(phi)][1:]
    phi_zw = dmp_normal([[c] for c in reversed(phi)], 1, ZZ)
    psi_zw = dmp_normal([[b, -b - c] for b, c in zip(reversed(q), reversed(dphi))], 1, ZZ)
    m = [int(c) for c in dmp_resultant(phi_zw, psi_zw, 1, ZZ)]
    return Fraction(-m[1], m[0]), Fraction(m[2], m[0]), Fraction(-m[3], m[0])
