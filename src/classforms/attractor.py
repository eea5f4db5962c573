"""Charge bookkeeping for extremal charges on the rank-12 split lattice.

Charge pairs (p, q) enter only through their duality invariants
(p^2, p.q, q^2); those define a binary quadratic form [p^2, -2 p.q, q^2]
whose discriminant fixes the entropy, and reduced forms at a fixed
discriminant enumerate the inequivalent charge classes.  The module also
carries the explicit 12-component example vectors (with the global 1/sqrt2
tracked as a squared normalization so inner products stay rational), the
two-by-two solution-generating matrices and their checks, and Hilbert class
polynomials as the degree witness for the field generated by the modular
invariant at the fixed points.
"""

from fractions import Fraction
from math import ceil, hypot, log, log10, pi
from typing import NamedTuple

from .quadforms import Form, as_form, enumerate_reduced, is_fundamental


class ChargeInvariants(NamedTuple):
    p2: int
    pq: int
    q2: int


def discriminant_of_charges(ci) -> int:
    """D = 4 ((p.q)^2 - p^2 q^2); duality invariant."""
    p2, pq, q2 = ci
    return 4 * (pq * pq - p2 * q2)


def entropy(D: int) -> float:
    """S = pi sqrt(-D)."""
    if D >= 0:
        raise ValueError("entropy needs a negative discriminant")
    return pi * (-D) ** 0.5


def form_from_charges(ci) -> Form:
    """The form [p^2, -2 p.q, q^2]; positive definite charge data required."""
    p2, pq, q2 = ci
    if p2 <= 0 or p2 * q2 - pq * pq <= 0:
        raise ValueError(f"charge invariants {tuple(ci)} are not positive definite")
    return Form(p2, -2 * pq, q2)


def charges_from_form(f) -> ChargeInvariants:
    """Inverse of form_from_charges on even-middle-coefficient forms."""
    f = as_form(f)
    if f.b % 2 != 0:
        raise ValueError(f"form {f} has odd middle coefficient; not charge-realized")
    return ChargeInvariants(f.a, -f.b // 2, f.c)


def classify_black_holes(D: int):
    """One ChargeInvariants per class of discriminant D, D = 0 mod 4.

    Derived from the reduced representatives as (a, -b/2, c).  Charge-realized
    forms in this lattice basis have even middle coefficient, so D = 1 mod 4
    is rejected rather than guessed at.  The listed sign of p.q follows the
    reduced form; [a,-b,c] represents the inverse class with the same
    invariant triple up to that sign.
    """
    if D >= 0:
        raise ValueError("discriminant must be negative")
    if D % 4 != 0:
        raise ValueError(
            f"D = {D} is 1 mod 4: no charge realization with even middle coefficient"
        )
    return [charges_from_form(f) for f in enumerate_reduced(D)]


# --- the split metric and the printed example vectors -----------------------


def metric_L():
    """12x12 block matrix ((0, 1), (1, 0)) with 6x6 blocks."""
    L = [[0] * 12 for _ in range(12)]
    for i in range(6):
        L[i][6 + i] = 1
        L[6 + i][i] = 1
    return L


class _ChargeVectorFields(NamedTuple):
    components: tuple


class ChargeVector(_ChargeVectorFields):
    """12 rational components of a vector that carries an overall 1/sqrt2.

    Inner products pick up (1/sqrt2)^2 = 1/2 and therefore stay exact
    rationals.
    """

    __slots__ = ()

    def __new__(cls, components):
        if len(components) != 12:
            raise ValueError("charge vectors have 12 components")
        return super().__new__(cls, components)


def charge_vector(*entries) -> ChargeVector:
    return ChargeVector(tuple(Fraction(e) for e in entries))


def inner(v: ChargeVector, w: ChargeVector) -> Fraction:
    """v^T L w, including the 1/2 from the two 1/sqrt2 normalizations."""
    total = Fraction(0)
    for i in range(6):
        total += v.components[i] * w.components[6 + i]
        total += v.components[6 + i] * w.components[i]
    return total / 2


# the printed representatives at D = -20 and D = -84 (components before 1/sqrt2)
EXAMPLE_VECTORS = {
    -20: (
        (charge_vector(1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
         charge_vector(0, 5, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
        (charge_vector(2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
         charge_vector(0, 3, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0)),
    ),
    -84: (
        (charge_vector(1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
         charge_vector(0, 21, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
        (charge_vector(3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
         charge_vector(0, 7, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
        (charge_vector(2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
         charge_vector(2, 11, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
        (charge_vector(5, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
         charge_vector(4, 5, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ),
}


def example_invariants(D: int):
    """(p^2, p.q, q^2) triples of the printed example vectors at D."""
    out = []
    for p, q in EXAMPLE_VECTORS[D]:
        out.append(ChargeInvariants(int(inner(p, p)), int(inner(p, q)), int(inner(q, q))))
    return out


# --- two-by-two solution-generating elements --------------------------------


class Matrix2x2(NamedTuple):
    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other):
        return Matrix2x2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def sl2_transform_invariants(ci, m: Matrix2x2, det_tol: float = 1e-12):
    """Invariants of (a p + b q, c p + d q) for unimodular real m.

    Returns a float triple; the discriminant is preserved exactly by any
    determinant-one matrix, which is what makes these usable as
    solution-generating moves.
    """
    if abs(m.det() - 1.0) > det_tol:
        raise ValueError(f"matrix determinant {m.det()} is not 1")
    p2, pq, q2 = ci
    a, b, c, d = m.a, m.b, m.c, m.d
    p2n = a * a * p2 + 2 * a * b * pq + b * b * q2
    pqn = a * c * p2 + (a * d + b * c) * pq + b * d * q2
    q2n = c * c * p2 + 2 * c * d * pq + d * d * q2
    return (p2n, pqn, q2n)


def example_sl2_element() -> Matrix2x2:
    """The printed move taking (1, 0, 5) to (2, 1, 3); squares to -identity."""
    r = 23**-0.5
    return Matrix2x2(-r, 3 * r, -8 * r, r)


def canonical_sl2_element(a: int, D: int) -> Matrix2x2:
    """((0, 2 sqrt(a/-D)), (-(1/2) sqrt(-D/a), 0)).

    Takes the identity invariants (1, 0, -D/4) to (a, 0, -D/4a) and squares
    to minus the identity.
    """
    if a <= 0 or D >= 0:
        raise ValueError("need a > 0 and D < 0")
    if D % (4 * a) != 0:
        raise ValueError(f"4a = {4*a} must divide -D = {-D} for integral invariants")
    return Matrix2x2(0.0, 2 * (a / -D) ** 0.5, -0.5 * (-D / a) ** 0.5, 0.0)


def omega_constraint_residuals(omega, sl2: Matrix2x2, p1, q1, p2, q2):
    """Residuals of the four compatibility constraints for a candidate Omega.

    Omega is a 12x12 real matrix expected to satisfy Omega (a p1 + b q1) = p2,
    Omega (c p1 + d q1) = q2, det(sl2) = 1, and Omega^T L Omega = L.  Only a
    verifier: nothing here searches for Omega.
    """
    import numpy as np

    om = np.asarray(omega, dtype=float)
    L = np.array(metric_L(), dtype=float)
    v_p1 = np.array([float(x) for x in p1.components])
    v_q1 = np.array([float(x) for x in q1.components])
    v_p2 = np.array([float(x) for x in p2.components])
    v_q2 = np.array([float(x) for x in q2.components])
    return {
        "p_map": float(np.max(np.abs(om @ (sl2.a * v_p1 + sl2.b * v_q1) - v_p2))),
        "q_map": float(np.max(np.abs(om @ (sl2.c * v_p1 + sl2.d * v_q1) - v_q2))),
        "det": abs(sl2.det() - 1.0),
        "isometry": float(np.max(np.abs(om.T @ L @ om - L))),
    }


# --- fixed-point moduli and class polynomials --------------------------------


def attractor_tau(f) -> complex:
    """Upper-half-plane root of a tau^2 + b tau + c = 0."""
    f = as_form(f)
    if not f.is_positive_definite():
        raise ValueError(f"form {f} is not positive definite")
    a, b, c = f
    return complex(-b, (4 * a * c - b * b) ** 0.5) / (2 * a)


_EXTRA_DIGITS = 10


def _at_scale(x: Fraction, bits: int) -> int:
    """x 2^bits rounded to an integer, for a dyadic Fraction x."""
    from .rademacher import _round_shift

    return _round_shift(x.numerator << bits, x.denominator.bit_length() - 1)


def hilbert_class_polynomial(D: int):
    """Monic integer polynomial with roots j(tau_Q), one per reduced class.

    Coefficients are computed numerically from j at each fixed point and
    rounded; the rounding residual must stay below 1e-4 or a PrecisionError
    reports the residual reached and the digits used.  Returns the
    coefficient list [c_0, ..., c_{h-1}, 1] (degree h(D)).

    The working precision covers the largest coefficient: |j(tau_f)| is
    about exp(pi sqrt|D| / a_f), and no coefficient exceeds B = 2^h times the
    product of the max(1, |j(tau_f)|) (Enge, Math. Comp. 2009), so the budget is
    15 + ceil(sum_f pi sqrt|D| / (a_f ln 10) + h log10 2) + _EXTRA_DIGITS
    digits, s bits.  Each root comes from _j_at at s + 8 bits and is rounded to
    a Gaussian integer at scale 2^-s; the product of the X - r is expanded at
    that one scale, each product floored.  A root off by rho (1 + |r|) 2^-s
    moves every coefficient by under rho B 2^-s, and each of the h(h + 1)/2
    floors by under sqrt(2) B 2^-s, as the later factors multiply an error by at
    most prod (1 + |r|) <= B.  So the coefficients are within
    (sum rho + h (h + 1)) B 2^-s < (sum rho + h (h + 1)) 10^-25, where rho, the
    root's rad over (1 + |r|) 2^-s plus 1/2 for the rounding, is a few units
    (at most 6 at D = -20011).
    """
    from .rademacher import PrecisionError, _j_at, _prec_of_digits, _round_shift, cm_root

    if not is_fundamental(D):
        raise ValueError("class polynomials are computed for fundamental discriminants")
    forms = enumerate_reduced(D)
    h = len(forms)
    log10_size = sum(pi * (-D) ** 0.5 / (f.a * log(10)) for f in forms) + h * log10(2)
    digits = 15 + ceil(log10_size) + _EXTRA_DIGITS
    s = _prec_of_digits(digits)
    coeffs = [(1 << s, 0)]
    for f in forms:
        j = _j_at(cm_root(f), s + 8)
        rr, ri = _at_scale(j.real, s), _at_scale(j.imag, s)
        # multiply by X - r: c_i <- c_(i-1) - r c_i
        nxt = [(0, 0)] + coeffs
        for i, (cr, ci) in enumerate(coeffs):
            nxt[i] = (nxt[i][0] - ((rr * cr - ri * ci) >> s), nxt[i][1] - ((rr * ci + ri * cr) >> s))
        coeffs = nxt
    rounded = [_round_shift(cr, s) for cr, _ in coeffs]
    residual = max(hypot((cr - (n << s)) / (1 << s), ci / (1 << s))
                   for (cr, ci), n in zip(coeffs, rounded))
    if residual > 1e-4:
        raise PrecisionError(
            f"class polynomial rounding residual {residual:.3e} at {digits} digits"
        )
    assert len(rounded) == h + 1 and rounded[-1] == 1
    return rounded
