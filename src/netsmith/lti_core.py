"""Discrete-time LTI primitives: polynomials, rational transfer functions,
unit-circle infinity norm, and state-space realization.

Conventions
-----------
Polynomial coefficients are stored in descending powers of z.  A rational
transfer function G(z) = num(z)/den(z) carries its sampling time h in
seconds; the frequency response is G evaluated at z = exp(1j*omega*h) for
omega in [0, pi/h].  Serialized form is ``{"num": [...], "den": [...],
"h": ...}`` with descending-power coefficient arrays.

Arithmetic is exact on coefficients: sums, products and feedback
combine the numerator and denominator polynomials and never remove a
pole-zero pair; a caller that knows a common factor divides it out
with ``divmod``.  The infinity norm comes from a level-set iteration on
the real polynomial whose unit-circle roots are the crossings of a gain
level, not from a frequency grid; ``inf_norm`` states the bracket it
guarantees.
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

UNIT_CIRCLE_TOL = 1e-8
NORM_REL_TOL = 1e-12


class NumericError(RuntimeError):
    """Numerical failure: unit-circle pole, singular system, or divergence."""


def _trim(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nonzero = np.nonzero(c)[0]
    if nonzero.size == 0:
        return np.zeros(1)
    return c[nonzero[0]:].copy()


class Polynomial:
    """Real polynomial in descending powers of z.

    The zero polynomial is represented by the single coefficient array
    ``[0.0]`` and flagged through :attr:`is_zero`; any other instance has a
    nonzero leading coefficient after trailing-zero trim.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _trim(coeffs)

    @classmethod
    def from_roots(cls, roots, leading: float = 1.0) -> "Polynomial":
        if len(roots) == 0:
            return cls([leading])
        c = np.poly(np.asarray(roots))
        if np.max(np.abs(c.imag)) > 1e-9 * (1.0 + np.max(np.abs(c.real))):
            raise ValueError("roots do not form a real polynomial")
        return cls(leading * c.real)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        return np.polyval(self.coeffs, z)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial(np.polyder(self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(self.coeffs.size, other.coeffs.size)
        out = np.zeros(n)
        out[n - self.coeffs.size:] += self.coeffs
        out[n - other.coeffs.size:] += other.coeffs
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial(-other.coeffs)

    def __divmod__(self, other: "Polynomial"):
        """Quotient and remainder of the long division of self by other."""
        n = other.degree
        r = self.coeffs.copy()
        q = np.zeros(max(self.degree - n + 1, 1))
        for k in range(self.degree - n + 1):
            q[k] = r[k] / other.coeffs[0]
            r[k:k + n + 1] -= q[k] * other.coeffs
        return Polynomial(q), Polynomial(r[max(r.size - n, 0):])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.coeffs.shape == other.coeffs.shape
                and bool(np.all(self.coeffs == other.coeffs)))

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs.tolist()})"


def roots(p: Polynomial) -> np.ndarray:
    """All complex roots of p via companion-matrix eigenvalues.

    Parameters
    ----------
    p : Polynomial
        Polynomial of degree >= 1.  The zero polynomial is rejected.

    Returns
    -------
    ndarray of complex
        Roots with multiplicity, in the order numpy returns them.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no well-defined roots")
    if p.degree == 0:
        return np.zeros(0, dtype=complex)
    return np.roots(p.coeffs)


class RationalTF:
    """Rational transfer function num(z)/den(z) with sampling time h."""

    __slots__ = ("num", "den", "h")

    def __init__(self, num, den, h: float = 1.0):
        self.num = num if isinstance(num, Polynomial) else Polynomial(num)
        self.den = den if isinstance(den, Polynomial) else Polynomial(den)
        if self.den.is_zero:
            raise ValueError("denominator must not be the zero polynomial")
        self.h = float(h)

    @classmethod
    def constant(cls, gain: float, h: float = 1.0) -> "RationalTF":
        return cls([float(gain)], [1.0], h)

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree or self.num.is_zero

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def normalized(self) -> "RationalTF":
        """Scale so the denominator is monic."""
        lead = self.den.coeffs[0]
        return RationalTF(self.num.coeffs / lead, self.den.coeffs / lead, self.h)

    def __mul__(self, other) -> "RationalTF":
        return tf_arith(self, _coerce(other, self.h), "mul")

    def __rmul__(self, other) -> "RationalTF":
        return tf_arith(_coerce(other, self.h), self, "mul")

    def __add__(self, other) -> "RationalTF":
        return tf_arith(self, _coerce(other, self.h), "add")

    def __radd__(self, other) -> "RationalTF":
        return tf_arith(_coerce(other, self.h), self, "add")

    def __sub__(self, other) -> "RationalTF":
        rhs = _coerce(other, self.h)
        return tf_arith(self, RationalTF(Polynomial(-rhs.num.coeffs), rhs.den, rhs.h), "add")

    def __rsub__(self, other) -> "RationalTF":
        lhs = _coerce(other, self.h)
        return tf_arith(lhs, RationalTF(Polynomial(-self.num.coeffs), self.den, self.h), "add")

    def feedback(self) -> "RationalTF":
        return tf_arith(self, self, "feedback")

    def to_dict(self) -> dict:
        return {"num": self.num.coeffs.tolist(),
                "den": self.den.coeffs.tolist(),
                "h": self.h}

    @classmethod
    def from_dict(cls, d: dict) -> "RationalTF":
        return cls(d["num"], d["den"], d.get("h", 1.0))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RationalTF":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (f"RationalTF(num={self.num.coeffs.tolist()}, "
                f"den={self.den.coeffs.tolist()}, h={self.h})")


def _coerce(value, h: float) -> RationalTF:
    if isinstance(value, RationalTF):
        return value
    return RationalTF.constant(float(value), h)


def tf_arith(lhs: RationalTF, rhs: RationalTF, kind: str) -> RationalTF:
    """Combine two transfer functions.

    Parameters
    ----------
    lhs, rhs : RationalTF
        Operands; sampling times must match.  For ``feedback`` only ``lhs``
        is used and the result is lhs.num / (lhs.den + lhs.num), which is
        lhs/(1+lhs) without the common factor lhs.den ever being formed.
    kind : {"add", "mul", "feedback"}

    Returns
    -------
    RationalTF
        Result of exact coefficient arithmetic.  No pole-zero pair is
        cancelled.
    """
    if lhs.h != rhs.h:
        raise ValueError(f"sampling-time mismatch: {lhs.h} != {rhs.h}")
    if kind == "mul":
        out = RationalTF(lhs.num * rhs.num, lhs.den * rhs.den, lhs.h)
    elif kind == "add":
        num = lhs.num * rhs.den + rhs.num * lhs.den
        out = RationalTF(num, lhs.den * rhs.den, lhs.h)
    elif kind == "feedback":
        out = RationalTF(lhs.num, lhs.den + lhs.num, lhs.h)
    else:
        raise ValueError(f"unknown arithmetic kind {kind!r}")
    if out.den.is_zero:
        raise NumericError("zero denominator after composition")
    return out


def _root_angles(c: np.ndarray) -> np.ndarray:
    """Angles in [0, pi] of the roots of the real polynomial c.

    End coefficients at most machine epsilon times the largest one are
    dropped first: the roots they carry lie at 0 or at infinity to working
    precision, and a subnormal leading coefficient would make the
    companion matrix overflow.
    """
    a = np.abs(c)
    kept = np.nonzero(a > np.finfo(float).eps * np.max(a))[0]
    if kept.size < 2:
        return np.zeros(0)
    return np.abs(np.angle(np.roots(c[kept[0]:kept[-1] + 1])))


def inf_norm(g: RationalTF) -> float:
    """Supremum of |g| on the unit circle, by a polynomial level set.

    With U = num * reversed(num), V = den * reversed(den) and
    s = deg den - deg num, |g|^2 = z^s U / V on |z| = 1 (Boyd-Balakrishnan-
    Kabamba 1989, Bruinsma-Steinbuch 1990, for one input and one output).
    So every crossing of |g| = gamma is a root of the real polynomial
    z^s U - gamma^2 V, and every stationary point of |g| a root of
    z d/dz(z^s U) V - z^s U z d/dz V.  Starting from the largest |g| at
    theta = 0, at pi, at the pole angles and at the angles of the
    stationary roots, each step sets the level
    gamma = (1 + 2*NORM_REL_TOL) * best above every value seen, takes the
    angles of all level-gamma roots as breakpoints, and evaluates |g|
    between consecutive breakpoints.  It stops when no midpoint exceeds
    gamma.  The value returned is attained, and brackets the supremum:
    inf_norm(g) <= sup|g| < (1 + 2*NORM_REL_TOL) * inf_norm(g).

    Raises
    ------
    NumericError
        If the denominator has a root within ``UNIT_CIRCLE_TOL`` of the
        unit circle (the norm is unbounded or ill-defined).
    ValueError
        If g is improper.
    """
    if g.num.is_zero:
        return 0.0
    if not g.is_proper:
        raise ValueError("an improper transfer function has no unit-circle norm")
    num, den = g.num.coeffs, g.den.coeffs
    n = g.den.degree
    if n == 0:
        return abs(num[0] / den[0])
    poles = roots(g.den)
    if np.any(np.abs(np.abs(poles) - 1.0) < UNIT_CIRCLE_TOL):
        raise NumericError("transfer function has a pole on the unit circle")
    # z^s U aligned with V: s leading and s trailing zeros, degree 2n
    s = n - g.num.degree
    u = np.zeros(2 * n + 1)
    u[s:2 * n + 1 - s] = np.convolve(num, num[::-1])
    v = np.convolve(den, den[::-1])
    k = np.arange(2 * n, -1, -1.0)
    stationary = np.convolve(k * u, v) - np.convolve(u, k * v)
    mag = lambda theta: np.abs(g(np.exp(1j * theta)))
    theta = np.concatenate(([0.0, math.pi], np.abs(np.angle(poles)),
                            _root_angles(stationary)))
    best = float(np.max(mag(theta)))
    while True:
        level = (1.0 + 2.0 * NORM_REL_TOL) * best
        crossings = _root_angles(u - (level * level) * v)
        breaks = np.sort(np.concatenate(([0.0, math.pi], crossings)))
        peak = float(np.max(mag(0.5 * (breaks[:-1] + breaks[1:]))))
        best = max(best, peak)
        if peak <= level:
            return best


@dataclass
class StateSpace:
    """Single-input single-output state-space model.

    x[k+1] = A x[k] + b u[k];  y[k] = c x[k] + d u[k].
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    h: float = 1.0

    @property
    def order(self) -> int:
        return self.b.size


def realize(g: RationalTF) -> StateSpace:
    """Controllable canonical realization of the coefficients of g.

    Parameters
    ----------
    g : RationalTF
        Proper transfer function.  No pole-zero pair is cancelled: the
        returned order equals the degree of g.den.

    Returns
    -------
    StateSpace
    """
    if not g.is_proper:
        raise ValueError("cannot realize an improper transfer function")
    gc = g.normalized()
    n = gc.den.degree
    padded = np.zeros(n + 1)
    padded[n + 1 - gc.num.coeffs.size:] = gc.num.coeffs
    d = padded[0]
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros(0), np.zeros(0), float(d), g.h)
    a = gc.den.coeffs[1:]
    A = np.zeros((n, n))
    A[0, :] = -a
    if n > 1:
        A[1:, :-1] = np.eye(n - 1)
    b = np.zeros(n)
    b[0] = 1.0
    c = padded[1:] - d * a
    return StateSpace(A, b, c, float(d), g.h)
