"""Discrete-time LTI primitives: polynomials, rational transfer functions,
unit-circle infinity norm, and state-space realization.

Conventions
-----------
Polynomial coefficients are stored in descending powers of z.  A rational
transfer function G(z) = num(z)/den(z) carries its sampling time h in
seconds; the frequency response is G evaluated at z = exp(1j*omega*h) for
omega in [0, pi/h].  Serialized form is ``{"num": [...], "den": [...],
"h": ...}`` with descending-power coefficient arrays.

The infinity norm comes from a Hamiltonian level-set iteration, not a
frequency grid; ``inf_norm`` states the bracket it guarantees.
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

ARITH_CANCEL_TOL = 1e-8
REALIZE_CANCEL_TOL = 1e-6
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

    @classmethod
    def delay(cls, samples: int, h: float = 1.0) -> "RationalTF":
        """Pure delay z**(-samples)."""
        if samples < 0:
            raise ValueError("delay must be a non-negative sample count")
        den = np.zeros(samples + 1)
        den[0] = 1.0
        return cls([1.0], den, h)

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree or self.num.is_zero

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def poles(self) -> np.ndarray:
        return roots(self.den)

    def zeros(self) -> np.ndarray:
        if self.num.is_zero or self.num.degree == 0:
            return np.zeros(0, dtype=complex)
        return roots(self.num)

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


def _match_and_cancel(num_roots, den_roots, tol: float):
    """Greedily pair numerator and denominator roots closer than tol."""
    den = list(den_roots)
    kept_num = []
    for z in num_roots:
        best = None
        best_dist = tol
        for i, p in enumerate(den):
            d = abs(z - p)
            if d < best_dist:
                best, best_dist = i, d
        if best is None:
            kept_num.append(z)
        else:
            den.pop(best)
    return kept_num, den


def cancel(g: RationalTF, tol: float = ARITH_CANCEL_TOL) -> RationalTF:
    """Remove near-common num/den root pairs closer than tol."""
    if g.num.is_zero:
        return RationalTF([0.0], [1.0], g.h)
    num_lead = g.num.coeffs[0]
    den_lead = g.den.coeffs[0]
    num_roots = list(roots(g.num)) if g.num.degree > 0 else []
    den_roots = list(roots(g.den)) if g.den.degree > 0 else []
    kept_num, kept_den = _match_and_cancel(num_roots, den_roots, tol)
    if len(kept_num) == len(num_roots) and len(kept_den) == len(den_roots):
        # nothing cancelled; keep the exact coefficients instead of
        # round-tripping them through the root finder
        return g
    num = Polynomial.from_roots(kept_num, num_lead)
    den = Polynomial.from_roots(kept_den, den_lead)
    return RationalTF(num, den, g.h)


def tf_arith(lhs: RationalTF, rhs: RationalTF, kind: str) -> RationalTF:
    """Combine two transfer functions.

    Parameters
    ----------
    lhs, rhs : RationalTF
        Operands; sampling times must match.  For ``feedback`` only ``lhs``
        is used and the result is lhs/(1+lhs).
    kind : {"add", "mul", "feedback"}

    Returns
    -------
    RationalTF
        Result after exact coefficient arithmetic and near-common-root
        cancellation at tolerance ``ARITH_CANCEL_TOL``.
    """
    if lhs.h != rhs.h:
        raise ValueError(f"sampling-time mismatch: {lhs.h} != {rhs.h}")
    if kind == "mul":
        out = RationalTF(lhs.num * rhs.num, lhs.den * rhs.den, lhs.h)
    elif kind == "add":
        num = lhs.num * rhs.den + rhs.num * lhs.den
        out = RationalTF(num, lhs.den * rhs.den, lhs.h)
    elif kind == "feedback":
        out = RationalTF(lhs.num * lhs.den, (lhs.den + lhs.num) * lhs.den, lhs.h)
    else:
        raise ValueError(f"unknown arithmetic kind {kind!r}")
    if out.den.is_zero:
        raise NumericError("zero denominator after composition")
    return cancel(out, ARITH_CANCEL_TOL)


def inf_norm(g: RationalTF) -> float:
    """Supremum of |g| on the unit circle, by a Hamiltonian level set.

    g is realized without cancellation and mapped to continuous time by
    z = z0 (1+s)/(1-s), which takes the unit circle onto the imaginary
    axis and s = infinity to z = -z0.  Starting from the largest |g| at
    theta = 0, at pi and at the pole angles, each step sets the level
    gamma = (1 + 2*NORM_REL_TOL) * best above every value seen,
    takes the frequencies of all eigenvalues of the level-gamma
    Hamiltonian (Boyd-Balakrishnan-Kabamba 1989, Bruinsma-Steinbuch 1990)
    as breakpoints, since every crossing of |g| = gamma is among them, and
    evaluates |g| between consecutive breakpoints.  It stops when no
    midpoint exceeds gamma.  The value returned is attained, and brackets
    the supremum: inf_norm(g) <= sup|g| < (1 + 2*NORM_REL_TOL) * inf_norm(g).

    Raises
    ------
    NumericError
        If the denominator has a root within ``UNIT_CIRCLE_TOL`` of the
        unit circle (the norm is unbounded or ill-defined).
    """
    if g.num.is_zero:
        return 0.0
    ss = realize(g, 0.0)
    n = ss.order
    if n == 0:
        return abs(ss.d)
    poles = np.linalg.eigvals(ss.A)
    if np.any(np.abs(np.abs(poles) - 1.0) < UNIT_CIRCLE_TOL):
        raise NumericError("transfer function has a pole on the unit circle")
    mag = lambda theta: np.abs(g(np.exp(1j * theta)))
    theta = np.concatenate(([0.0, math.pi], np.abs(np.angle(poles))))
    seen = mag(theta)
    best = float(np.max(seen))
    # s = infinity goes where |g| is least so far: the direct term d = g(-z0)
    # then stays well below every level (as r -> 0 the 1/r scaling swamps
    # the eigenvalues), and -z0 lies away from the poles, which keeps
    # I + A/z0 well conditioned.  With s = infinity fixed at z = -1, a peak
    # near pi just above |g(-1)| = best is lost to that scaling.
    z0 = -np.exp(1j * theta[np.argmin(seen)])
    eye = np.eye(n)
    inv = np.linalg.inv(eye + ss.A / z0)
    a = (ss.A / z0 - eye) @ inv
    b = math.sqrt(2.0) * (inv @ ss.b) / z0
    c = math.sqrt(2.0) * (ss.c @ inv)
    d = complex(g(-z0))
    while True:
        level = (1.0 + 2.0 * NORM_REL_TOL) * best
        r = level * level - abs(d) ** 2
        e = a + np.outer(b, c) * (d.conjugate() / r)
        ham = np.block([[e, np.outer(b, b.conj()) * (level / r)],
                        [np.outer(c.conj(), c) * (-level / r), -e.conj().T]])
        w = np.linalg.eigvals(ham).imag
        crossings = np.abs(np.angle(z0 * (1.0 + 1j * w) / (1.0 - 1j * w)))
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

    def output(self, x: np.ndarray, u: float) -> float:
        if self.order == 0:
            return self.d * u
        return float(self.c @ x + self.d * u)

    def advance(self, x: np.ndarray, u: float) -> np.ndarray:
        if self.order == 0:
            return x
        return self.A @ x + self.b * u

    def zero_state(self) -> np.ndarray:
        return np.zeros(self.order)


def realize(g: RationalTF, tol: float = REALIZE_CANCEL_TOL) -> StateSpace:
    """Controllable canonical realization after pole-zero cancellation.

    Parameters
    ----------
    g : RationalTF
        Proper transfer function.  Near-cancelling pole-zero pairs within
        ``tol`` are removed first; the returned order equals the degree of
        the denominator that remains.

    Returns
    -------
    StateSpace
    """
    if not g.is_proper:
        raise ValueError("cannot realize an improper transfer function")
    gc = cancel(g, tol).normalized()
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
