"""Filtered Smith predictor construction for delayed discrete-time plants.

The predictor splits the total dead time into a fixed part (the nominal
plant delay d_hat plus the minimum network delay tau_n_min) and a
bounded variable remainder.  A robustness filter F = mu_F/nu_F with unit
dc gain is fitted so that the prediction block

    H(z) = P_hat(z) * (1 - z**(-tau_hat) * F(z))

is stable even when the nominal plant P_hat has poles on or outside the
unit circle.  Let den_u be the monic factor of the plant denominator
whose roots are those poles.  The one interpolation constraint is that
den_u divides z**tau_hat * nu_F(z) - mu_F(z), so the admissible mu_F are
the remainder of z**tau_hat * nu_F modulo den_u plus any multiple of
den_u; the filter takes the constant multiple that sets F(1) = 1.  den_u
is then divided out of H exactly, by polynomial division.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import json

import numpy as np

from .lti_core import (
    NumericError,
    Polynomial,
    RationalTF,
    roots,
)

F_DC_TOL = 1e-9
F_DC_RESOLUTION = 1e-5
INTERP_RESIDUAL_TOL = 1e-6
STABLE_POLE_MARGIN = 1e-8
ROOT_CLUSTER_TOL = 1e-6
AT_ONE_TOL = 1e-12
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PredictorDesign:
    """A complete predictor design plus its delay bookkeeping.

    A design is immutable: its fields cannot be reassigned, and its
    transfer functions must not be edited in place.  The consumers rely
    on this to compute each quantity that depends on the design alone
    (the prediction block H, the closed loop, ||M||, the loop gains, the
    stacked state matrices) once per design and keep it in a private
    per-instance memo.
    ``dataclasses.replace`` builds a new design with an empty memo.

    Fields
    ------
    plant_nominal : RationalTF
        Delay-free part of the nominal plant model.
    controller, prefilter : RationalTF
        Feedback controller C and reference prefilter V, both designed
        against the delay-free nominal plant.
    filter : RationalTF
        Robustness filter F with F(1) = 1.
    d_hat : int
        Nominal plant delay in samples.
    tau_n_min, tau_n_max : int
        Network delay bounds in samples (0 <= tau_n_min <= tau_n_max,
        tau_n_max >= 1).
    """

    plant_nominal: RationalTF
    controller: RationalTF
    prefilter: RationalTF
    filter: RationalTF
    d_hat: int
    tau_n_min: int
    tau_n_max: int
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _memoized(self, key: str, compute):
        """compute(self), evaluated on the first request for key only.

        A call that raises stores nothing, so it raises again next time.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]

    @property
    def tau_hat(self) -> int:
        """Fixed delay compensated by the predictor: d_hat + tau_n_min."""
        return self.d_hat + self.tau_n_min

    @property
    def tau_bar(self) -> int:
        """Residual variable-delay bound: tau_n_max - tau_n_min."""
        return self.tau_n_max - self.tau_n_min

    @property
    def h(self) -> float:
        return self.plant_nominal.h

    @property
    def predictor_block(self) -> RationalTF:
        """Prediction block H = build_H(plant_nominal, filter, tau_hat),
        built on first access.  It is derived, never stored, so every
        consumer reads the H that the small-gain certificate is proved for."""
        return self._memoized(
            "smith_design.H", lambda d: build_H(d.plant_nominal, d.filter, d.tau_hat))

    def validate(self) -> None:
        check_delay_bounds(self.d_hat, self.tau_n_min, self.tau_n_max)
        # F(1) = 1 as mu_F(1) = nu_F(1), each the sum of its coefficients:
        # F(1) itself divides mu_F's rounding by nu_F(1) = (1 - lam)^n_F, so
        # allow for the rounding of both sums, up to F_DC_RESOLUTION of nu_F(1)
        mu, nu = self.filter.num.coeffs.tolist(), self.filter.den.coeffs.tolist()
        dc = abs(sum(nu))
        rounding = 8 * (len(mu) + len(nu)) * EPS * sum(map(abs, mu + nu))
        if rounding > F_DC_RESOLUTION * dc:
            raise ValueError("filter dc gain not resolvable in double precision: "
                             f"coefficient rounding {rounding:.1e} against nu_F(1) = {dc:.1e}")
        if abs(sum(mu) - sum(nu)) > F_DC_TOL * dc + rounding:
            raise ValueError("filter dc gain differs from 1")
        # residuals before H, whose build_H raises NumericError on a filter
        # that breaks its constraint
        for node, order, res in interpolation_residuals(
                self.plant_nominal, self.filter, self.tau_hat):
            if res > INTERP_RESIDUAL_TOL:
                raise ValueError(
                    f"interpolation residual {res:.3e} at z={node} (order {order}) "
                    f"exceeds {INTERP_RESIDUAL_TOL}")
        H = self.predictor_block
        if not H.is_zero and H.den.degree > 0:
            mods = np.abs(roots(H.den))
            if np.any(mods > 1.0 - STABLE_POLE_MARGIN):
                raise ValueError("predictor block has a pole on or outside the unit circle")

    def to_dict(self) -> dict:
        return {
            "plant_nominal": self.plant_nominal.to_dict(),
            "controller": self.controller.to_dict(),
            "prefilter": self.prefilter.to_dict(),
            "filter": self.filter.to_dict(),
            "d_hat": self.d_hat,
            "tau_n_min": self.tau_n_min,
            "tau_n_max": self.tau_n_max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PredictorDesign":
        return cls(
            plant_nominal=RationalTF.from_dict(d["plant_nominal"]),
            controller=RationalTF.from_dict(d["controller"]),
            prefilter=RationalTF.from_dict(d["prefilter"]),
            filter=RationalTF.from_dict(d["filter"]),
            d_hat=int(d["d_hat"]),
            tau_n_min=int(d["tau_n_min"]),
            tau_n_max=int(d["tau_n_max"]),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PredictorDesign":
        return cls.from_dict(json.loads(text))


def check_delay_bounds(d_hat: int, tau_n_min: int, tau_n_max: int) -> None:
    """Validate the delay bookkeeping of a design.

    Requires d_hat >= 0, 0 <= tau_n_min <= tau_n_max, tau_n_max >= 1, and a
    positive compensated delay d_hat + tau_n_min >= 1.
    """
    if d_hat < 0:
        raise ValueError(f"plant delay must be non-negative; got {d_hat}")
    if not 0 <= tau_n_min <= tau_n_max:
        raise ValueError(
            f"network delay bounds must satisfy 0 <= tau_n_min <= tau_n_max; "
            f"got [{tau_n_min}, {tau_n_max}]")
    if tau_n_max < 1:
        raise ValueError("maximum network delay bound must be at least 1 sample")
    if d_hat + tau_n_min < 1:
        raise ValueError("compensated delay d_hat + tau_n_min must be at least 1 sample")


def _shift_poly(p: Polynomial, samples: int) -> Polynomial:
    """p(z) * z**samples."""
    if samples == 0:
        return p
    return Polynomial(np.concatenate([p.coeffs, np.zeros(samples)]))


def _cluster_roots(values, tol: float = ROOT_CLUSTER_TOL):
    """Group numerically repeated roots into (node, members) pairs, node
    being the members' mean."""
    remaining = list(values)
    clusters = []
    while remaining:
        z0 = remaining.pop(0)
        members = [z0]
        keep = []
        for z in remaining:
            if abs(z - z0) < tol * max(1.0, abs(z0)):
                members.append(z)
            else:
                keep.append(z)
        remaining = keep
        clusters.append((complex(sum(members) / len(members)), members))
    return clusters


def _unstable_poles(plant: RationalTF, slow_pole_threshold: float | None = None):
    """The plant poles the filter interpolates: the roots of the plant's
    unstable factor den_u = Polynomial.from_roots(_unstable_poles(plant)).

    These are the poles with |z| >= 1 - STABLE_POLE_MARGIN and, with a
    slow-pole threshold, the stable poles with |z| >= threshold.  Each
    factor (z - 1) dividing the denominator up to AT_ONE_TOL relative
    rounding is divided out first and enters as an exact 1.0.  The other
    roots are tested by root cluster, on the cluster's mean, so a repeated
    pole that np.roots splits across the circle is taken whole or not at all.
    """
    den, picked = plant.den, []
    while den.degree > 0:
        c = den.coeffs.tolist()
        if abs(sum(c)) > AT_ONE_TOL * sum(map(abs, c)):
            break
        den = Polynomial(np.cumsum(den.coeffs)[:-1])  # synthetic division by (z - 1)
        picked.append(1.0)
    for z0, members in _cluster_roots(roots(den).tolist()):
        if abs(z0) >= 1.0 - STABLE_POLE_MARGIN or (
                slow_pole_threshold is not None and abs(z0) >= slow_pole_threshold):
            picked.extend(members)
    return picked


def _constraint_nodes(plant: RationalTF):
    """The plant's unstable poles as (node, multiplicity) pairs.

    Complex nodes are reported once per conjugate pair (imag > 0 half-plane).
    """
    nodes = []
    for z0, members in _cluster_roots(_unstable_poles(plant)):
        if abs(z0.imag) < ROOT_CLUSTER_TOL:
            nodes.append((complex(z0.real), len(members)))
        elif z0.imag > 0:
            nodes.append((z0, len(members)))
    return nodes


def design_filter(plant: RationalTF, tau_hat: int, lam: float,
                  slow_pole_threshold: float | None = None) -> RationalTF:
    """Fit the robustness filter F = mu_F / (z - lam)**n_F.

    Let den_u be the plant's unstable factor, the monic polynomial whose
    roots are the poles ``_unstable_poles`` picks.  The constraints are
    F(1) = 1 and

        den_u divides z**tau_hat * nu_F(z) - mu_F(z),

    which is the value and derivative conditions at every root of den_u.
    n_F = deg den_u, so mu_F = (z**tau_hat nu_F mod den_u) + c den_u with
    the scalar c fixed by F(1) = 1.  When den_u has a root at z = 1 it
    already implies F(1) = 1, so n_F = deg den_u - 1 and mu_F is the
    remainder alone.

    Parameters
    ----------
    plant : RationalTF
        Delay-free nominal plant model.
    tau_hat : int
        Compensated delay in samples, >= 1.
    lam : float
        Common filter pole location, 0 <= lam < 1.
    slow_pole_threshold : float, optional
        Also constrain stable plant poles with modulus >= this value,
        which must be finite with 0 <= threshold < 1.

    Returns
    -------
    RationalTF
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"filter pole must satisfy 0 <= lambda < 1; got {lam}")
    if tau_hat < 1:
        raise ValueError(f"compensated delay must be >= 1 sample; got {tau_hat}")
    if slow_pole_threshold is not None and not 0.0 <= slow_pole_threshold < 1.0:
        raise ValueError("slow-pole threshold must satisfy 0 <= threshold < 1; "
                         f"got {slow_pole_threshold!r}")
    poles = _unstable_poles(plant, slow_pole_threshold)
    at_one = 1.0 in poles
    den_u = Polynomial.from_roots(poles)
    nu_f = Polynomial.from_roots([lam] * (den_u.degree - at_one))
    mu_f = divmod(_shift_poly(nu_f, tau_hat), den_u)[1]
    if not at_one:  # add the multiple of den_u that sets F(1) = 1
        c = (nu_f(1.0) - mu_f(1.0)) / den_u(1.0)
        mu_f = mu_f + Polynomial(c * den_u.coeffs)
    return RationalTF(mu_f, nu_f, plant.h)


def interpolation_residuals(plant: RationalTF, filt: RationalTF, tau_hat: int):
    """Residuals of the stability constraint at each unstable plant pole.

    Returns a list of (node, derivative order, |residual|) triples for
    d^i/dz^i [ z**tau_hat * nu_F - mu_F ] at every root of the plant's
    unstable factor, i < its multiplicity: the derivative form of the
    divisibility that ``design_filter`` builds, evaluated independently.
    """
    out = []
    g = _shift_poly(filt.den, tau_hat) - filt.num
    for z0, mult in _constraint_nodes(plant):
        der = g
        for order in range(mult):
            out.append((z0, order, abs(der(z0))))
            der = der.derivative()
    return out


def _exact_quotient(dividend: Polynomial, den_u: Polynomial, what: str) -> Polynomial:
    """dividend / den_u, or NumericError when the remainder exceeds
    INTERP_RESIDUAL_TOL relative to the dividend's largest coefficient."""
    q, rem = divmod(dividend, den_u)
    residual = np.max(np.abs(rem.coeffs)) / np.max(np.abs(dividend.coeffs))
    if residual > INTERP_RESIDUAL_TOL:
        raise NumericError(f"relative remainder {residual:.3e}: {what}")
    return q


def build_H(plant: RationalTF, filt: RationalTF, tau_hat: int) -> RationalTF:
    """Assemble the stable prediction block H = P_hat (1 - z**(-tau_hat) F).

    The rational form is mu_hat (z**tau_hat nu_F - mu_F) over
    z**tau_hat nu_hat nu_F.  The interpolation constraint makes the plant's
    unstable factor den_u (the one ``design_filter`` interpolates, without
    slow poles) divide z**tau_hat nu_F - mu_F, so polynomial division takes
    it out of numerator and denominator alike:

        H = mu_hat q / (z**tau_hat (nu_hat / den_u) nu_F),
        q = (z**tau_hat nu_F - mu_F) / den_u.

    Raises NumericError when either division leaves a remainder above
    INTERP_RESIDUAL_TOL relative to its dividend; for z**tau_hat nu_F - mu_F
    that means the filter violates its interpolation constraint.
    """
    if tau_hat < 0:
        raise ValueError("compensated delay must be non-negative")
    num_factor = _shift_poly(filt.den, tau_hat) - filt.num
    if plant.num.is_zero or num_factor.is_zero:
        return RationalTF([0.0], [1.0], plant.h)
    den_u = Polynomial.from_roots(_unstable_poles(plant))
    q = _exact_quotient(num_factor, den_u, "unstable plant poles do not divide "
                        "z**tau_hat nu_F - mu_F: the filter does not satisfy its "
                        "interpolation constraint")
    stable_den = _exact_quotient(plant.den, den_u, "unstable plant poles do not "
                                 "divide the plant denominator")
    return RationalTF(plant.num * q,
                      _shift_poly(stable_den * filt.den, tau_hat), plant.h)


def make_design(plant: RationalTF, controller: RationalTF, prefilter: RationalTF,
                d_hat: int, tau_n_min: int, tau_n_max: int, lam: float = 0.9,
                slow_pole_threshold: float | None = None) -> PredictorDesign:
    """Run the full design sequence and return a validated PredictorDesign."""
    check_delay_bounds(d_hat, tau_n_min, tau_n_max)
    filt = design_filter(plant, d_hat + tau_n_min, lam, slow_pole_threshold)
    design = PredictorDesign(plant_nominal=plant, controller=controller,
                             prefilter=prefilter, filter=filt, d_hat=d_hat,
                             tau_n_min=tau_n_min, tau_n_max=tau_n_max)
    design.validate()
    return design


def delay_free_reference(design: PredictorDesign) -> RationalTF:
    """Reference-to-output transfer function with the dead time removed:
    V C P_hat / (1 + C P_hat) = V.num T.num / (V.den T.den).  A root
    cluster of V.den that T.num shares (a prefilter pole placed on a
    controller zero) is divided out of both, once per multiplicity, while
    dividing T.num leaves a remainder within ROOT_CLUSTER_TOL of it."""
    V, T = design.prefilter, (design.controller * design.plant_nominal).feedback()
    num, den = T.num, V.den
    for z0, members in _cluster_roots(list(roots(V.den))):
        if z0.imag < -ROOT_CLUSTER_TOL:
            continue  # taken with its conjugate
        pair = [z0.real] if abs(z0.imag) < ROOT_CLUSTER_TOL else [z0, z0.conjugate()]
        factor = Polynomial.from_roots(pair)
        for _ in members:
            q, rem = divmod(num, factor)
            if np.max(np.abs(rem.coeffs)) > ROOT_CLUSTER_TOL * np.max(np.abs(num.coeffs)):
                break
            num, den = q, divmod(den, factor)[0]
    return RationalTF(V.num * num, den * T.den, V.h)

