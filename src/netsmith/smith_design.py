"""Filtered Smith predictor construction for delayed discrete-time plants.

The predictor splits the total dead time into a fixed part (the nominal
plant delay d_hat plus the minimum network delay tau_n_min) and a
bounded variable remainder.  A robustness filter F with unit dc gain is
fitted so that the prediction block

    H(z) = P_hat(z) * (1 - z**(-tau_hat) * F(z))

is stable even when the nominal plant P_hat has poles on or outside the
unit circle: at every such pole the numerator factor
z**tau_hat * nu_F(z) - mu_F(z) is forced to zero (value and, for repeated
poles, derivatives), and the offending factors are deflated from H.
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

from .lti_core import (
    NumericError,
    Polynomial,
    RationalTF,
    cancel,
    roots,
)

F_DC_TOL = 1e-9
INTERP_RESIDUAL_TOL = 1e-6
STABLE_POLE_MARGIN = 1e-8
ROOT_CLUSTER_TOL = 1e-6
DEFLATION_MATCH_TOL = 1e-6


@dataclass
class PredictorDesign:
    """A complete predictor design plus its delay bookkeeping.

    Fields
    ------
    plant_nominal : RationalTF
        Delay-free part of the nominal plant model.
    controller, prefilter : RationalTF
        Feedback controller C and reference prefilter V, both designed
        against the delay-free nominal plant.
    filter : RationalTF
        Robustness filter F with F(1) = 1.
    predictor_block : RationalTF
        Stable prediction block H.
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
    predictor_block: RationalTF
    d_hat: int
    tau_n_min: int
    tau_n_max: int

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

    def validate(self) -> None:
        check_delay_bounds(self.d_hat, self.tau_n_min, self.tau_n_max)
        if abs(self.filter(1.0) - 1.0) > F_DC_TOL:
            raise ValueError("filter dc gain differs from 1")
        H = self.predictor_block
        if not H.is_zero and H.den.degree > 0:
            mods = np.abs(roots(H.den))
            if np.any(mods > 1.0 - STABLE_POLE_MARGIN):
                raise ValueError("predictor block has a pole on or outside the unit circle")
        for node, order, res in interpolation_residuals(
                self.plant_nominal, self.filter, self.tau_hat):
            if res > INTERP_RESIDUAL_TOL:
                raise ValueError(
                    f"interpolation residual {res:.3e} at z={node} (order {order}) "
                    f"exceeds {INTERP_RESIDUAL_TOL}")

    def to_dict(self) -> dict:
        return {
            "plant_nominal": self.plant_nominal.to_dict(),
            "controller": self.controller.to_dict(),
            "prefilter": self.prefilter.to_dict(),
            "filter": self.filter.to_dict(),
            "predictor_block": self.predictor_block.to_dict(),
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
            predictor_block=RationalTF.from_dict(d["predictor_block"]),
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
    """Group numerically repeated roots into (node, multiplicity) pairs."""
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
        clusters.append((complex(np.mean(members)), len(members)))
    return clusters


def _constraint_nodes(plant: RationalTF, slow_pole_threshold: float | None):
    """Poles of the plant at which the interpolation constraint applies.

    Returns one (node, multiplicity) per root cluster with |z| >= 1; with a
    slow-pole threshold, stable clusters of modulus >= threshold are added.
    Complex nodes are reported once per conjugate pair (imag > 0 half-plane).
    """
    if plant.den.degree == 0:
        return []
    nodes = []
    for z0, mult in _cluster_roots(list(roots(plant.den))):
        take = abs(z0) >= 1.0
        if not take and slow_pole_threshold is not None:
            take = abs(z0) >= slow_pole_threshold
        if not take:
            continue
        if abs(z0.imag) < ROOT_CLUSTER_TOL:
            nodes.append((complex(z0.real), mult))
        elif z0.imag > 0:
            nodes.append((z0, mult))
    return nodes


def _poly_derivative_rows(degree: int, z0: complex, order: int) -> np.ndarray:
    """Row of d^order/dz^order of the monomials z**degree .. z**0 at z0."""
    row = np.zeros(degree + 1, dtype=complex)
    for j in range(degree + 1):
        p = degree - j
        if p >= order:
            row[j] = math.perm(p, order) * z0 ** (p - order)
    return row


def design_filter(plant: RationalTF, tau_hat: int, lam: float,
                  slow_pole_threshold: float | None = None) -> RationalTF:
    """Fit the robustness filter F = mu_F / (z - lam)**n_F.

    The constraint set is F(1) = 1 plus, at every plant pole with
    |z| >= 1 (and optionally at stable poles with modulus above
    ``slow_pole_threshold``), the value and derivative conditions

        d^i/dz^i [ z**tau_hat * nu_F(z) - mu_F(z) ] = 0,  i < multiplicity.

    n_F is one less than the number of scalar constraints, which makes the
    linear system for the mu_F coefficients square.  A constraint node at
    z = 1 duplicates the dc-gain condition and is counted once.

    Parameters
    ----------
    plant : RationalTF
        Delay-free nominal plant model.
    tau_hat : int
        Compensated delay in samples, >= 1.
    lam : float
        Common filter pole location, 0 <= lam < 1.
    slow_pole_threshold : float, optional
        Also constrain stable plant poles with modulus >= this value.

    Returns
    -------
    RationalTF
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"filter pole must satisfy 0 <= lambda < 1; got {lam}")
    if tau_hat < 1:
        raise ValueError(f"compensated delay must be >= 1 sample; got {tau_hat}")
    nodes = _constraint_nodes(plant, slow_pole_threshold)

    n_rows = 1  # dc-gain row
    for z0, mult in nodes:
        rows = mult if abs(z0.imag) < ROOT_CLUSTER_TOL else 2 * mult
        if abs(z0 - 1.0) < ROOT_CLUSTER_TOL:
            rows -= 1  # value constraint at z=1 coincides with F(1)=1
        n_rows += rows
    n_f = n_rows - 1
    nu_f = Polynomial.from_roots([lam] * n_f)
    target = _shift_poly(nu_f, tau_hat)

    A = np.zeros((n_rows, n_f + 1))
    rhs = np.zeros(n_rows)
    A[0, :] = 1.0  # mu_F(1) = nu_F(1)
    rhs[0] = nu_f(1.0)
    r = 1
    for z0, mult in nodes:
        start = 1 if abs(z0 - 1.0) < ROOT_CLUSTER_TOL else 0
        for order in range(start, mult):
            row = _poly_derivative_rows(n_f, z0, order)
            target_der = target
            for _ in range(order):
                target_der = target_der.derivative()
            val = target_der(z0)
            if abs(z0.imag) < ROOT_CLUSTER_TOL:
                A[r, :] = row.real
                rhs[r] = val.real
                r += 1
            else:
                A[r, :] = row.real
                rhs[r] = val.real
                A[r + 1, :] = row.imag
                rhs[r + 1] = val.imag
                r += 2
    try:
        mu = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular interpolation system: {exc}") from exc
    return RationalTF(Polynomial(mu), nu_f, plant.h)


def interpolation_residuals(plant: RationalTF, filt: RationalTF, tau_hat: int):
    """Residuals of the stability constraint at each constrained plant pole.

    Returns a list of (node, derivative order, |residual|) triples for
    d^i/dz^i [ z**tau_hat * nu_F - mu_F ] at every plant pole with |z| >= 1.
    """
    out = []
    g = _shift_poly(filt.den, tau_hat) - filt.num
    for z0, mult in _constraint_nodes(plant, None):
        der = g
        for order in range(mult):
            out.append((z0, order, abs(der(z0))))
            der = der.derivative()
    return out


def build_H(plant: RationalTF, filt: RationalTF, tau_hat: int) -> RationalTF:
    """Assemble the stable prediction block H = P_hat (1 - z**(-tau_hat) F).

    The rational form is mu_hat (z**tau_hat nu_F - mu_F) over
    z**tau_hat nu_hat nu_F.  Every denominator root with modulus >=
    1 - STABLE_POLE_MARGIN must be matched by a numerator root within
    DEFLATION_MATCH_TOL and is removed by root-based deflation; a leftover
    unmatched root means the filter violates its interpolation constraint.
    """
    if tau_hat < 0:
        raise ValueError("compensated delay must be non-negative")
    num_factor = _shift_poly(filt.den, tau_hat) - filt.num
    num = plant.num * num_factor
    den = _shift_poly(plant.den * filt.den, tau_hat)
    if num.is_zero:
        return RationalTF([0.0], [1.0], plant.h)

    num_roots = list(roots(num)) if num.degree > 0 else []
    den_roots = list(roots(den)) if den.degree > 0 else []
    kept_den = []
    for p in den_roots:
        if abs(p) < 1.0 - STABLE_POLE_MARGIN:
            kept_den.append(p)
            continue
        match = None
        best = DEFLATION_MATCH_TOL * max(1.0, abs(p))
        for i, z in enumerate(num_roots):
            if abs(z - p) < best:
                match, best = i, abs(z - p)
        if match is None:
            raise NumericError(
                f"residual unstable pole at z={p}: filter does not satisfy the "
                f"interpolation constraint there")
        num_roots.pop(match)
    H = RationalTF(Polynomial.from_roots(num_roots, num.coeffs[0]),
                   Polynomial.from_roots(kept_den, den.coeffs[0]), plant.h)
    return cancel(H, DEFLATION_MATCH_TOL)


def make_design(plant: RationalTF, controller: RationalTF, prefilter: RationalTF,
                d_hat: int, tau_n_min: int, tau_n_max: int, lam: float = 0.9,
                slow_pole_threshold: float | None = None) -> PredictorDesign:
    """Run the full design sequence and return a validated PredictorDesign."""
    check_delay_bounds(d_hat, tau_n_min, tau_n_max)
    tau_hat = d_hat + tau_n_min
    filt = design_filter(plant, tau_hat, lam, slow_pole_threshold)
    block = build_H(plant, filt, tau_hat)
    design = PredictorDesign(plant_nominal=plant, controller=controller,
                             prefilter=prefilter, filter=filt,
                             predictor_block=block, d_hat=d_hat,
                             tau_n_min=tau_n_min, tau_n_max=tau_n_max)
    design.validate()
    return design


def delay_free_reference(design: PredictorDesign) -> RationalTF:
    """Reference-to-output transfer function with the dead time removed:
    V C P_hat / (1 + C P_hat)."""
    loop = design.controller * design.plant_nominal
    return design.prefilter * loop.feedback()


def nominal_closed_loop(design: PredictorDesign):
    """Nominal closed-loop transfer functions (constant total delay).

    Returns
    -------
    (T_r, T_d) : tuple of RationalTF
        T_r = V C P_hat D / (1 + C P_hat) from the reference and
        T_d = P_hat D [1 - C F P_hat D / (1 + C P_hat)] from a plant-input
        disturbance, where D = z**(-tau_hat).  Raises if T_r is unstable,
        which signals a controller that does not stabilize the delay-free
        plant.
    """
    D = RationalTF.delay(design.tau_hat, design.h)
    loop = design.controller * design.plant_nominal
    T = loop.feedback()
    T_r = design.prefilter * T * D
    T_d = design.plant_nominal * D * (RationalTF.constant(1.0, design.h)
                                      - design.filter * T * D)
    if T_r.den.degree > 0:
        mods = np.abs(roots(T_r.den))
        if np.any(mods > 1.0 - STABLE_POLE_MARGIN):
            raise NumericError("nominal reference loop is unstable")
    return T_r, T_d
