"""Small-gain stability certificates for the packetized predictor loop.

Two sufficiency tests are provided.  The nominal test certifies the
exact-model loop: the delay mismatch enters through

    M(z) = F(z) C(z) P_hat(z) / (1 + C(z) P_hat(z)) * (z-1)/z

and stability follows when ||M||_inf * alpha(protocol, tau_bar) < 1.
The uncertain test adds a multiplicative plant perturbation of gain
bound alpha_A and checks four strict inequalities coupling alpha_A with
the channel gain alpha_B and the four nominal loop gains.  Both tests
are sufficient only: a failed certificate is not a proof of instability.
"""
from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .gain_analysis import alpha_formula
from .lti_core import NumericError, RationalTF, inf_norm, roots
from .packet_channel import Protocol
from .smith_design import PredictorDesign, STABLE_POLE_MARGIN


def _diff_over_z(h: float) -> RationalTF:
    """(z-1)/z, the first-difference factor of the mismatch path."""
    return RationalTF([1.0, -1.0], [1.0, 0.0], h)


def _closed_loop(design: PredictorDesign) -> RationalTF:
    """T = C P_hat/(1 + C P_hat), once the delay-free loop is internally stable.

    The characteristic polynomial is rooted before any pole-zero pair is
    cancelled, so an unstable plant pole cancelled by a controller zero
    (or the reverse) is caught instead of vanishing from T.
    """
    C, P = design.controller, design.plant_nominal
    char = C.den * P.den + C.num * P.num
    if np.any(np.abs(roots(char)) > 1.0 - STABLE_POLE_MARGIN):
        raise NumericError(
            "nominal loop is unstable: C.den*P_hat.den + C.num*P_hat.num has "
            "roots on or outside the unit circle")
    return (C * P).feedback()


def build_M(design: PredictorDesign) -> RationalTF:
    """Mismatch transfer function F * C P_hat/(1+C P_hat) * (z-1)/z."""
    return design.filter * _closed_loop(design) * _diff_over_z(design.h)


def sensitivity(design: PredictorDesign) -> RationalTF:
    """S = 1/(1 + C P_hat)."""
    loop = design.controller * design.plant_nominal
    one = RationalTF.constant(1.0, design.h)
    return one - loop.feedback()


def nominal_loop_gains(design: PredictorDesign):
    """The four loop gains (alpha11, alpha12, alpha21, alpha22).

    alpha11 = ||S (z-1)/z||, alpha12 = alpha22 = ||F T||, and
    alpha21 = ||F T (z-1)/z|| = ||M||, with T = C P_hat/(1+C P_hat).
    """
    T = _closed_loop(design)
    dz = _diff_over_z(design.h)
    alpha11 = inf_norm(sensitivity(design) * dz)
    alpha12 = inf_norm(design.filter * T)
    alpha21 = inf_norm(build_M(design))
    return alpha11, alpha12, alpha21, alpha12


@dataclass(frozen=True)
class StabilityVerdict:
    """Result of one certificate check.

    margin is 1 minus the left-hand side of the binding inequality, so a
    positive margin means certified.  component_gains holds every gain
    entering the test; binding names the inequality that decided the
    verdict (the violated one when not certified).
    """
    criterion: str
    protocol: Protocol
    tau_bar: int
    margin: float
    component_gains: dict
    verdict: str
    binding: str

    def __post_init__(self):
        for name, val in self.component_gains.items():
            if val < 0:
                raise ValueError(f"component gain {name} is negative")
        if (self.verdict == "certified") != (self.margin > 0):
            raise ValueError("verdict does not match margin sign")

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "protocol": self.protocol.label,
            "tau_bar": self.tau_bar,
            "margin": self.margin,
            "component_gains": dict(self.component_gains),
            "verdict": self.verdict,
            "binding": self.binding,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def check_nominal(design: PredictorDesign, protocol) -> StabilityVerdict:
    """Certify the exact-model packetized loop: ||M|| * alpha < 1."""
    protocol = protocol if isinstance(protocol, Protocol) else Protocol(str(protocol))
    norm_M = inf_norm(build_M(design))
    alpha = alpha_formula(protocol, design.tau_bar)
    lhs = norm_M * alpha
    return StabilityVerdict(
        criterion="nominal",
        protocol=protocol,
        tau_bar=design.tau_bar,
        margin=1.0 - lhs,
        component_gains={"norm_M": norm_M, "alpha": alpha},
        verdict="certified" if lhs < 1.0 else "not-certified",
        binding="norm_M*alpha < 1",
    )


def _uncertain_conditions(alpha_A: float, alpha_B: float, gains):
    """The four strict inequalities as (label, lhs) pairs; a None lhs
    marks a condition whose denominator is not positive."""
    a11, a12, a21, a22 = gains
    c1 = ("alpha_B*alpha21 < 1", alpha_B * a21)
    c2 = ("alpha_A*alpha12 < 1", alpha_A * a12)
    cross = alpha_A * alpha_B * a11 * a22
    c3_lhs = (alpha_A * a12 + cross / (1.0 - alpha_B * a21)
              if c1[1] < 1.0 else None)
    c4_lhs = (alpha_B * a21 + cross / (1.0 - alpha_A * a12)
              if c2[1] < 1.0 else None)
    c3 = ("alpha_A*alpha12 + alpha_A*alpha_B*alpha11*alpha22/(1-alpha_B*alpha21) < 1", c3_lhs)
    c4 = ("alpha_B*alpha21 + alpha_A*alpha_B*alpha11*alpha22/(1-alpha_A*alpha12) < 1", c4_lhs)
    return [c1, c2, c3, c4]


def check_uncertain(design: PredictorDesign, protocol,
                    alpha_A: float) -> StabilityVerdict:
    """Certify the loop under a plant perturbation of gain at most alpha_A.

    alpha_B is the protocol channel gain; with alpha_A = 0 the verdict
    coincides with check_nominal, and with tau_bar = 0 the test reduces
    to the classical small-gain condition alpha_A*alpha12 < 1.
    """
    if alpha_A < 0:
        raise ValueError("plant uncertainty gain bound must be non-negative")
    protocol = protocol if isinstance(protocol, Protocol) else Protocol(str(protocol))
    gains = nominal_loop_gains(design)
    alpha_B = alpha_formula(protocol, design.tau_bar)
    conds = _uncertain_conditions(alpha_A, alpha_B, gains)

    # A None lhs means its gate inequality is >= 1, which is itself in the
    # list, so the largest evaluable lhs always decides the verdict.
    binding, worst = max(
        ((label, lhs) for label, lhs in conds if lhs is not None),
        key=lambda item: item[1])
    a11, a12, a21, a22 = gains
    return StabilityVerdict(
        criterion="uncertain",
        protocol=protocol,
        tau_bar=design.tau_bar,
        margin=1.0 - worst,
        component_gains={"alpha_A": alpha_A, "alpha_B": alpha_B,
                         "alpha11": a11, "alpha12": a12,
                         "alpha21": a21, "alpha22": a22},
        verdict="certified" if worst < 1.0 else "not-certified",
        binding=binding,
    )


def max_certified_tau(design: PredictorDesign, protocol,
                      alpha_A: float = 0.0, tau_limit: int = 1000) -> int:
    """Largest tau_bar certified by a linear scan from 0 upward.

    The channel gain is non-decreasing in tau_bar for every protocol, so
    the first failure ends the scan.  Returns -1 when even tau_bar = 0
    fails (possible only with alpha_A > 0).
    """
    protocol = protocol if isinstance(protocol, Protocol) else Protocol(str(protocol))
    gains = nominal_loop_gains(design) if alpha_A > 0 else None
    norm_M = inf_norm(build_M(design)) if gains is None else gains[2]
    best = -1
    for tb in range(tau_limit + 1):
        alpha_B = alpha_formula(protocol, tb)
        if alpha_A > 0:
            conds = _uncertain_conditions(alpha_A, alpha_B, gains)
            ok = all(lhs is not None and lhs < 1.0 for _, lhs in conds)
        else:
            ok = norm_M * alpha_B < 1.0
        if not ok:
            break
        best = tb
    return best


def margin_sweep(design: PredictorDesign, protocol, n: int = 512):
    """Frequency sweep of |M(e^{j w h})| * alpha in dB.

    Returns (omega, mag_db) arrays over (0, pi/h]; the loop is certified
    when the whole curve stays below 0 dB.
    """
    protocol = protocol if isinstance(protocol, Protocol) else Protocol(str(protocol))
    alpha = alpha_formula(protocol, design.tau_bar)
    M = build_M(design)
    omega = np.linspace(0.0, np.pi / design.h, n + 1)[1:]
    mag = np.abs([M(np.exp(1j * w * design.h)) for w in omega]) * alpha
    floor = np.finfo(float).tiny
    return omega, 20.0 * np.log10(np.maximum(mag, floor))
