"""Small-gain stability certificates for the packetized predictor loop.

Two sufficiency tests are provided.  The nominal test certifies the
exact-model loop: the delay mismatch enters through

    M(z) = F(z) C(z) P_hat(z) / (1 + C(z) P_hat(z)) * (z-1)/z

and stability follows when ||M||_inf * alpha(protocol, tau_bar) < 1.
The uncertain test adds a multiplicative plant perturbation of gain
bound alpha_A and checks four strict inequalities coupling alpha_A with
the channel gain alpha_B and the four nominal loop gains.  Both tests
are sufficient only: a failed certificate is not a proof of instability.

Each test splits into a design factor and a channel factor, ||M||_inf
times alpha(protocol, tau_bar).  The design factors (T, M, ||M|| and the
loop gains) depend on the design alone, so they are computed once per
design and kept in its memo; only the channel gain is evaluated per
protocol and tau_bar.  The checks and the scan of max_certified_tau make
the decision in one place, so they cannot disagree.
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math

import numpy as np

from .gain_analysis import alpha_formula
from .lti_core import NumericError, RationalTF, inf_norm, roots
from .packet_channel import Protocol
from .smith_design import PredictorDesign, STABLE_POLE_MARGIN

SWEEP_POINTS = 512


def _diff_over_z(h: float) -> RationalTF:
    """(z-1)/z, the first-difference factor of the mismatch path."""
    return RationalTF([1.0, -1.0], [1.0, 0.0], h)


def _closed_loop(design: PredictorDesign) -> RationalTF:
    """T = C P_hat/(1 + C P_hat), once the delay-free loop is internally stable.

    Transfer-function arithmetic cancels no pole-zero pair, so T.den is the
    characteristic polynomial C.den P_hat.den + C.num P_hat.num itself: an
    unstable plant pole cancelled by a controller zero (or the reverse)
    stays among its roots and is caught.
    """
    T = (design.controller * design.plant_nominal).feedback()
    if np.any(np.abs(roots(T.den)) > 1.0 - STABLE_POLE_MARGIN):
        raise NumericError(
            "nominal loop is unstable: C.den*P_hat.den + C.num*P_hat.num has "
            "roots on or outside the unit circle")
    return T


def _T(design: PredictorDesign) -> RationalTF:
    return design._memoized("stability_criteria.T", _closed_loop)


def build_M(design: PredictorDesign) -> RationalTF:
    """Mismatch transfer function F * C P_hat/(1+C P_hat) * (z-1)/z."""
    return design.filter * _T(design) * _diff_over_z(design.h)


def _M(design: PredictorDesign) -> RationalTF:
    return design._memoized("stability_criteria.M", build_M)


def _norm_M(design: PredictorDesign) -> float:
    return design._memoized("stability_criteria.norm_M",
                            lambda d: inf_norm(_M(d)))


def _loop_gains(design: PredictorDesign):
    T = _T(design)
    alpha11 = inf_norm((1.0 - T) * _diff_over_z(design.h))
    alpha12 = inf_norm(design.filter * T)
    return alpha11, alpha12, _norm_M(design), alpha12


def nominal_loop_gains(design: PredictorDesign):
    """The four loop gains (alpha11, alpha12, alpha21, alpha22).

    alpha11 = ||S (z-1)/z|| with S = 1 - T, alpha12 = alpha22 = ||F T||,
    and alpha21 = ||F T (z-1)/z|| = ||M||, with T = C P_hat/(1+C P_hat).
    """
    return design._memoized("stability_criteria.gains", _loop_gains)


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
    binding: str

    def __post_init__(self):
        for name, val in self.component_gains.items():
            if val < 0:
                raise ValueError(f"component gain {name} is negative")

    @property
    def certified(self) -> bool:
        return self.margin > 0

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "not-certified"

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


def _binding(design: PredictorDesign, protocol: Protocol, tau_bar: int,
             alpha_A: float | None = None):
    """(binding, lhs, component_gains) of the certificate at tau_bar.

    alpha_A None selects the nominal test ||M|| * alpha < 1, a number
    selects the four strict inequalities of the uncertain test.  lhs is the left side
    of the binding inequality (the violated one when not certified), so
    the loop is certified exactly when lhs < 1.  A plain tuple, since the
    scan of max_certified_tau probes it many times per design.
    """
    alpha = alpha_formula(protocol, tau_bar)
    if alpha_A is None:
        norm_M = _norm_M(design)
        return "norm_M*alpha < 1", norm_M * alpha, {"norm_M": norm_M, "alpha": alpha}
    a11, a12, a21, a22 = nominal_loop_gains(design)
    c1, c2 = alpha * a21, alpha_A * a12
    cross = alpha_A * alpha * a11 * a22
    conds = [("alpha_B*alpha21 < 1", c1), ("alpha_A*alpha12 < 1", c2)]
    # a condition whose denominator is not positive is left out: its gate
    # inequality is >= 1 and in the list, so the largest lhs still decides
    if c1 < 1.0:
        conds.append(("alpha_A*alpha12 + alpha_A*alpha_B*alpha11*alpha22/(1-alpha_B*alpha21) < 1",
                      c2 + cross / (1.0 - c1)))
    if c2 < 1.0:
        conds.append(("alpha_B*alpha21 + alpha_A*alpha_B*alpha11*alpha22/(1-alpha_A*alpha12) < 1",
                      c1 + cross / (1.0 - c2)))
    binding, lhs = max(conds, key=lambda item: item[1])
    return binding, lhs, {"alpha_A": alpha_A, "alpha_B": alpha, "alpha11": a11,
                          "alpha12": a12, "alpha21": a21, "alpha22": a22}


def check_nominal(design: PredictorDesign, protocol) -> StabilityVerdict:
    """Certify the exact-model packetized loop: ||M|| * alpha < 1."""
    protocol = Protocol.coerce(protocol)
    binding, lhs, gains = _binding(design, protocol, design.tau_bar)
    return StabilityVerdict("nominal", protocol, design.tau_bar, 1.0 - lhs, gains, binding)


def _check_alpha_A(alpha_A: float) -> None:
    if not (math.isfinite(alpha_A) and alpha_A >= 0):
        raise ValueError("plant uncertainty gain bound alpha_A must be finite "
                         f"and non-negative; got {alpha_A!r}")


def check_uncertain(design: PredictorDesign, protocol,
                    alpha_A: float) -> StabilityVerdict:
    """Certify the loop under a plant perturbation of gain at most alpha_A.

    alpha_B is the protocol channel gain; with alpha_A = 0 the verdict
    coincides with check_nominal, and with tau_bar = 0 the test reduces
    to the classical small-gain condition alpha_A*alpha12 < 1.
    """
    _check_alpha_A(alpha_A)
    protocol = Protocol.coerce(protocol)
    binding, lhs, gains = _binding(design, protocol, design.tau_bar, alpha_A)
    return StabilityVerdict("uncertain", protocol, design.tau_bar, 1.0 - lhs, gains, binding)


def max_certified_tau(design: PredictorDesign, protocol,
                      alpha_A: float = 0.0) -> int:
    """Largest certified tau_bar, found by galloping and then bisection.

    The channel gain is non-decreasing in tau_bar for every protocol, so
    the certified tau_bar form an interval from 0: doubling brackets its
    end and bisection finds it.  Each probe is the test of check_nominal
    (alpha_A = 0) or check_uncertain.  Returns -1 when even tau_bar = 0
    fails (possible only with alpha_A > 0).  Raises ValueError when
    ||M|| = 0, since then every tau_bar is certified.
    """
    _check_alpha_A(alpha_A)
    protocol = Protocol.coerce(protocol)
    if _norm_M(design) == 0.0:
        raise ValueError("||M|| is 0, so every tau_bar is certified")
    test = alpha_A if alpha_A > 0 else None

    def certified(tb: int) -> bool:
        return _binding(design, protocol, tb, test)[1] < 1.0

    if not certified(0):
        return -1
    good, bad = 0, 1
    while certified(bad):
        good, bad = bad, 2 * bad
    while bad - good > 1:
        mid = (good + bad) // 2
        if certified(mid):
            good = mid
        else:
            bad = mid
    return good


def margin_sweep(design: PredictorDesign, protocol):
    """Frequency sweep of |M(e^{j w h})| * alpha in dB.

    Returns (omega, mag_db) arrays at SWEEP_POINTS frequencies over
    (0, pi/h]; the loop is certified when the whole curve stays below 0 dB.
    """
    protocol = Protocol.coerce(protocol)
    alpha = alpha_formula(protocol, design.tau_bar)
    omega = np.linspace(0.0, np.pi / design.h, SWEEP_POINTS + 1)[1:]
    mag = np.abs(_M(design)(np.exp(1j * omega * design.h))) * alpha
    floor = np.finfo(float).tiny
    return omega, 20.0 * np.log10(np.maximum(mag, floor))
