"""Small-gain certification for the packetized loop."""

import dataclasses

import numpy as np
import pytest

from netsmith.gain_analysis import alpha_formula
from netsmith.lmi_assembly import assemble_augmented
from netsmith.lti_core import NumericError, RationalTF, inf_norm
from netsmith.packet_channel import Protocol
from netsmith.presets import demo_controller, demo_design, demo_plant, demo_prefilter
from netsmith.smith_design import make_design
from netsmith.stability_criteria import (StabilityVerdict, build_M, check_nominal,
                                         check_uncertain, margin_sweep,
                                         max_certified_tau, nominal_loop_gains)

NORM_M_FROZEN = 0.29673928967070895


def _at_tau(design, tau_bar):
    return dataclasses.replace(design, tau_n_max=design.tau_n_min + tau_bar)


def test_mismatch_norm_frozen():
    assert inf_norm(build_M(demo_design())) == pytest.approx(
        NORM_M_FROZEN, abs=1e-14)


def test_loop_gains_frozen():
    a11, a12, a21, a22 = nominal_loop_gains(demo_design())
    assert a11 == pytest.approx(2.1578366291068911, abs=1e-12)
    assert a12 == pytest.approx(2.0093431897545257, abs=1e-12)
    assert a21 == pytest.approx(NORM_M_FROZEN, abs=1e-14)
    assert a22 == a12


def test_nominal_margin_arithmetic():
    d = demo_design()
    v = check_nominal(_at_tau(d, 3), Protocol("p1"))
    assert v.margin == pytest.approx(1.0 - 3.0 * NORM_M_FROZEN, abs=1e-12)
    assert v.certified
    assert v.binding == "norm_M*alpha < 1"


def test_thresholds_at_default_filter_pole():
    d = demo_design()
    assert max_certified_tau(d, Protocol("p1")) == 3
    assert max_certified_tau(d, Protocol("p2")) == 2
    assert max_certified_tau(d, Protocol("p3")) == 2


def test_thresholds_at_slower_filter_pole():
    d = demo_design(lam=0.95)
    assert max_certified_tau(d, Protocol("p1")) == 4
    assert max_certified_tau(d, Protocol("p2")) == 3
    assert max_certified_tau(d, Protocol("p3")) == 2


def test_uncertainty_free_verdict_collapses_to_nominal():
    d = demo_design()
    for kind in ("p1", "p2", "p3"):
        for tb in (1, 2, 3, 4):
            at = _at_tau(d, tb)
            nom = check_nominal(at, Protocol(kind))
            unc = check_uncertain(at, Protocol(kind), alpha_A=0.0)
            assert unc.verdict == nom.verdict
            assert unc.margin == nom.margin  # bitwise


def test_zero_residual_delay_reduces_to_classical_condition():
    d = demo_design(tau_n_min=1, tau_n_max=1)
    assert d.tau_bar == 0
    _, a12, _, _ = nominal_loop_gains(d)
    crossing = 1.0 / a12
    for alpha_A in (0.1, 0.9 * crossing, 1.1 * crossing, 2.0):
        v = check_uncertain(d, Protocol("p1"), alpha_A=alpha_A)
        assert v.certified == (alpha_A * a12 < 1.0)


def test_uncertain_binding_label_names_worst_condition():
    d = demo_design()
    v = check_uncertain(_at_tau(d, 4), Protocol("p1"), alpha_A=0.01)
    # alpha_B*alpha21 = 4*0.2967 is the dominant term here
    assert "alpha_B*alpha21" in v.binding
    assert not v.certified


def test_uncertain_monotone_in_alpha_a():
    d = demo_design()
    margins = [check_uncertain(d, Protocol("p1"), alpha_A=a).margin
               for a in (0.0, 0.05, 0.1, 0.2)]
    assert all(b <= a for a, b in zip(margins, margins[1:]))


def test_uncertain_rejects_negative_alpha_a():
    with pytest.raises(ValueError):
        check_uncertain(demo_design(), Protocol("p1"), alpha_A=-0.5)


def test_scan_with_uncertainty_can_fail_at_zero():
    d = demo_design()
    _, a12, _, _ = nominal_loop_gains(d)
    assert max_certified_tau(d, Protocol("p1"), alpha_A=2.0 / a12) == -1


def test_verdict_invariants():
    with pytest.raises(ValueError):
        StabilityVerdict(criterion="nominal", protocol=Protocol("p1"),
                         tau_bar=1, margin=0.5,
                         component_gains={"norm_M": -1.0, "alpha": 1.0},
                         verdict="certified", binding="norm_M*alpha < 1")
    with pytest.raises(ValueError):
        StabilityVerdict(criterion="nominal", protocol=Protocol("p1"),
                         tau_bar=1, margin=-0.5,
                         component_gains={"norm_M": 1.0, "alpha": 1.0},
                         verdict="certified", binding="norm_M*alpha < 1")


def test_verdict_serialization():
    v = check_nominal(demo_design(), Protocol("p3"))
    d = v.to_dict()
    assert d["protocol"] == "p3-oldest"
    assert d["verdict"] == "certified"
    assert "norm_M" in d["component_gains"]


def test_margin_sweep_sign_agrees_with_verdict():
    d = demo_design()
    for tb in (2, 3, 4):
        at = _at_tau(d, tb)
        _, mag_db = margin_sweep(at, Protocol("p1"))
        certified = check_nominal(at, Protocol("p1")).certified
        assert (mag_db.max() < 0.0) == certified


def test_unstable_nominal_loop_raises():
    bad = make_design(demo_plant(), RationalTF.constant(1000.0, 1.0),
                      demo_prefilter(), d_hat=5, tau_n_min=0, tau_n_max=2)
    with pytest.raises(NumericError, match="unstable"):
        check_nominal(bad, Protocol("p1"))


def test_unstable_cancellation_raises():
    # the controller zero at 1.051 cancels the unstable plant pole
    bad = make_design(demo_plant(), RationalTF([5.0, -5.0 * 1.051], [1.0, -0.5]),
                      demo_prefilter(), d_hat=5, tau_n_min=0, tau_n_max=2)
    with pytest.raises(NumericError, match="unstable"):
        check_nominal(bad, Protocol("p1"))
    with pytest.raises(NumericError, match="unstable"):
        check_uncertain(bad, Protocol("p1"), alpha_A=0.02)
    with pytest.raises(NumericError, match="unstable"):
        max_certified_tau(bad, Protocol("p1"))


def _lifted_spectral_radius(design):
    """Spectral radius of xi_{k+1} = A_tilde xi_k + A_d_tilde xi_{k-D} with
    the constant delay D = d_hat + tau_n_min, on (xi_k, ..., xi_{k-D})."""
    m = assemble_augmented(design)
    n, D = m.n_xi, m.d_hat + m.tau_n_min
    L = np.zeros(((D + 1) * n, (D + 1) * n))
    L[:n, :n] = m.A_tilde
    L[:n, D * n:] += m.A_d_tilde
    L[n:, :-n] = np.eye(D * n)
    return float(np.max(np.abs(np.linalg.eigvals(L))))


def test_nominal_stability_matches_lifted_spectral_radius():
    # PI-type controllers k (z - a)/(z - 1) and lead-lag k (z - a)/(z - p)
    # around the demo plant, some with the zero on its pole at 1.051
    rng = np.random.default_rng(20261018)
    controllers = [RationalTF([5.0, -5.0 * 1.051], [1.0, -0.5])]
    for _ in range(80):
        k = float(np.exp(rng.uniform(np.log(8.0), np.log(150.0))))
        a = 1.051 if rng.uniform() < 0.2 else float(rng.uniform(0.9, 1.0))
        p = 1.0 if rng.uniform() < 0.7 else float(rng.uniform(-0.5, 0.9))
        controllers.append(RationalTF([k, -k * a], [1.0, -p]))
    verdicts = []
    for i, C in enumerate(controllers):
        d = make_design(demo_plant(), C, demo_prefilter(), d_hat=1 + i % 6,
                        tau_n_min=i % 3, tau_n_max=i % 3 + 2,
                        lam=0.8 + 0.15 * (i % 4) / 3)
        try:
            check_nominal(d, Protocol("p1"))
            stable = True
        except NumericError:
            stable = False
        assert stable == (_lifted_spectral_radius(d) < 1.0), C
        verdicts.append(stable)
    assert 10 < sum(verdicts) < len(verdicts) - 10
