"""Small-gain certification for the packetized loop."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from netsmith.gain_analysis import alpha_formula
from netsmith.lmi_assembly import assemble_augmented
from netsmith.lti_core import NumericError, RationalTF, inf_norm
from netsmith.packet_channel import Protocol
from netsmith.presets import demo_controller, demo_design, demo_plant, demo_prefilter
from netsmith.smith_design import PredictorDesign, make_design
import netsmith.stability_criteria as sc
from netsmith.stability_criteria import (StabilityVerdict, build_M, check_nominal,
                                         check_uncertain, margin_sweep,
                                         max_certified_tau, nominal_loop_gains)
from test_acceptance import _random_design_suite

# 40-digit references, from the demo design's float coefficients taken as
# exact rationals
NORM_M_FROZEN = 0.29673928967024968726


def _at_tau(design, tau_bar):
    return dataclasses.replace(design, tau_n_max=design.tau_n_min + tau_bar)


def test_mismatch_norm_frozen():
    assert inf_norm(build_M(demo_design())) == pytest.approx(
        NORM_M_FROZEN, abs=1e-14)


def test_loop_gains_frozen():
    a11, a12, a21, a22 = nominal_loop_gains(demo_design())
    assert a11 == pytest.approx(2.1578366291066440259, abs=1e-12)
    assert a12 == pytest.approx(2.0093431897940687391, abs=1e-12)
    assert a21 == pytest.approx(NORM_M_FROZEN, abs=1e-14)
    assert a22 == a12


def test_nominal_margin_arithmetic():
    d = demo_design()
    v = check_nominal(_at_tau(d, 3), Protocol("p1"))
    assert v.margin == pytest.approx(1.0 - 3.0 * NORM_M_FROZEN, abs=1e-12)
    assert v.certified
    assert v.binding == "norm_M*alpha < 1"


def _exact(coeffs):
    return [Fraction(float(c)) for c in coeffs]


def _exact_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_add(a, b):
    n = max(len(a), len(b))
    a = [Fraction(0)] * (n - len(a)) + a
    b = [Fraction(0)] * (n - len(b)) + b
    return [x + y for x, y in zip(a, b)]


def _assert_coeffs_near(got, want, rel):
    assert len(got) == len(want)
    err = max(abs(Fraction(float(g)) - w) for g, w in zip(got, want))
    assert float(err / max(abs(w) for w in want)) <= rel


def test_closed_loop_is_the_exact_coefficient_product():
    # the demo design, and a random-suite controller k (z - a)/(z - 1) whose
    # zero sits on the plant pole a: T keeps that pair, so its degrees are
    # those of C.num P.num / (C.den P.den + C.num P.num)
    cancelling = _random_design_suite(21)[0][0]
    for d in (demo_design(), cancelling):
        C, P = d.controller, d.plant_nominal
        num = _exact_mul(_exact(C.num.coeffs), _exact(P.num.coeffs))
        den = _exact_add(_exact_mul(_exact(C.den.coeffs), _exact(P.den.coeffs)), num)
        T = sc._T(d)
        _assert_coeffs_near(T.num.coeffs, num, 1e-15)
        _assert_coeffs_near(T.den.coeffs, den, 1e-15)
    assert sc._T(cancelling).den.degree == 2


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


@pytest.mark.parametrize("alpha_A", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("fn", [check_uncertain, max_certified_tau],
                         ids=["check_uncertain", "max_certified_tau"])
def test_ill_posed_alpha_a_raises(fn, alpha_A):
    with pytest.raises(ValueError, match="alpha_A"):
        fn(demo_design(), Protocol("p1"), alpha_A=alpha_A)


def test_scan_with_uncertainty_can_fail_at_zero():
    d = demo_design()
    _, a12, _, _ = nominal_loop_gains(d)
    assert max_certified_tau(d, Protocol("p1"), alpha_A=2.0 / a12) == -1


def _weak_loop(controller_gain):
    plant = RationalTF([0.5, -0.2], [1.0, -0.6], 1.0)
    return make_design(plant, RationalTF.constant(controller_gain, 1.0),
                       demo_prefilter(), d_hat=2, tau_n_min=0, tau_n_max=2)


def test_scan_finds_thresholds_beyond_a_thousand():
    # ||M|| = 8.746e-4, so p1 certifies up to floor(1/||M||) = 1143
    d = _weak_loop(0.001)
    assert [max_certified_tau(d, Protocol(k)) for k in ("p1", "p2", "p3")] == [
        1143, 749, 748]
    assert [max_certified_tau(d, Protocol(k), alpha_A=0.01) for k in ("p2", "p3")] == [
        736, 735]
    assert check_nominal(_at_tau(d, 1143), Protocol("p1")).certified
    assert not check_nominal(_at_tau(d, 1144), Protocol("p1")).certified


def _linear_scan(design, protocol, alpha_A):
    tb = 0
    while check_uncertain(_at_tau(design, tb), protocol, alpha_A).certified:
        tb += 1
    return tb - 1


def test_scan_matches_a_linear_scan():
    for d, proto in _random_design_suite(60):
        for alpha_A in (0.0, 0.03, 0.3):
            assert max_certified_tau(d, proto, alpha_A) == _linear_scan(d, proto, alpha_A)


def test_scan_refuses_a_zero_mismatch():
    with pytest.raises(ValueError, match="every tau_bar"):
        max_certified_tau(_weak_loop(0.0), Protocol("p1"))


def test_verdict_invariants():
    with pytest.raises(ValueError):
        StabilityVerdict(criterion="nominal", protocol=Protocol("p1"),
                         tau_bar=1, margin=0.5,
                         component_gains={"norm_M": -1.0, "alpha": 1.0},
                         binding="norm_M*alpha < 1")


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


@pytest.mark.parametrize("lam,kind", [(0.9, "p1"), (0.95, "p2"), (0.85, "p3")])
def test_margin_sweep_equals_per_frequency_evaluation(lam, kind):
    d = demo_design(lam=lam, h=0.5)
    omega, mag_db = margin_sweep(d, Protocol(kind))
    M = build_M(d)
    alpha = alpha_formula(Protocol(kind), d.tau_bar)
    mag = np.abs([M(np.exp(1j * w * d.h)) for w in omega]) * alpha
    assert np.array_equal(omega, np.linspace(0.0, np.pi / d.h, 513)[1:])
    assert np.array_equal(mag_db, 20.0 * np.log10(np.maximum(mag, np.finfo(float).tiny)))


def _counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_design_factors_computed_once_per_design(monkeypatch):
    calls = {}
    _counting(monkeypatch, sc, "inf_norm", calls)
    _counting(monkeypatch, sc, "build_M", calls)
    d = demo_design()
    for kind in ("p1", "p2", "p3"):
        check_nominal(d, Protocol(kind))
        max_certified_tau(d, Protocol(kind))
        max_certified_tau(d, Protocol(kind), alpha_A=0.02)
    check_uncertain(d, Protocol("p1"), alpha_A=0.02)
    margin_sweep(d, Protocol("p2"))
    nominal_loop_gains(d)
    assert calls == {"inf_norm": 3, "build_M": 1}


def test_design_is_frozen_and_replace_starts_from_an_empty_memo():
    d = demo_design()
    gains = nominal_loop_gains(d)
    slower = demo_design(lam=0.95)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.filter = slower.filter
    swapped = dataclasses.replace(d, filter=slower.filter)
    rebuilt = PredictorDesign.from_dict({**d.to_dict(),
                                         "filter": slower.filter.to_dict()})
    assert nominal_loop_gains(swapped) == nominal_loop_gains(rebuilt)
    assert nominal_loop_gains(swapped) == nominal_loop_gains(slower) != gains
    assert nominal_loop_gains(d) == gains


def _design_queries(design):
    """Every design-only result the certificates report, by name."""
    queries = {"gains": lambda: nominal_loop_gains(design)}
    for kind in ("p1", "p2", "p3"):
        p = Protocol(kind)
        queries.update({
            f"{kind} nominal": lambda p=p: check_nominal(design, p).to_dict(),
            f"{kind} uncertain": lambda p=p: check_uncertain(design, p, 0.03).to_dict(),
            f"{kind} scan": lambda p=p: max_certified_tau(design, p),
            f"{kind} scan uncertain": lambda p=p: max_certified_tau(design, p, 0.03),
            f"{kind} sweep": lambda p=p: [a.tolist() for a in margin_sweep(design, p)],
        })
    return queries


def test_memoized_design_matches_a_fresh_copy_queried_in_another_order():
    rng = np.random.default_rng(2026)
    for _ in range(12):
        tmax = int(rng.integers(1, 5))
        d = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                        d_hat=int(rng.integers(1, 11)),
                        tau_n_min=int(rng.integers(0, tmax)), tau_n_max=tmax,
                        lam=float(rng.uniform(0.8, 0.97)))
        memoized = _design_queries(d)
        for query in memoized.values():
            query()
        fresh = _design_queries(PredictorDesign.from_dict(d.to_dict()))
        want = {name: fresh[name]() for name in reversed(list(fresh))}
        assert {name: query() for name, query in memoized.items()} == want


def test_unstable_nominal_loop_raises():
    bad = make_design(demo_plant(), RationalTF.constant(1000.0, 1.0),
                      demo_prefilter(), d_hat=5, tau_n_min=0, tau_n_max=2)
    with pytest.raises(NumericError, match="unstable"):
        check_nominal(bad, Protocol("p1"))


def test_unstable_cancellation_raises():
    # the controller zero at 1.051 cancels the unstable plant pole
    bad = make_design(demo_plant(), RationalTF([5.0, -5.0 * 1.051], [1.0, -0.5]),
                      demo_prefilter(), d_hat=5, tau_n_min=0, tau_n_max=2)
    for _ in range(2):  # a failure is not memoized: it raises every time
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
