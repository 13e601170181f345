"""Predictor design: robustness filter, interpolation, prediction block.

The reference numbers for the worked example were recomputed from the
design equations with an independent linear solve below, then frozen.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from filter_reference import _cluster_roots
from filter_reference import design_filter as reference_design_filter
from netsmith import smith_design
from netsmith.lti_core import NumericError, Polynomial, RationalTF, roots
from netsmith.presets import demo_controller, demo_design, demo_plant, demo_prefilter
from netsmith.smith_design import (PredictorDesign, build_H, check_delay_bounds,
                                   delay_free_reference, design_filter,
                                   interpolation_residuals, make_design)

LAM = 0.9


def test_demo_filter_matches_independent_solve():
    """Recompute the 2x2 interpolation system by hand and compare."""
    d = demo_design()
    F = d.filter
    z0 = 1.051
    # mu_F = a*z + b with (z-lam) denominator; F(1)=1 and
    # z^tau_hat (z-lam) - mu_F = 0 at the unstable plant pole
    A = np.array([[1.0, 1.0], [z0, 1.0]])
    rhs = np.array([1.0 - LAM, z0 ** 5 * (z0 - LAM)])
    a, b = np.linalg.solve(A, rhs)
    assert F.num.coeffs == pytest.approx([a, b], abs=1e-12)
    assert list(F.den.coeffs) == [1.0, -LAM]


def test_demo_filter_frozen_snapshot():
    F = demo_design().filter
    assert F.num.coeffs == pytest.approx(
        [1.836038683050351, -1.7360386830503511], abs=1e-12)
    assert F(1.0) == pytest.approx(1.0, abs=1e-9)


def test_demo_interpolation_residuals_vanish():
    d = demo_design()
    res = interpolation_residuals(d.plant_nominal, d.filter, d.tau_hat)
    assert len(res) == 1
    node, order, r = res[0]
    assert node == pytest.approx(1.051)
    assert order == 0
    assert r < 1e-9


def test_demo_prediction_block_is_stable():
    H = demo_design().predictor_block
    assert H.den.degree == 6
    mods = np.abs(roots(H.den))
    assert mods.max() == pytest.approx(0.9, abs=1e-9)


def test_demo_delay_free_reference_frozen():
    # 40-digit reference: the controller zero cancels the prefilter pole,
    # leaving C.num[0] P.num V.num over C.den P.den + C.num P.num
    T = delay_free_reference(demo_design()).normalized()
    assert T.num.coeffs == pytest.approx(
        [0.025000386024768000616, -0.022500347422291202653], abs=1e-15)
    assert T.den.coeffs == pytest.approx(
        [1.0, -1.8997300415999999308, 0.90222599591359991776], abs=1e-15)


def test_delay_free_reference_cancels_one_of_a_double_prefilter_pole():
    # both prefilter poles sit on the controller zero at 0.9835, which
    # T.num has once: exactly one factor cancels
    d = demo_design()
    V = RationalTF(Polynomial.from_roots([0.9, 0.9], 0.16527 ** 2).coeffs,
                   Polynomial.from_roots([0.9835, 0.9835]).coeffs, 1.0)
    ref = delay_free_reference(dataclasses.replace(d, prefilter=V))
    assert (ref.num.degree, ref.den.degree) == (2, 3)
    assert sorted(roots(ref.den).real)[-1] == pytest.approx(0.9835, abs=1e-12)
    full = V * (d.controller * d.plant_nominal).feedback()
    for z in np.exp(1j * np.linspace(0.01, np.pi, 7)):
        assert ref(z) == pytest.approx(full(z), rel=1e-9)


def test_filter_order_one_per_extra_constraint():
    # two real unstable poles need a second-order filter denominator
    plant = RationalTF([0.01], Polynomial.from_roots([1.2, 1.05], 1.0).coeffs, 1.0)
    F = design_filter(plant, 3, LAM)
    assert F.den.degree == 2
    for _, _, r in interpolation_residuals(plant, F, 3):
        assert r < 1e-8
    assert F(1.0) == pytest.approx(1.0, abs=1e-9)


def test_filter_conjugate_pair_counts_once():
    # poles 1.05 +/- 0.1j give two constraint rows (re, im), so with
    # F(1)=1 the filter denominator is quadratic
    plant = RationalTF([0.02], [1.0, -2.1, 1.1125], 1.0)
    F = design_filter(plant, 2, LAM)
    assert F.den.degree == 2
    for _, _, r in interpolation_residuals(plant, F, 2):
        assert r < 1e-8


def test_integrator_plant_dedupes_unit_node():
    # the pole at z=1 shares its constraint with F(1)=1
    plant = RationalTF([1.0], [1.0, -1.0], 1.0)
    F = design_filter(plant, 3, LAM)
    assert F.den.degree == 0
    assert F(1.0) == pytest.approx(1.0)
    H = build_H(plant, F, 3)
    if H.den.degree > 0:
        assert np.abs(roots(H.den)).max() < 1.0 - 1e-8


def test_double_integrator_keeps_derivative_row():
    plant = RationalTF([1.0], [1.0, -2.0, 1.0], 1.0)
    F = design_filter(plant, 2, LAM)
    assert F.den.degree == 1
    res = interpolation_residuals(plant, F, 2)
    assert any(order == 1 for _, order, _ in res)
    for _, _, r in res:
        assert r < 1e-8


def test_slow_pole_compensation_is_opt_in():
    plant = RationalTF([0.1], [1.0, -0.95], 1.0)
    F_plain = design_filter(plant, 2, LAM)
    assert F_plain.den.degree == 0
    F_slow = design_filter(plant, 2, LAM, slow_pole_threshold=0.9)
    assert F_slow.den.degree == 1
    for _, _, r in interpolation_residuals(plant, F_slow, 2):
        assert r < 1e-8


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -0.1, 1.0, 1.5])
def test_slow_pole_threshold_must_lie_in_unit_interval(threshold):
    plant = RationalTF([0.1], [1.0, -0.95], 1.0)
    with pytest.raises(ValueError, match="slow-pole threshold"):
        design_filter(plant, 2, LAM, slow_pole_threshold=threshold)


@pytest.mark.parametrize(
    "radius,repeat", [(1.0, 1), (1.0 - 5e-9, 1), (1.0, 2), (1.0 - 5e-9, 2)],
    ids=["1.0", "0.999999995", "1.0-twice", "0.999999995-twice"])
def test_undamped_pole_pair_designs(radius, repeat):
    # np.roots returns this pair up to a rounding error inside the unit
    # circle, and splits a repeated one radially across it; the filter must
    # interpolate every pole all the same
    poles = [radius * np.exp(0.3j), radius * np.exp(-0.3j)] * repeat
    plant = RationalTF([0.01], Polynomial.from_roots(poles).coeffs, 1.0)
    d = make_design(plant, RationalTF.constant(0.5, 1.0), demo_prefilter(),
                    d_hat=3, tau_n_min=0, tau_n_max=2)
    assert d.filter.den.degree == 2 * repeat
    # F(1) = mu_F(1) / (1 - lam)**n_F: each pair scales mu_F's rounding by 100
    assert d.filter(1.0) == pytest.approx(1.0, abs=1e-12 * 100 ** (repeat - 1))
    res = interpolation_residuals(plant, d.filter, d.tau_hat)
    assert [(order, node.imag > 0) for node, order, _ in res] == [
        (order, True) for order in range(repeat)]
    assert max(r for _, _, r in res) < 1e-12
    H = d.predictor_block
    assert H.den.degree == 3 + 2 * repeat
    assert np.abs(roots(H.den)).max() < 0.95


def test_stable_pole_near_one_is_not_taken_as_an_integrator():
    # (z - 1) does not divide z - 0.9999995: the pole is stable and is not
    # interpolated, so F = 1 and H = P (1 - z**-tau_hat) vanishes at z = 1
    plant = RationalTF([0.01], [1.0, -0.9999995], 1.0)
    for tau_hat in (1, 3, 10):
        F = design_filter(plant, tau_hat, LAM)
        assert F.num.coeffs.tolist() == [1.0] and F.den.coeffs.tolist() == [1.0]
        assert build_H(plant, F, tau_hat)(1.0) == 0.0


def test_prediction_block_refuses_a_misplaced_unstable_factor(monkeypatch):
    # F = 1 satisfies the constraint at a claimed pole 1, but z - 1 does not
    # divide the plant's denominator z - 0.99
    plant = RationalTF([0.01], [1.0, -0.99], 1.0)
    monkeypatch.setattr(smith_design, "_unstable_poles", lambda plant: [1.0])
    with pytest.raises(NumericError, match="plant denominator"):
        build_H(plant, RationalTF.constant(1.0, 1.0), 3)


def test_prediction_block_cancels_unstable_plant_pole():
    d = demo_design()
    H = build_H(d.plant_nominal, d.filter, d.tau_hat)
    # no pole of H may sit at the open-loop unstable plant pole
    if H.den.degree > 0:
        assert np.min(np.abs(roots(H.den) - 1.051)) > 0.1


def test_delay_bounds_validation_messages():
    with pytest.raises(ValueError, match="non-negative"):
        check_delay_bounds(-1, 0, 2)
    with pytest.raises(ValueError):
        check_delay_bounds(2, 3, 1)
    with pytest.raises(ValueError):
        check_delay_bounds(2, 0, 0)
    with pytest.raises(ValueError):
        check_delay_bounds(0, 0, 2)  # predictor needs at least one sample
    check_delay_bounds(5, 0, 2)


def test_make_design_validates_result():
    d = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                    d_hat=5, tau_n_min=0, tau_n_max=2, lam=LAM)
    assert d.tau_hat == 5
    assert d.tau_bar == 2
    d.validate()


def test_validate_rejects_tampered_filter():
    d = demo_design()
    import dataclasses
    bad = dataclasses.replace(d, filter=RationalTF.constant(1.0, 1.0))
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("poles,lam,tau_hat", [
    ((1.05, 1.1, 1.2, 0.3), 0.99, 5),
    ((1.05, 1.1, 1.2), 0.99, 5),
    ((1.05, 1.1, 1.2, 1.3), 0.9, 10),
    ((1.05, 1.1, 1.2, 1.3), 0.95, 5),
    ((1.05, 1.1, 1.2, 1.3), 0.95, 10),
])
def test_make_design_accepts_its_own_slow_filter(poles, lam, tau_hat):
    """F(1) = mu_F(1) / (1 - lam)^n_F magnifies mu_F's rounding, so the dc
    gain check compares mu_F(1) with nu_F(1) on the scale of the
    coefficients; the exact sums of the stored coefficients agree."""
    plant = RationalTF(Polynomial([0.01]), Polynomial.from_roots(poles), 1.0)
    d = make_design(plant, demo_controller(), demo_prefilter(),
                    d_hat=tau_hat, tau_n_min=0, tau_n_max=2, lam=lam)
    mu, nu = math.fsum(d.filter.num.coeffs), math.fsum(d.filter.den.coeffs)
    assert abs(mu - nu) <= 1e-7 * abs(nu)


@pytest.mark.parametrize("scale", [1 + 1e-6, 1 + 1e-8, 1 - 1e-8])
def test_validate_rejects_a_filter_off_unit_dc_gain(scale):
    d = demo_design()
    f = d.filter
    bad = dataclasses.replace(d, filter=RationalTF(f.num.coeffs * scale, f.den, f.h))
    with pytest.raises(ValueError, match="dc gain"):
        bad.validate()


def test_validate_refuses_a_dc_gain_below_double_precision():
    """Five unstable poles at lam 0.99 and tau_hat 20: the coefficient
    sums of F round by more than F_DC_RESOLUTION of nu_F(1), so F(1)
    cannot be checked and validate refuses the filter, design_filter's
    own (F(1) - 1 = 1.9e-2 as evaluated) or one with mu_F scaled by
    1.02, instead of accepting it."""
    plant = RationalTF(Polynomial([0.01]), Polynomial.from_roots((1.05, 1.1, 1.2, 1.3, 1.4)), 1.0)
    with pytest.raises(ValueError, match="not resolvable"):
        make_design(plant, demo_controller(), demo_prefilter(),
                    d_hat=20, tau_n_min=0, tau_n_max=2, lam=0.99)
    f = design_filter(plant, 20, 0.99)
    off = RationalTF(f.num.coeffs * 1.02, f.den, f.h)
    bad = PredictorDesign(plant_nominal=plant, controller=demo_controller(),
                          prefilter=demo_prefilter(), filter=off, d_hat=20,
                          tau_n_min=0, tau_n_max=2)
    with pytest.raises(ValueError, match="dc gain"):
        bad.validate()
    at_one = dataclasses.replace(bad, filter=RationalTF(Polynomial([1.0]), Polynomial([1.0, -1.0]), f.h))
    with pytest.raises(ValueError, match="dc gain"):
        at_one.validate()


def test_prediction_block_is_derived_not_stored():
    d = demo_design()
    assert "predictor_block" not in d.to_dict()
    assert "predictor_block" not in {f.name for f in dataclasses.fields(PredictorDesign)}
    assert d.predictor_block is d.predictor_block
    H = build_H(d.plant_nominal, d.filter, d.tau_hat)
    assert (d.predictor_block.num, d.predictor_block.den) == (H.num, H.den)


def test_design_json_round_trip():
    d = demo_design()
    back = PredictorDesign.from_json(d.to_json())
    back.validate()
    assert back.d_hat == d.d_hat
    assert back.tau_n_min == d.tau_n_min
    assert back.tau_n_max == d.tau_n_max
    assert np.allclose(back.filter.num.coeffs, d.filter.num.coeffs)
    assert np.allclose(back.predictor_block.den.coeffs, d.predictor_block.den.coeffs)
    assert back.h == d.h


# (numerator, poles) with unstable, repeated, complex and unit-circle poles
H_PLANTS = {"1.051": ([0.0051271], [1.051]),
            "1.2,1.05": ([0.01], [1.2, 1.05]),
            "1.05+-0.1j": ([0.02], [1.05 + 0.1j, 1.05 - 0.1j]),
            "1": ([1.0], [1.0]),
            "1,1": ([1.0, -0.5], [1.0, 1.0]),
            "2,0.5": ([0.1, 0.05], [2.0, 0.5]),
            "1.5,1.3,0.2": ([0.02], [1.5, 1.3, 0.2]),
            # a triple integrator, which np.roots splits by about 6e-6, and
            # distinct poles a hair from 1 that must keep their own value
            "1,1,1": ([0.01], [1.0, 1.0, 1.0]),
            "0.9999995": ([0.01], [0.9999995]),
            "1.0000005": ([0.01], [1.0000005]),
            "1,1.0000005": ([0.01], [1.0, 1.0000005])}


def _h_plant(num, poles):
    return RationalTF(num, Polynomial.from_roots(poles).coeffs, 1.0)


@pytest.mark.parametrize("num,poles", H_PLANTS.values(), ids=H_PLANTS.keys())
def test_prediction_block_matches_its_defining_product(num, poles):
    plant = _h_plant(num, poles)
    n_u = sum(abs(p) >= 1.0 for p in poles)
    # 40 points off z = 1, where 1 - F(1) = 0 leaves the reference product
    # with nothing but rounding error
    z = np.exp(1j * (np.arange(40) + 0.5) * np.pi / 40)
    for tau_hat in range(1, 26):
        for lam in (0.8, 0.9, 0.95):
            F = design_filter(plant, tau_hat, lam)
            H = build_H(plant, F, tau_hat)
            assert H.num.degree == plant.num.degree + tau_hat + F.den.degree - n_u
            assert H.den.degree == tau_hat + plant.den.degree - n_u + F.den.degree
            want = plant(z) * (1.0 - z ** -tau_hat * F(z))
            err = np.abs(H(z) - want) / np.maximum(1.0, np.abs(want))
            assert err.max() < 1e-11, (tau_hat, lam, err.max())


# left out: the single integrator, whose filter is F = 1 for every
# tau_hat, and the plants with a pole within 1e-6 of 1 but not at it,
# where the constraints for neighbouring delays differ by about |p - 1|,
# under INTERP_RESIDUAL_TOL
REFUSING = [k for k in H_PLANTS if k != "1" and "0.999" not in k and "1.000" not in k]


@pytest.mark.parametrize("num,poles", [H_PLANTS[k] for k in REFUSING], ids=REFUSING)
def test_prediction_block_refuses_a_filter_for_another_delay(num, poles):
    plant = _h_plant(num, poles)
    with pytest.raises(NumericError, match="interpolation constraint"):
        build_H(plant, design_filter(plant, 4, LAM), 3)


# pole groups of the plant classes the filter must interpolate: each
# draws its poles from one parameter
POLE_GROUPS = {
    "unstable": lambda r, a: [r * (1 if a < 1.5 else -1)],
    "repeated": lambda r, a: [r, r],
    "complex": lambda r, a: [r * np.exp(1j * a), r * np.exp(-1j * a)],
    "one": lambda r, a: [1.0],
    "double one": lambda r, a: [1.0, 1.0],
    "stable": lambda r, a: [(r - 1.0) * 9.0 * (1 if a < 1.5 else -1)],
    "stable complex": lambda r, a: [(r - 1.0) * 9.0 * np.exp(1j * a),
                                    (r - 1.0) * 9.0 * np.exp(-1j * a)],
}


@st.composite
def filter_problems(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(POLE_GROUPS)), min_size=1,
                          max_size=3, unique=True))
    assume(not {"one", "double one"} <= set(kinds))
    groups = [POLE_GROUPS[k](draw(st.floats(1.02, 1.1) if "stable" in k
                                  else st.floats(1.05, 2.0)),
                             draw(st.floats(0.2, 2.9)))
              for k in kinds]
    # distinct groups, and every pole from z = 1 where F(1) = 1 is another
    # node, stay apart: both constructions lose digits to nearby nodes
    for i, gi in enumerate(groups):
        for gj in groups[i + 1:]:
            assume(min(abs(a - b) for a in gi for b in gj) > 0.05)
    poles = [p for g in groups for p in g]
    threshold = draw(st.none() | st.floats(0.1, 0.95))
    if threshold is not None:
        assume(all(abs(abs(p) - threshold) > 0.01 for p in poles))
    plant = RationalTF([0.01], Polynomial.from_roots(poles).coeffs, 1.0)
    # the reference's nodes are the intended ones: each repeated pole is
    # one cluster of np.roots, and no cluster mean at z = 1 falls a
    # rounding error inside the circle, where its |z| >= 1 test drops it
    clusters = _cluster_roots(roots(plant.den))
    assume(len(clusters) == len(set(poles)))
    assume(all(not 1.0 - 1e-6 < abs(z0) < 1.0 for z0, _ in clusters))
    return (plant, draw(st.integers(1, 25)),
            draw(st.sampled_from([0.0, 0.5, 0.8, 0.9, 0.95, 0.99])), threshold)


@settings(max_examples=150, deadline=None)
@given(filter_problems())
def test_design_filter_matches_linear_solve_reference(problem):
    plant, tau_hat, lam, threshold = problem
    F = design_filter(plant, tau_hat, lam, threshold)
    ref = reference_design_filter(plant, tau_hat, lam, threshold)
    assert F.den == ref.den
    assert F.num.coeffs.shape == ref.num.coeffs.shape
    scale = np.max(np.abs(ref.num.coeffs))
    assert np.max(np.abs(F.num.coeffs - ref.num.coeffs)) <= 1e-9 * scale
