"""Transfer-function and state-space plumbing.

``inf_norm`` is checked against a frequency-grid lower bound and against
``norm_reference.hamiltonian_norm``, an independent level-set solver on a
state-space realization.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netsmith.lti_core as lti_core
import netsmith.stability_criteria as stability_criteria
from netsmith.lti_core import (NORM_REL_TOL, NumericError, Polynomial,
                               RationalTF, inf_norm, realize, roots)
from netsmith.presets import demo_controller, demo_plant, demo_prefilter
from netsmith.smith_design import make_design
from norm_reference import hamiltonian_norm

BRACKET = 1.0 + 2.0 * NORM_REL_TOL


def _golden_max(f, lo, hi, rel_tol):
    """Golden-section maximization of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    scale = max(abs(lo), abs(hi), 1.0)
    while (b - a) > rel_tol * scale:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(fc, fd)


def _grid_norm(g):
    """Reference lower bound on ||g||: the largest |g| on a 4096-point grid
    over [0, pi], refined by golden-section search around the five largest
    grid values.  It is attained, so it never exceeds the supremum, but it
    underestimates peaks narrower than the grid step."""
    theta = np.linspace(0.0, math.pi, 4096)
    mag = np.abs(g(np.exp(1j * theta)))
    best = float(np.max(mag))
    step = theta[1] - theta[0]
    f = lambda t: abs(g(np.exp(1j * t)))
    for i in np.argsort(mag)[::-1][:5]:
        lo = max(0.0, theta[i] - step)
        hi = min(math.pi, theta[i] + step)
        best = max(best, _golden_max(f, lo, hi, 1e-6))
    return best


def _local_grid_max(g, center, half_width, points=400001):
    theta = np.linspace(center - half_width, center + half_width, points)
    return float(np.max(np.abs(g(np.exp(1j * theta)))))


def _conjugate_pair(r, angle=1.0):
    """Real monic quadratic with roots r*exp(+-1j*angle)."""
    return [1.0, -2.0 * r * math.cos(angle), r * r]


def test_polynomial_from_roots_round_trip():
    p = Polynomial.from_roots([0.5, -0.25, 0.9], leading=2.0)
    got = sorted(roots(p).real)
    assert np.allclose(got, [-0.25, 0.5, 0.9], atol=1e-12)
    assert p.coeffs[0] == 2.0


def test_polynomial_arithmetic():
    p = Polynomial([1.0, -1.0])          # z - 1
    q = Polynomial([1.0, 1.0])           # z + 1
    assert list((p * q).coeffs) == [1.0, 0.0, -1.0]
    assert list((p + q).coeffs) == [2.0, 0.0]
    assert list(p.derivative().coeffs) == [1.0]


@pytest.mark.parametrize("u,v", [([2.0, -3.0, 0.5, 0.0, 1.0], [1.0, -1.051]),
                                 ([1.0, 0.0, 0.0, -0.9], [2.0, 0.5, -1.0]),
                                 ([0.5, 1.0], [1.0, 0.0, 3.0]),
                                 ([4.0, 2.0, 1.0], [2.0])])
def test_polynomial_divmod_is_long_division(u, v):
    q, r = divmod(Polynomial(u), Polynomial(v))
    assert r.degree < max(Polynomial(v).degree, 1)
    want_q, want_r = np.polydiv(u, v)
    assert np.allclose(q.coeffs, want_q, rtol=1e-15, atol=1e-15)
    assert np.allclose(r.coeffs, want_r, rtol=1e-15, atol=1e-15)
    back = q * Polynomial(v) + r
    assert np.allclose(back.coeffs, Polynomial(u).coeffs, rtol=1e-15, atol=1e-15)


def test_tf_evaluation_and_delay():
    g = RationalTF([1.0], [1.0, -0.5], 1.0)
    assert g(1.0) == pytest.approx(2.0)
    gd = g * RationalTF([1.0], [1.0, 0.0, 0.0, 0.0], g.h)
    z = np.exp(0.7j)
    assert gd(z) == pytest.approx(g(z) * z ** -3)


def test_feedback_matches_manual_algebra():
    # L/(1+L) for L = k/(z-a) is k/(z-a+k)
    L = RationalTF([0.4], [1.0, -0.9], 1.0)
    T = L.feedback().normalized()
    assert np.allclose(T.num.coeffs, [0.4])
    assert np.allclose(T.den.coeffs, [1.0, -0.5])


def test_realize_keeps_an_exact_shared_root():
    # an exact shared root stays; dividing the known factor out removes it
    num = Polynomial.from_roots([0.5, 0.2], leading=2.0)
    den = Polynomial.from_roots([0.5, -0.3, 0.1], leading=1.0)
    g = RationalTF(num.coeffs, den.coeffs, 1.0)
    assert realize(g).order == 3
    factor = Polynomial([1.0, -0.5])
    (q_num, r_num), (q_den, r_den) = divmod(g.num, factor), divmod(g.den, factor)
    assert np.max(np.abs(np.r_[r_num.coeffs, r_den.coeffs])) < 1e-15
    assert realize(RationalTF(q_num.coeffs, q_den.coeffs, 1.0)).order == 2


def test_inf_norm_first_order_analytic():
    # ||1/(z-a)|| peaks at z=1 for 0<a<1
    for a in (0.2, 0.5, 0.9, 0.99):
        g = RationalTF([1.0], [1.0, -a], 1.0)
        assert inf_norm(g) == pytest.approx(1.0 / (1.0 - a), rel=2 * NORM_REL_TOL)


def test_inf_norm_difference_factor():
    # (z-1)/z has peak gain 2 at the Nyquist frequency; (z^2-1)/z^2 peaks
    # at 2 at pi/2 and vanishes at 0, at pi and at its pole angle 0, the
    # angles the iteration starts from
    g = RationalTF([1.0, -1.0], [1.0, 0.0], 1.0)
    assert inf_norm(g) == pytest.approx(2.0, rel=1e-9)
    g = RationalTF([1.0, 0.0, -1.0], [1.0, 0.0, 0.0], 1.0)
    assert inf_norm(g) == pytest.approx(2.0, rel=1e-9)


def test_inf_norm_constant_and_zero():
    assert inf_norm(RationalTF.constant(3.5, 1.0)) == pytest.approx(3.5)
    assert inf_norm(RationalTF([0.0], [1.0, -0.5], 1.0)) == 0.0


def test_inf_norm_rejects_unit_circle_pole():
    g = RationalTF([1.0], [1.0, -1.0], 1.0)
    with pytest.raises(NumericError):
        inf_norm(g)


def test_inf_norm_rejects_improper():
    with pytest.raises(ValueError, match="improper"):
        inf_norm(RationalTF([1.0, 0.5], [2.0], 1.0))


@pytest.mark.parametrize("r", [0.99999, 0.999999])
def test_inf_norm_sharp_pole_pair(r):
    # the peak near theta = 1 is about 1 - r wide, far below the reference
    # grid step; a local grid of step 5e-11 resolves it to 1e-9 relative
    g = RationalTF([1.0 - r], _conjugate_pair(r), 1.0)
    fine = _local_grid_max(g, 1.0, 1e-5)
    got = inf_norm(g)
    assert fine <= got * BRACKET
    assert got == pytest.approx(fine, rel=1e-9)


def test_inf_norm_keeps_near_cancelling_pair():
    # zero 1.5e-6 and pole 1e-6 inside the circle at angle 1: |g(e^j)| is
    # 1.5 although the pair lies within the default realization tolerance
    g = RationalTF(_conjugate_pair(0.9999985), _conjugate_pair(0.999999), 1.0)
    got = inf_norm(g)
    assert got == pytest.approx(1.5, rel=1e-6)
    assert got == pytest.approx(_local_grid_max(g, 1.0, 1e-5), rel=1e-9)


def test_realize_round_trip():
    for g in (RationalTF([0.5, -0.2, 0.1], [1.0, -1.1, 0.4, -0.05], 1.0),
              RationalTF([2.0, 0.5, -0.3], [2.0, -0.4, 0.1], 1.0)):
        ss = realize(g)
        for z in (np.exp(0.3j), np.exp(2.5j), -1.0, 2.0, 0.2 + 0.4j):
            got = ss.c @ np.linalg.solve(z * np.eye(ss.order) - ss.A, ss.b) + ss.d
            assert got == pytest.approx(g(z), rel=1e-12, abs=1e-12)


def test_state_space_impulse_matches_long_division():
    g = RationalTF([1.0], [1.0, -0.5], 1.0)
    ss = realize(g)
    x = np.zeros(ss.order)
    seq = []
    u = 1.0
    for _ in range(6):
        seq.append(ss.c @ x + ss.d * u)
        x = ss.A @ x + ss.b * u
        u = 0.0
    # impulse response of 1/(z-0.5): 0, 1, 0.5, 0.25, ...
    assert np.allclose(seq, [0.0, 1.0, 0.5, 0.25, 0.125, 0.0625], atol=1e-12)


def test_json_round_trip():
    g = RationalTF([1.0, 0.25], [1.0, -0.9, 0.2], 0.5)
    back = RationalTF.from_json(g.to_json())
    assert np.array_equal(back.num.coeffs, g.num.coeffs)
    assert np.array_equal(back.den.coeffs, g.den.coeffs)
    assert back.h == g.h


@st.composite
def stable_tf(draw):
    # coefficients are kept on a sane scale; a leading coefficient many
    # orders below the rest makes the system order itself ill-defined
    # numerically, which is not the property under test here
    coeff = st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)
                      .map(lambda c: c if abs(c) >= 1e-3 else 1e-3))
    n = draw(st.integers(min_value=1, max_value=4))
    poles = [draw(st.floats(min_value=-0.9, max_value=0.9)) for _ in range(n)]
    num = [draw(coeff) for _ in range(n)]
    if all(c == 0.0 for c in num):
        num[0] = 1.0
    den = Polynomial.from_roots(poles, leading=1.0)
    return RationalTF(num, den.coeffs, 1.0)


@settings(max_examples=40, deadline=None)
@given(stable_tf(), st.floats(min_value=0.01, max_value=3.14))
def test_inf_norm_bounds_pointwise_gain(g, w):
    bound = inf_norm(g)
    assert abs(g(np.exp(1j * w))) <= bound * BRACKET


@settings(max_examples=40, deadline=None)
@given(stable_tf())
# peak near theta = 2.54 just above |g(-1)|, the largest of the start values
# at 0, pi and the pole angles; deg den - deg num = 1 here, and a crossing
# polynomial with z^s U shifted against V misses this peak
@example(RationalTF([1.0, 2.14, 1.19], np.poly([-0.697] * 3), 1.0))
def test_inf_norm_brackets_grid_reference(g):
    ref = _grid_norm(g)
    got = inf_norm(g)
    assert ref <= got * BRACKET
    assert got <= ref * (1.0 + 1e-6)


@settings(max_examples=25, deadline=None)
@given(stable_tf(), stable_tf())
def test_inf_norm_submultiplicative(f, g):
    assert inf_norm(f * g) <= inf_norm(f) * inf_norm(g) * (1.0 + 1e-5) + 1e-9


@pytest.mark.parametrize("d_hat", range(1, 11))
def test_inf_norm_matches_hamiltonian_reference_on_demo_family(d_hat):
    # M, S (z-1)/z and F T: the norms the small-gain certificates take
    d = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                    d_hat=d_hat, tau_n_min=0, tau_n_max=2, lam=0.9)
    T = (d.controller * d.plant_nominal).feedback()
    diff = RationalTF([1.0, -1.0], [1.0, 0.0], 1.0)
    for g in (stability_criteria.build_M(d), (1.0 - T) * diff, d.filter * T):
        assert inf_norm(g) == pytest.approx(hamiltonian_norm(g), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(stable_tf())
@example(RationalTF([1.0, 2.14, 1.19], np.poly([-0.697] * 3), 1.0))
# subnormal end coefficients of the pole polynomial: |g|^2's denominator
# then has a leading coefficient that overflows the companion matrix
@example(RationalTF([1.0, 0.5], [1.0, -0.5, 1.1125369292536e-309], 1.0))
@example(RationalTF([0.5, 0.0, -1.0, 0.25],
                    [1.0, -0.562501, 0.0312505625, -3.125e-08,
                     2.3839096727871287e-308], 1.0))
def test_inf_norm_matches_hamiltonian_reference(g):
    assert inf_norm(g) == pytest.approx(hamiltonian_norm(g), rel=1e-9)


def test_inf_norm_root_solves_on_demo_design(monkeypatch):
    # the stationary points seed the level above the peak, so the level
    # loop ends after one or two root solves; iterating shows up here
    solves = []
    root_angles = lti_core._root_angles

    def counted_root_angles(c):
        solves[-1] += 1
        return root_angles(c)

    def counted_inf_norm(g):
        solves.append(0)
        return inf_norm(g)

    def no_realize(g):
        raise AssertionError("inf_norm realized its argument")

    d = make_design(demo_plant(), demo_controller(), demo_prefilter(),
                    d_hat=5, tau_n_min=0, tau_n_max=2, lam=0.9)
    monkeypatch.setattr(lti_core, "_root_angles", counted_root_angles)
    monkeypatch.setattr(lti_core, "realize", no_realize)
    monkeypatch.setattr(stability_criteria, "inf_norm", counted_inf_norm)
    stability_criteria.nominal_loop_gains(d)
    assert len(solves) == 3
    assert all(1 <= k <= 3 for k in solves), solves
