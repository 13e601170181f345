"""Transfer-function and state-space plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsmith.lti_core import (NumericError, Polynomial, RationalTF, StateSpace,
                               cancel, freq_response, inf_norm, realize, roots)


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


def test_tf_evaluation_and_delay():
    g = RationalTF([1.0], [1.0, -0.5], 1.0)
    assert g(1.0) == pytest.approx(2.0)
    gd = g * RationalTF.delay(3, g.h)
    z = np.exp(0.7j)
    assert gd(z) == pytest.approx(g(z) * z ** -3)


def test_feedback_matches_manual_algebra():
    # L/(1+L) for L = k/(z-a) is k/(z-a+k)
    L = RationalTF([0.4], [1.0, -0.9], 1.0)
    T = L.feedback().normalized()
    assert np.allclose(T.num.coeffs, [0.4])
    assert np.allclose(T.den.coeffs, [1.0, -0.5])


def test_cancel_removes_shared_roots():
    num = Polynomial.from_roots([1.0, 0.5], leading=1.0)
    den = Polynomial.from_roots([1.0, 0.3], leading=1.0)
    g = cancel(RationalTF(num.coeffs, den.coeffs, 1.0))
    assert g.den.degree == 1
    assert np.allclose(sorted(roots(g.den).real), [0.3], atol=1e-9)
    assert np.allclose(sorted(roots(g.num).real), [0.5], atol=1e-9)


def test_inf_norm_first_order_analytic():
    # ||1/(z-a)|| peaks at z=1 for 0<a<1
    for a in (0.2, 0.5, 0.9, 0.99):
        g = RationalTF([1.0], [1.0, -a], 1.0)
        assert inf_norm(g) == pytest.approx(1.0 / (1.0 - a), rel=1e-6)


def test_inf_norm_difference_factor():
    # (z-1)/z has peak gain 2 at the Nyquist frequency
    g = RationalTF([1.0, -1.0], [1.0, 0.0], 1.0)
    assert inf_norm(g) == pytest.approx(2.0, rel=1e-9)


def test_inf_norm_constant_and_zero():
    assert inf_norm(RationalTF.constant(3.5, 1.0)) == pytest.approx(3.5)
    assert inf_norm(RationalTF([0.0], [1.0, -0.5], 1.0)) == 0.0


def test_inf_norm_rejects_unit_circle_pole():
    g = RationalTF([1.0], [1.0, -1.0], 1.0)
    with pytest.raises(NumericError):
        inf_norm(g)


def test_freq_response_matches_direct_eval():
    g = RationalTF([1.0, 0.2], [1.0, -0.3, 0.1], 1.0)
    for w in np.linspace(0.1, 3.0, 7):
        assert freq_response(g, w) == pytest.approx(g(np.exp(1j * w)), abs=1e-12)


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
    x = ss.zero_state()
    seq = []
    u = 1.0
    for _ in range(6):
        seq.append(ss.output(x, u))
        x = ss.advance(x, u)
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
    assert abs(g(np.exp(1j * w))) <= bound * (1.0 + 1e-6) + 1e-12


@settings(max_examples=25, deadline=None)
@given(stable_tf(), stable_tf())
def test_inf_norm_submultiplicative(f, g):
    assert inf_norm(f * g) <= inf_norm(f) * inf_norm(g) * (1.0 + 1e-5) + 1e-9
