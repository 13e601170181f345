"""Acceptance gate: one test per primary claim, at the stated tolerance.

Each test records a single PASS/FAIL line (replayed in the terminal
summary) and then asserts, so the run output documents every claim.
"""

import math
import time

import numpy as np

from conftest import prefiltered, record_acceptance
from netsmith.gain_analysis import (alpha_T_closed_form, alpha_asymptote_check,
                                    alpha_formula, oracle_gain, worst_case_norm)
from netsmith.lmi_assembly import (assemble_augmented, build_lmi,
                                   compact_variable_count, lifted_variable_count)
from netsmith.lti_core import RationalTF
from netsmith.packet_channel import PacketTrace, Protocol, worst_case_trace
from netsmith.presets import demo_design
from netsmith.sim_engine import SimScenario, simulate, simulate_sample_delay
from netsmith.smith_design import delay_free_reference, make_design
from netsmith.stability_criteria import (check_nominal, check_uncertain,
                                         max_certified_tau, nominal_loop_gains)


def test_gain_formula_reproduction():
    ok = True
    for tb in range(0, 101):
        if alpha_formula(Protocol("p1"), tb) != float(tb):
            ok = False
    if alpha_formula(Protocol("p2"), 1) != 1.0:
        ok = False
    worst_rel = 0.0
    for tb in range(1, 101):
        want = math.sqrt(tb * (14 * tb + 1) / 6)
        got = alpha_formula(Protocol("p3"), tb)
        worst_rel = max(worst_rel, abs(got - want) / want)
    ok = ok and worst_rel <= 1e-12
    record_acceptance(
        "gain formulas (P1 line exact, P2(1)=1, P3 closed form to 1e-12)",
        ok, f"max P3 rel err {worst_rel:.2e} over tau_bar<=100")
    assert ok


def test_oracle_agreement_with_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    pattern_ok = True
    for tau_bar in (1, 2, 3):
        for T in range(0, 9):
            res = oracle_gain(Protocol("p3"), tau_bar, T)
            closed = alpha_T_closed_form(tau_bar, T)
            worst = max(worst, abs(res.alpha_T - closed))
            # the adversarial pattern must achieve the enumerated maximum
            # (ties between argmax traces are allowed)
            if abs(res.norm_sq - worst_case_norm(tau_bar, T)) > 1e-9:
                pattern_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and pattern_ok and elapsed < 120.0
    record_acceptance(
        "oracle agreement (tau_bar in {1,2,3}, T<=8, adversarial access)",
        ok, f"max |alpha_T - closed form| {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_oracle_soundness_against_analytic_bounds():
    worst = -math.inf
    count = 0
    for proto in (Protocol("p1"), Protocol("p2"),
                  Protocol("p3", selector="oldest")):
        for tau_bar in (1, 2, 3):
            bound = alpha_formula(proto, tau_bar)
            for T in range(0, 9):
                res = oracle_gain(proto, tau_bar, T)
                worst = max(worst, res.alpha_T - bound)
                count += 1
    ok = worst <= 1e-9
    record_acceptance(
        "oracle soundness (alpha_T <= analytic bound, all protocols)",
        ok, f"max excess {worst:.2e} over {count} sweeps")
    assert ok


def test_finite_horizon_gain_asymptote():
    rows = alpha_asymptote_check(2, 200)
    limit = math.sqrt(58.0 / 6.0)
    alphas = [r["alpha_T"] for r in rows]
    rel = abs(alphas[-1] - limit) / limit
    monotone = all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))
    ok = rows[-1]["T"] == 200 and rel < 0.02 and monotone
    record_acceptance(
        "finite-horizon asymptote (tau_bar=2 approaches sqrt(58/6))",
        ok, f"alpha_200 = {alphas[-1]:.6f}, rel err {rel:.3%}, monotone={monotone}")
    assert ok


def test_example_design_reproduction():
    d = demo_design()
    T = delay_free_reference(d).normalized()
    target_num = np.array([0.025, -0.0225])
    target_den = np.array([1.0, -1.9, 0.9025])
    err = max(np.max(np.abs(np.asarray(T.num.coeffs) - target_num)),
              np.max(np.abs(np.asarray(T.den.coeffs) - target_den)))
    model = assemble_augmented(d)
    counts_ok = (model.n_xi == 9
                 and compact_variable_count(model.n_xi) == 900
                 and lifted_variable_count(model.n_xi, 5, 8) == 8046
                 and build_lmi(model, "compact", 0.9).variable_count == 900)
    ok = err <= 1e-3 and counts_ok
    record_acceptance(
        "worked example reproduction (reference model, state and LMI sizes)",
        ok, f"max coefficient err {err:.2e}, n_xi={model.n_xi}, counts 900/8046")
    assert ok


def test_protocol_threshold_ordering():
    results = {}
    for lam in (0.9, 0.95):
        d = demo_design(lam=lam)
        results[lam] = tuple(max_certified_tau(d, Protocol(k))
                             for k in ("p1", "p2", "p3"))
    ordering_ok = all(t1 >= t2 >= t3 and t1 > t3
                      for t1, t2, t3 in results.values())
    # published design targets: the first protocol certifies up to 4 and
    # the third up to 2; reached here with the slower filter pole 0.95
    t95 = results[0.95]
    targets_met = t95[0] == 4 and t95[2] == 2
    record_acceptance(
        "protocol threshold ordering (P1 above P2 above-or-equal P3)",
        ordering_ok,
        f"lam=0.9 gives {results[0.9]}, lam=0.95 gives {t95} "
        f"(targets 4/_/2 {'met' if targets_met else 'NOT met'} at 0.95)")
    assert ordering_ok


def _random_design_suite(n_cases):
    rng = np.random.default_rng(12345)
    designs = []
    kinds = ("p1", "p2", "p3")
    for i in range(n_cases - 20):
        a = float(rng.uniform(-0.85, 0.85))
        g = float(rng.uniform(0.2, 2.0))
        kg = float(rng.uniform(0.1, 1.8))
        plant = RationalTF([g], [1.0, -a], 1.0)
        ctrl = RationalTF([kg / g, -kg / g * a], [1.0, -1.0], 1.0)
        pre = RationalTF.constant(1.0, 1.0)
        tau_min = int(rng.integers(0, 2))
        tau_max = tau_min + int(rng.integers(1, 4))
        d = make_design(plant, ctrl, pre, d_hat=int(rng.integers(1, 7)),
                        tau_n_min=tau_min, tau_n_max=tau_max,
                        lam=float(rng.uniform(0.5, 0.95)))
        designs.append((d, Protocol(kinds[i % 3])))
    for i, lam in enumerate(np.linspace(0.5, 0.95, 20)):
        tau_min = i % 2
        d = demo_design(lam=float(lam), tau_n_min=tau_min,
                        tau_n_max=tau_min + 1 + i % 3)
        designs.append((d, Protocol(kinds[i % 3])))
    return designs


def test_uncertainty_free_collapse_and_zero_delay_reduction():
    suite = _random_design_suite(100)
    mismatches = 0
    for d, proto in suite:
        nom = check_nominal(d, proto)
        unc = check_uncertain(d, proto, alpha_A=0.0)
        if unc.verdict != nom.verdict or unc.margin != nom.margin:
            mismatches += 1

    d0 = demo_design(tau_n_min=1, tau_n_max=1)
    _, a12, _, _ = nominal_loop_gains(d0)
    reduction_ok = True
    for alpha_A in (0.05, 0.2, 0.45, 0.9 / a12, 1.1 / a12, 1.0, 3.0):
        v = check_uncertain(d0, Protocol("p2"), alpha_A=alpha_A)
        if v.certified != (alpha_A * a12 < 1.0):
            reduction_ok = False

    ok = mismatches == 0 and len(suite) == 100 and reduction_ok
    record_acceptance(
        "perturbation test collapse (alpha_A=0 matches nominal verdicts; "
        "zero residual delay reduces to the classical condition)",
        ok, f"{len(suite)} randomized designs, {mismatches} mismatches, "
            f"reduction_ok={reduction_ok}")
    assert ok


def test_protocol_contrast_experiment():
    d = demo_design(lam=0.85, tau_n_max=4)
    steps = 300
    trace = worst_case_trace(steps, 4)
    ref = np.ones(steps)

    p3 = simulate(SimScenario(d, Protocol("p3", selector="oldest"), trace,
                              ref, steps))
    crossings = np.nonzero(np.abs(p3.y) > 10.0)[0]
    p3_escapes = crossings.size > 0

    p1 = simulate(SimScenario(d, Protocol("p1"), trace, ref, steps))
    p1_ok = (not p1.diverged and p1.y.min() >= -1.0 - 1e-9
             and p1.y.max() <= 3.0 + 1e-9)

    sd = simulate(SimScenario(d, Protocol("p1"), trace, ref, steps,
                              model="sample_delay"))
    sd_ok = not sd.diverged and float(np.max(np.abs(sd.y))) < 10.0

    ok = p3_escapes and p1_ok and sd_ok
    first = int(crossings[0]) if p3_escapes else -1
    record_acceptance(
        "protocol contrast (stale-reading access escapes, freshest-only "
        "and sample-delay stay bounded)",
        ok, f"|y|>10 at step {first}, P1 range [{p1.y.min():.4f}, "
            f"{p1.y.max():.4f}], sample-delay max {np.max(np.abs(sd.y)):.4f}")
    assert ok


def test_cross_model_equivalence():
    # the sample-delay side iterates A_d_tilde literally, independent of
    # the loop simulate shares between its two models
    d = demo_design()
    steps = 200
    ref = np.ones(steps)
    model = assemble_augmented(d)
    worst = 0.0
    for c in (0, 1, 2):
        trace = PacketTrace((c,) * steps, 0, 2)
        pk = simulate(SimScenario(d, Protocol("p1"), trace, ref, steps))
        _, y = simulate_sample_delay(model, trace.delays, steps,
                                     reference=prefiltered(d, ref))
        worst = max(worst, float(np.max(np.abs(pk.y - y))))
    ok = worst <= 1e-9
    record_acceptance(
        "cross-model equivalence (constant-delay packetized vs sample-delay)",
        ok, f"max |y difference| {worst:.2e} over 200 steps")
    assert ok
