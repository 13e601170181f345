"""Channel gain formulas and the exact worst-case oracle.

The reference oracle below enumerates every admissible delay trace in
plain Python and folds the channel through the packet_channel module, so
it shares no code with the dynamic program under test.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

import netsmith.packet_channel as pc
from netsmith.gain_analysis import (alpha_T_closed_form, alpha_asymptote_check,
                                    alpha_formula, full_block_energy, oracle_gain,
                                    worst_case_norm)
from channel_reference import run_channel
from netsmith.packet_channel import PacketTrace, Protocol, held_index, worst_case_trace


def _reference_oracle(kind, selector, tau_bar, T):
    """Exhaustive search over delay traces, folded independently.

    Returns the gain and the lexicographically smallest maximizing head.
    """
    n = T + 2 * tau_bar + 1
    a = np.array([min(k + 1, T + 1) for k in range(n)], dtype=float)
    tail = [tau_bar - (j % (tau_bar + 1)) for j in range(T + 1, n)]
    proto = Protocol(kind, selector=selector)
    best, argmax = -1.0, None
    for head in itertools.product(range(tau_bar + 1), repeat=T + 1):
        tr = PacketTrace(tuple(head) + tuple(tail), 0, tau_bar)
        held = run_channel(a, tr, proto)[:n]
        acc = float(np.sum((a - held) ** 2))
        if acc > best:
            best, argmax = acc, head
    return math.sqrt(best / (T + 1)), argmax


def test_alpha_p1_is_the_delay_bound():
    for tb in range(0, 30):
        assert alpha_formula(Protocol("p1"), tb) == float(tb)


def test_alpha_p2_floor_at_one():
    # the closed form dips below 1 at tau_bar = 1 and is clamped
    assert alpha_formula(Protocol("p2"), 1) == 1.0
    raw = math.sqrt(1 * (14 - 9 + 1) / (6 * 2))
    assert raw < 1.0


def test_alpha_zero_delay_is_zero_for_all_protocols():
    for kind in ("p1", "p2", "p3"):
        assert alpha_formula(Protocol(kind), 0) == 0.0


def test_alpha_frozen_table():
    cases = {
        ("p2", 2): 2.0816659994661326,
        ("p2", 3): 3.5355339059327378,
        ("p2", 4): 5.0199601592044534,
        ("p3", 1): 1.5811388300841898,
        ("p3", 2): 3.1091263510296048,
        ("p3", 3): 4.636809247747852,
        ("p3", 4): 6.164414002968976,
    }
    for (kind, tb), want in cases.items():
        assert alpha_formula(Protocol(kind), tb) == pytest.approx(want, abs=1e-14)


def test_alpha_ordering():
    for tb in range(1, 60):
        a1 = alpha_formula(Protocol("p1"), tb)
        a2 = alpha_formula(Protocol("p2"), tb)
        a3 = alpha_formula(Protocol("p3"), tb)
        assert a1 <= a2 <= a3


def test_worst_case_pattern_matches_trace():
    pat = worst_case_trace(7, 3)
    assert pat.delays == (3, 2, 1, 0, 3, 2, 1)


def test_full_block_energy_value():
    assert full_block_energy(2) == pytest.approx(29.0)


def test_closed_form_matches_pattern_fold():
    # evaluate the adversarial pattern directly through the channel
    for tau_bar, T in [(1, 4), (2, 7), (3, 8), (2, 2)]:
        n = T + 2 * tau_bar + 1
        a = np.array([min(k + 1, T + 1) for k in range(n)], dtype=float)
        tr = PacketTrace(
            tuple(tau_bar - (j % (tau_bar + 1)) for j in range(n)), 0, tau_bar)
        held = run_channel(a, tr, Protocol("p3", selector="oldest"))[:n]
        acc = float(np.sum((a - held) ** 2))
        assert worst_case_norm(tau_bar, T) == pytest.approx(acc, abs=1e-9)
        assert alpha_T_closed_form(tau_bar, T) == pytest.approx(
            math.sqrt(acc / (T + 1)), abs=1e-12)


@pytest.mark.parametrize("kind,selector", [("p1", "oldest"), ("p2", "oldest"),
                                           ("p3", "oldest")])
def test_oracle_matches_reference_enumeration(kind, selector):
    for tau_bar, t_max in ((1, 6), (2, 4), (3, 3)):
        for T in range(t_max + 1):
            res = oracle_gain(Protocol(kind, selector=selector), tau_bar, T)
            ref, head = _reference_oracle(kind, selector, tau_bar, T)
            assert res.alpha_T == pytest.approx(ref, abs=1e-12)
            assert res.trace.delays == head
            assert res.evaluations == (tau_bar + 1) ** (T + 1)


def test_oracle_argmax_trace_reproduces_its_norm():
    res = oracle_gain(Protocol("p3"), 2, 4)
    n = res.T + 2 * res.tau_bar + 1
    a = np.array([min(k + 1, res.T + 1) for k in range(n)], dtype=float)
    # the result trace covers the driven steps; extend it with the
    # deterministic settling tail before folding
    tail = tuple(res.tau_bar - (j % (res.tau_bar + 1))
                 for j in range(res.T + 1, n))
    full = PacketTrace(res.trace.delays + tail, 0, res.tau_bar)
    held = run_channel(a, full, Protocol("p3", selector="oldest"))[:n]
    acc = float(np.sum((a - held) ** 2))
    assert acc == pytest.approx(res.norm_sq, abs=1e-9)


def test_oracle_p3_equals_closed_form():
    for tau_bar in (1, 2):
        for T in range(tau_bar, 6):
            res = oracle_gain(Protocol("p3"), tau_bar, T)
            assert res.alpha_T == pytest.approx(
                alpha_T_closed_form(tau_bar, T), abs=1e-9)


def test_oracle_zero_delay_shortcut():
    res = oracle_gain(Protocol("p1"), 0, 5)
    assert res.alpha_T == 0.0
    assert res.evaluations == 1


def test_oracle_rejects_random_selector():
    with pytest.raises(ValueError, match="random"):
        oracle_gain(Protocol("p3", selector="random"), 2, 6)


def test_oracle_long_horizons_meet_the_formulas():
    # horizons far beyond what enumeration of (tau_bar+1)**(T+1) reaches
    res = oracle_gain(Protocol("p3"), 2, 200)
    assert res.alpha_T == pytest.approx(alpha_T_closed_form(2, 200), abs=1e-12)
    assert res.alpha_T == pytest.approx(3.0995104733, abs=1e-10)
    for kind in ("p1", "p2"):
        for tau_bar in (1, 2, 3):
            res = oracle_gain(Protocol(kind), tau_bar, 60)
            assert res.alpha_T <= alpha_formula(Protocol(kind), tau_bar) + 1e-9


def test_asymptote_table_converges_and_is_monotone():
    rows = alpha_asymptote_check(2, 200)
    limit = math.sqrt(2 * (14 * 2 + 1) / 6)
    assert rows[0]["T"] == 2
    assert rows[-1]["T"] == 200
    alphas = [r["alpha_T"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))
    assert abs(alphas[-1] - limit) / limit < 0.02
    for r in rows:
        assert r["ramp_term"] + r["rest_term"] == pytest.approx(
            r["alpha_T"] ** 2, rel=1e-12)


@pytest.mark.parametrize("v_bar", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: oracle_gain(Protocol("p1"), 2, 4, v_bar=v),
    lambda v: worst_case_norm(2, 4, v),
    lambda v: alpha_T_closed_form(2, 4, v),
    lambda v: full_block_energy(2, v),
    lambda v: alpha_asymptote_check(2, 20, v),
], ids=["oracle_gain", "worst_case_norm", "alpha_T_closed_form",
        "full_block_energy", "alpha_asymptote_check"])
def test_ill_posed_amplitude_raises(call, v_bar):
    with pytest.raises(ValueError, match="v_bar"):
        call(v_bar)


@pytest.mark.parametrize("kind", ["p1", "p2", "p3"])
@pytest.mark.parametrize("tau_bar,T", [(3, 8), (2, 10)])
def test_oracle_computes_each_transition_once(monkeypatch, kind, tau_bar, T):
    """From an empty automaton cache the first oracle call asks the
    receiver each (state, delay) pair at most once; a second call with
    the same rule and tau_bar asks none, and completing the table the
    oracle left partial gives the whole automaton."""
    asked = []
    real = pc.receive

    def counting(protocol, state, delay):
        asked.append((state, delay))
        return real(protocol, state, delay)

    monkeypatch.setattr(pc, "receive", counting)
    pc._table.cache_clear()
    first = oracle_gain(Protocol(kind), tau_bar, T)
    assert asked and len(asked) == len(set(asked))
    asked.clear()
    again = oracle_gain(Protocol(kind, seed=5), tau_bar, T, v_bar=2.0)
    assert not asked
    assert again.trace == first.trace and again.norm_sq == 4 * first.norm_sq
    states, rows = pc.staleness_automaton(kind, 0, tau_bar)
    whole = {"p1": {2: 11, 3: 40}, "p2": {2: 15, 3: 73}, "p3": {2: 22, 3: 102}}
    assert len(states) == whole[kind][tau_bar]
    assert all(None not in row for row in rows)


def test_short_horizon_oracle_fills_only_what_it_reaches(monkeypatch):
    """A cold oracle call at a large tau_bar and a short horizon computes
    the transitions it meets, not the whole automaton (30145 states for
    p3-oldest at tau_bar 6), and leaves the rest of the table empty."""
    calls = []
    real = pc.receive
    monkeypatch.setattr(pc, "receive", lambda *a: calls.append(a) or real(*a))
    pc._table.cache_clear()
    oracle_gain("p3", 6, 2)
    table = pc.staleness_table("p3", 0, 6)
    filled = sum(entry is not None for row in table.rows for entry in row)
    assert len(calls) == filled and len(table.states) < 1000


def test_p3_ramp_gain_is_not_the_l2_gain():
    """p3-oldest at tau_bar 1: under the alternating burst trace the
    channel holds each sample two instants, and the increment pattern u
    of period 2 along the top right singular vector of [[1, 0], [1, 1]]
    gives ||w|| / ||u|| near the golden ratio, above the paper's ramp
    gain alpha_formula, with w_k the sum of u_i over held_k < i <= k."""
    n = 4000
    held = held_index(worst_case_trace(n, 1), Protocol("p3"), n)
    v = np.linalg.svd(np.array([[1.0, 0.0], [1.0, 1.0]]))[2][0]
    u = v[(np.arange(n) + 1) % 2]
    csum = np.concatenate([[0.0], np.cumsum(u)])
    w = csum[1:] - csum[held + 1]
    ratio = np.linalg.norm(w) / np.linalg.norm(u)
    assert ratio == pytest.approx(1.6178, abs=1e-4)
    assert ratio > alpha_formula(Protocol("p3"), 1) + 0.03


# Frozen values; the trace hashes pin the lexicographic tie-break at
# horizons the reference enumeration cannot reach.
ORACLE_PINS = [
    ("p1", 3, 60, 2.9780618628591973, 541.0,
     "aeb8d964d8ea0cbb00109ddbdc312d6cabab937881053da9a2fdf8ed3254de18"),
    ("p2", 3, 60, 3.499414470928567, 747.0,
     "2de34f16ff7b12b18ffe7f5afb167179a2e4fa615a9bca1d349a39c6166adc9e"),
    ("p3", 3, 60, 4.571831071273555, 1275.0,
     "9610c2570aa5be03225ef942502a7ed75679187ca9451afbcbb58fcdf30163c3"),
    ("p3", 2, 200, 3.0995104733053176, 1931.0,
     "08d5d0e58cfa4a58dc0587d8077c2086f7d5236f3e2b8b4c09ddf17f34f164ac"),
]


@pytest.mark.parametrize("kind,tau_bar,T,alpha_T,norm_sq,trace_sha", ORACLE_PINS)
def test_oracle_long_horizon_pins(kind, tau_bar, T, alpha_T, norm_sq, trace_sha):
    res = oracle_gain(Protocol(kind), tau_bar, T)
    assert res.alpha_T == alpha_T
    assert res.norm_sq == norm_sq
    assert hashlib.sha256(res.trace.to_csv().encode()).hexdigest() == trace_sha
