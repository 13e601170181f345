"""Packetized channel semantics for the three access protocols.

The property tests re-derive each protocol's selection rule with an
independent fold over the arrival sets, run the per-step reference
receiver of ``channel_reference`` against the ``held_index`` map, and
replay the ``receive`` automaton and the table of ``staleness_automaton``
against it, and that table against the reference transition of
``channel_reference`` on every reachable state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_reference import (ChannelState, channel_step, receive_reference,
                               run_channel)
from netsmith.packet_channel import (PacketTrace, Protocol, held_index, receive,
                                     staleness_automaton, uniform_trace,
                                     worst_case_trace)

LABELS = [("p1", "oldest"), ("p2", "oldest"), ("p3", "oldest"), ("p3", "random")]


def test_worst_case_trace_pattern():
    tr = worst_case_trace(8, 2)
    assert tr.delays == (2, 1, 0, 2, 1, 0, 2, 1)
    assert tr.tau_min == 0 and tr.tau_max == 2


def test_arrival_times():
    # packet j arrives at j + tau_j: 0 at 2, 1 at 1, 2 at 3, and p2 picks
    # each one at its arrival instant
    tr = PacketTrace((2, 0, 1), 0, 2)
    assert list(held_index(tr, Protocol("p2"), 4)) == [-1, 1, 0, 2]


def test_trace_csv_round_trip():
    tr = worst_case_trace(5, 3)
    back = PacketTrace.from_csv(tr.to_csv())
    assert back.delays == tr.delays
    assert (back.tau_min, back.tau_max) == (0, 3)


def test_trace_validation():
    with pytest.raises(ValueError):
        PacketTrace((0, 5), 0, 2)
    with pytest.raises(ValueError):
        PacketTrace((-1,), 0, 2)


def test_uniform_trace_is_seeded():
    a = uniform_trace(50, 0, 3, seed=7)
    b = uniform_trace(50, 0, 3, seed=7)
    c = uniform_trace(50, 0, 3, seed=8)
    assert a.delays == b.delays
    assert a.delays != c.delays
    assert min(a.delays) >= 0 and max(a.delays) <= 3


@pytest.mark.parametrize("kind,selector", LABELS)
def test_constant_delay_is_pure_shift(kind, selector):
    values = np.arange(1.0, 13.0)
    c = 2
    tr = PacketTrace((c,) * len(values), 0, 3)
    out = run_channel(values, tr, Protocol(kind, selector=selector, seed=3))
    for p in range(len(values) + 3):
        expect = values[p - c] if 0 <= p - c < len(values) else (
            0.0 if p < c else values[-1])
        assert out[p] == expect


def test_p1_skips_stale_packet():
    # packet 1 arrives first; packet 0 arrives later and must be ignored
    tr = PacketTrace((2, 0), 0, 2)
    out = run_channel(np.array([10.0, 20.0]), tr, Protocol("p1"))
    assert list(out) == [0.0, 20.0, 20.0, 20.0]


def test_p2_can_regress_to_older_packet():
    tr = PacketTrace((2, 0), 0, 2)
    out = run_channel(np.array([10.0, 20.0]), tr, Protocol("p2"))
    # at p=2 the arrival set is {0}, and its newest member is packet 0
    assert list(out) == [0.0, 20.0, 10.0, 10.0]


def test_p2_holds_previous_output_when_empty():
    tr = PacketTrace((1, 1), 0, 1)
    out = run_channel(np.array([10.0, 20.0]), tr, Protocol("p2"))
    assert list(out) == [0.0, 10.0, 20.0]


def test_p3_selector_split_on_burst():
    # all three packets land at p=2; the newest member is the p2 rule
    tr = PacketTrace((2, 1, 0), 0, 2)
    vals = np.array([10.0, 20.0, 30.0])
    oldest = run_channel(vals, tr, Protocol("p3", selector="oldest"))
    newest = run_channel(vals, tr, Protocol("p2"))
    assert oldest[2] == 10.0
    assert newest[2] == 30.0


def test_p3_has_no_newest_selector():
    with pytest.raises(ValueError, match="selector"):
        Protocol("p3", selector="newest")


def test_p3_random_is_seeded_and_member():
    tr = PacketTrace((2, 1, 0, 2, 1, 0), 0, 2)
    vals = np.arange(1.0, 7.0)
    a = run_channel(vals, tr, Protocol("p3", selector="random", seed=11))
    b = run_channel(vals, tr, Protocol("p3", selector="random", seed=11))
    assert np.array_equal(a, b)
    # every burst output is one of the values delivered in that burst
    assert a[2] in {1.0, 2.0, 3.0}
    assert a[5] in {4.0, 5.0, 6.0}


trace_strategy = st.lists(st.integers(min_value=0, max_value=3),
                          min_size=1, max_size=14)


def _fold_reference(kind, delays, values):
    """Independent protocol fold used to cross-check run_channel."""
    n = len(delays)
    horizon = n + 3
    last_used = -1
    out_prev = 0.0
    outs = []
    for p in range(horizon):
        arrived = [j for j in range(n) if j + delays[j] == p]
        if kind == "p1":
            fresh = [j for j in arrived if j > last_used]
            if fresh:
                last_used = max(fresh)
                out_prev = values[last_used]
        elif kind == "p2":
            if arrived:
                out_prev = values[max(arrived)]
        else:  # p3 oldest
            if arrived:
                out_prev = values[min(arrived)]
        outs.append(out_prev)
    return outs


@settings(max_examples=120, deadline=None)
@given(trace_strategy, st.sampled_from(["p1", "p2", "p3"]))
def test_channel_matches_reference_fold(delays, kind):
    tr = PacketTrace(tuple(delays), 0, 3)
    values = np.arange(1.0, len(delays) + 1.0)
    out = run_channel(values, tr, Protocol(kind, selector="oldest"))
    assert list(out) == _fold_reference(kind, delays, values)


@settings(max_examples=80, deadline=None)
@given(trace_strategy)
def test_p1_used_indices_increase(delays):
    tr = PacketTrace(tuple(delays), 0, 3)
    values = np.arange(1.0, len(delays) + 1.0)
    state = ChannelState()
    proto = Protocol("p1")
    seen = []
    for p in range(len(delays) + 3):
        if p < len(values):
            state.send(p, p + tr.delays[p])
        channel_step(state, proto, p, values)
        if state.selected_index >= 0:
            seen.append(state.selected_index)
    assert seen == sorted(set(seen))


@settings(max_examples=80, deadline=None)
@given(trace_strategy, st.sampled_from(["p1", "p2", "p3"]))
def test_no_fabricated_values(delays, kind):
    tr = PacketTrace(tuple(delays), 0, 3)
    values = np.arange(1.0, len(delays) + 1.0)
    out = run_channel(values, tr, Protocol(kind))
    allowed = set(values) | {0.0}
    assert set(out).issubset(allowed)


def _shifted(base, tau_min):
    return PacketTrace(tuple(t + tau_min for t in base.delays), tau_min,
                       base.tau_max + tau_min)


@st.composite
def channel_cases(draw):
    """A protocol and a uniform, worst-case or shifted-pattern trace."""
    tau_max = draw(st.integers(0, 5))
    tau_min = draw(st.integers(0, tau_max))
    n = draw(st.integers(1, 300))
    shape = draw(st.sampled_from(["uniform", "worst", "shifted"]))
    if shape == "uniform":
        trace = uniform_trace(n, tau_min, tau_max, draw(st.integers(0, 2**32)))
    elif shape == "worst":
        trace = worst_case_trace(n, tau_max)
    else:
        trace = _shifted(worst_case_trace(n, tau_max - tau_min), tau_min)
    kind, selector = draw(st.sampled_from(LABELS))
    return trace, Protocol(kind, selector=selector, seed=draw(st.integers(0, 2**32)))


def _reference_held(trace, protocol, horizon, values=None):
    """Held send index (and value) per instant from the per-step receiver."""
    state = ChannelState()
    samples = range(len(trace)) if values is None else values
    held, out = [], []
    for p in range(horizon):
        if p < len(trace):
            state.send(p, p + trace.delays[p])
        out.append(channel_step(state, protocol, p, samples))
        held.append(state.last_index)
    return np.array(held), np.array(out)


@settings(max_examples=150, deadline=None)
@given(channel_cases(), st.booleans())
def test_held_index_matches_reference_receiver(case, drain):
    trace, protocol = case
    # the drained horizon lets every sent packet arrive, as run_channel does
    horizon = len(trace) + (trace.tau_max if drain else 0)
    want, _ = _reference_held(trace, protocol, horizon)
    assert np.array_equal(held_index(trace, protocol, horizon), want)


@settings(max_examples=60, deadline=None)
@given(channel_cases())
def test_run_channel_matches_reference_receiver(case):
    trace, protocol = case
    values = np.random.default_rng(len(trace)).standard_normal(len(trace))
    _, want = _reference_held(trace, protocol, len(trace) + trace.tau_max, values)
    assert np.array_equal(run_channel(values, trace, protocol), want)


def _staleness_bound(label, tau_min, tau_max):
    """The bounds the held_index docstring proves."""
    if label == "p1":
        return tau_max
    if label == "p2":
        return max(tau_max, 2 * tau_max - tau_min - 1)
    return 2 * tau_max - tau_min


@settings(max_examples=200, deadline=None)
@given(channel_cases())
def test_staleness_bounds(case):
    trace, protocol = case
    n = len(trace)
    stale = np.arange(n) - held_index(trace, protocol, n)
    assert stale.max() <= _staleness_bound(protocol.label, trace.tau_min, trace.tau_max)


def _p2_stalest(tau_min, tau_max):
    """Packet j = tau_max arrives alone and late, after all of j+1 ..
    j+tau_max-tau_min-1, and packet j+tau_max-tau_min is the next to land."""
    gap = tau_max - tau_min - 1
    delays = (tau_min,) * tau_max + (tau_max,) + (tau_min,) * gap + (tau_max,) * (tau_max + 2)
    return PacketTrace(delays, tau_min, tau_max)


@pytest.mark.parametrize("tau_min,tau_max", [(0, 1), (0, 3), (1, 3), (2, 5), (3, 3)])
def test_staleness_bounds_are_attained(tau_min, tau_max):
    n = 6 * tau_max + 6
    pattern = _shifted(worst_case_trace(n, tau_max - tau_min), tau_min)
    constant = PacketTrace((tau_max,) * n, tau_min, tau_max)
    p2_case = _p2_stalest(tau_min, tau_max) if tau_max > tau_min else constant
    for label, proto, trace in [("p1", Protocol("p1"), constant),
                                ("p2", Protocol("p2"), p2_case),
                                ("p3-oldest", Protocol("p3"), pattern)]:
        m = len(trace)
        stale = np.arange(m) - held_index(trace, proto, m)
        assert stale.max() == _staleness_bound(label, tau_min, tau_max), label


@settings(max_examples=150, deadline=None)
@given(channel_cases())
def test_receive_replays_held_index(case):
    trace, protocol = case
    state = (None, (None,) * trace.tau_max)
    if protocol.label == "p3-random":
        with pytest.raises(ValueError, match="random"):
            receive(protocol, state, trace.delays[0])
        return
    held = []
    for j, t in enumerate(trace.delays):
        stale, state = receive(protocol, state, t)
        held.append(-1 if stale is None else j - stale)
    assert np.array_equal(held_index(trace, protocol, len(trace)), held)


@settings(max_examples=150, deadline=None)
@given(channel_cases())
def test_staleness_automaton_replays_held_index(case):
    trace, protocol = case
    if protocol.label == "p3-random":
        with pytest.raises(ValueError, match="random"):
            staleness_automaton(protocol, trace.tau_min, trace.tau_max)
        return
    _, rows = staleness_automaton(protocol, trace.tau_min, trace.tau_max)
    held, i = [], 0
    for j, t in enumerate(trace.delays):
        stale, i = rows[i][t - trace.tau_min]
        held.append(-1 if stale is None else j - stale)
    assert np.array_equal(held_index(trace, protocol, len(trace)), held)


@pytest.mark.parametrize("label,counts", [("p1", (4, 11, 40, 185)),
                                          ("p2", (4, 15, 73, 433)),
                                          ("p3-oldest", (6, 22, 102, 579))],
                         ids=["p1", "p2", "p3-oldest"])
def test_staleness_automaton_state_counts(label, counts):
    proto = Protocol(*label.split("-"))
    for tau_max, want in enumerate(counts, 1):
        states, rows = staleness_automaton(proto, 0, tau_max)
        assert len(states) == len(rows) == want
        assert states[0] == (None, (None,) * tau_max)
        assert len(set(states)) == want
        assert all(len(row) == tau_max + 1 for row in rows)


def test_staleness_automaton_is_shared_per_rule_and_bounds():
    """One table per rule and delay bounds: a p3 seed or a coerced label
    gets the same tuples back; bad bounds raise."""
    assert staleness_automaton(Protocol("p3", seed=1), 1, 3) is \
        staleness_automaton(Protocol("p3", seed=2), 1, 3)
    assert staleness_automaton("p2", 0, 2) is staleness_automaton(Protocol("p2"), 0, 2)
    assert staleness_automaton("p1", 0, 2) is not staleness_automaton("p2", 0, 2)
    for lo, hi in [(-1, 2), (3, 2)]:
        with pytest.raises(ValueError, match="tau_min"):
            staleness_automaton("p1", lo, hi)


@pytest.mark.parametrize("tau_min,tau_max", [(0, 1), (0, 3), (1, 3), (3, 3), (1, 4)])
def test_staleness_bounds_hold_on_every_trace(tau_min, tau_max):
    """Every receiver state that delays in [tau_min, tau_max] reach
    attains each bound the held_index docstring proves, and no more.
    Instants before the first packet lands (staleness None) are at most
    tau_max stale, which that proof covers separately."""
    for label, proto in [("p1", Protocol("p1")), ("p2", Protocol("p2")),
                         ("p3-oldest", Protocol("p3"))]:
        _, rows = staleness_automaton(proto, tau_min, tau_max)
        worst = max(-1 if stale is None else stale for row in rows for stale, _ in row)
        assert worst == _staleness_bound(label, tau_min, tau_max), label


@pytest.mark.parametrize("tau_max", range(5))
def test_receive_matches_reference_on_every_reachable_state(tau_max):
    """Every reachable state, every delay: the automaton's transition
    agrees with the reference step, and out-of-range delays and random
    selection raise."""
    for proto in (Protocol("p1"), Protocol("p2"), Protocol("p3")):
        states, rows = staleness_automaton(proto, 0, tau_max)
        for state, row in zip(states, rows):
            for t, (stale, k) in enumerate(row):
                assert (stale, states[k]) == receive_reference(proto, state, t)
            for bad in (-1, tau_max + 1):
                with pytest.raises(ValueError, match="outside"):
                    receive(proto, state, bad)
    with pytest.raises(ValueError, match="random"):
        receive(Protocol("p3", selector="random"), (None, (None,) * tau_max), 0)
