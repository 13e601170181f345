"""Finite-horizon l2 gains of the packetized-channel delay uncertainty.

The delay uncertainty block maps a step of amplitude v_bar, accumulated
by a discrete integrator into the ramp a_k = min(k+1, T+1) v_bar, to the
mismatch w_k = a_k - c_k between the ramp and the channel output c.  The
gain alpha_T = ||w||_2 / ||v||_2 over k = 0..T+2 tau_bar depends on the
selection protocol; this module provides

  * the paper's closed-form ramp gains alpha(protocol, tau_bar),
  * the block-sum evaluation of the worst-case squared norm under the
    adversarial delay pattern,
  * an exact oracle, a dynamic program over packets in send order whose
    cost is linear in T, that maximizes over every admissible delay
    assignment (and, for p3, packet selections) to validate both,
  * a convergence table alpha_T -> alpha on the aligned horizon grid.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .packet_channel import PacketTrace, Protocol, staleness_table, worst_case_trace


def alpha_formula(protocol, tau_bar: int) -> float:
    """The paper's ramp gain of the delay uncertainty for one protocol.

    This is the gain for one input, a step accumulated into a ramp, in
    the limit of long horizons; it is not a bound on the l2-induced gain
    of the mismatch operator.  For p1 the two agree.  For p2 and p3 some
    inputs do better: under a period-2 input, p3-oldest at tau_bar = 1
    gives ||w|| / ||u|| = 1.6178 against 1.5811 here.

    p1: tau_bar.
    p2: max{sqrt(tau_bar(14 tau_bar^2 - 9 tau_bar + 1)/(6(tau_bar+1))), 1}.
    p3: sqrt(tau_bar(14 tau_bar + 1)/6).
    tau_bar = 0 is the identity channel and returns 0 for every protocol.
    """
    if tau_bar < 0:
        raise ValueError("tau_bar must be non-negative")
    if tau_bar == 0:
        return 0.0
    kind = Protocol.coerce(protocol).kind
    tb = float(tau_bar)
    if kind == "p1":
        return tb
    if kind == "p2":
        return max(math.sqrt(tb * (14 * tb**2 - 9 * tb + 1) / (6 * (tb + 1))), 1.0)
    return math.sqrt(tb * (14 * tb + 1) / 6)


def _check_amplitude(v_bar: float) -> None:
    if not (math.isfinite(v_bar) and v_bar > 0):
        raise ValueError(f"amplitude v_bar must be finite and > 0; got {v_bar!r}")


def full_block_energy(tau_bar: int, v_bar: float = 1.0) -> float:
    """Squared-norm contribution of one full hold block of the ramp:
    (tau_bar+1)(14 tau_bar^2 + tau_bar)/6 * v_bar^2."""
    _check_amplitude(v_bar)
    tb = tau_bar
    return (tb + 1) * (14 * tb**2 + tb) / 6 * v_bar**2


def _ramp(T: int, v_bar: float, n: int) -> np.ndarray:
    return np.minimum(np.arange(1, n + 1), T + 1) * v_bar


def worst_case_norm(tau_bar: int, T: int, v_bar: float = 1.0) -> float:
    """Squared 2-norm of the mismatch under the adversarial pattern.

    Evaluates the four-block sum: the initial hold-at-zero block, k1 full
    ramp blocks of length tau_bar+1, k3 saturated full blocks, and the
    truncation remainder, with a_k = min(k+1, T+1) v_bar over
    k = 0..T+2 tau_bar.
    """
    if tau_bar < 1:
        raise ValueError("worst-case norm needs tau_bar >= 1")
    _check_amplitude(v_bar)
    tb = tau_bar
    a = _ramp(T, v_bar, T + 2 * tb + 1)
    A = float(np.sum(a[:tb] ** 2))
    k1 = ramp_block_count(tb, T)
    k2 = T + 1 + tb - k1 * (tb + 1)
    k3 = k2 // (tb + 1)
    BC = 0.0
    for j in range(k1 + k3):
        held = a[j * (tb + 1)]
        seg = a[tb + j * (tb + 1): 2 * tb + j * (tb + 1) + 1]
        BC += float(np.sum((seg - held) ** 2))
    iD = tb + (k1 + k3) * (tb + 1)
    D = float(np.sum((a[iD:] - a[iD]) ** 2)) if iD <= T + 2 * tb else 0.0
    return A + BC + D


def ramp_block_count(tau_bar: int, T: int) -> int:
    """Number of full hold blocks lying entirely on the ramp (k1)."""
    return max(0, math.ceil((T + 1 - 2 * tau_bar) / (tau_bar + 1)))


def alpha_T_closed_form(tau_bar: int, T: int, v_bar: float = 1.0) -> float:
    """alpha_T = sqrt(worst_case_norm / ((T+1) v_bar^2))."""
    return math.sqrt(worst_case_norm(tau_bar, T, v_bar) / ((T + 1) * v_bar**2))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the worst-case search: the gain and a maximizing trace.

    ``evaluations`` is the number of head assignments the maximum ranges
    over, (tau_bar+1)**(T+1), not the work done.
    """
    protocol: Protocol
    tau_bar: int
    T: int
    v_bar: float
    alpha_T: float
    norm_sq: float
    trace: PacketTrace

    @property
    def evaluations(self) -> int:
        return (self.tau_bar + 1) ** (self.T + 1)


def oracle_gain(protocol, tau_bar: int, T: int, v_bar: float = 1.0) -> OracleResult:
    """Exact worst-case gain over all admissible delay assignments.

    The maximum ranges over every head assignment, (tau_bar+1)**(T+1) of
    them; packets sent after the input stops (j = T+1 .. T+2 tau_bar)
    carry the adversarial continuation delays, which cannot lower the
    maximum since any burst they join only extends an existing hold.

    The mismatch energy is a sum over receive instants, so the maximum
    is a dynamic program over packets in send order j = 0..T+2 tau_bar,
    on the receiver automaton: choosing tau_j fixes the staleness s held
    at j, which adds (a_j - a_{j-s})^2, or a_j^2 while nothing is held.
    The states do not depend on j, so the sweeps walk the process-wide
    ``packet_channel.staleness_table`` of the rule and tau_bar: a forward
    sweep marks the state ids live at each packet, asking the table for
    each transition it meets (computed once per process, on the first
    request), a backward sweep fills one flat list of values-to-go per
    packet, and a second forward sweep takes at every j the smallest
    tau_j that attains it.  The ramp is kept in integers (v_bar = 1) and
    scaled by v_bar^2 at the end, so ties are exact.  Cost: at most
    (2 tau_bar + 2)(tau_bar + 1)! states, each with tau_bar+1 moves, so
    the work is linear in T.

    For p3 the oldest selector is also the worst packet choice: with a
    non-decreasing ramp it is pointwise optimal.  The random selector
    has no deterministic transition and raises ValueError.

    Ties resolve to the lexicographically smallest head delay tuple.
    """
    protocol = Protocol.coerce(protocol)
    if tau_bar < 0:
        raise ValueError("tau_bar must be non-negative")
    if T < 0:
        raise ValueError("horizon must be non-negative")
    _check_amplitude(v_bar)
    tb = tau_bar
    n = T + 2 * tb + 1
    # nothing held yet is staleness n: ramp[j - n] is one of the zeros past the ramp
    ramp = [min(k + 1, T + 1) for k in range(n)] + [0] * n
    moves = [range(tb + 1)] * (T + 1) + [(t,) for t in worst_case_trace(n, tb).delays[T + 1:]]

    # forward: live[j] holds the ids of the states packets 0..j-1 reach;
    # the shared table computes a transition on its first request only
    table = staleness_table(protocol, 0, tb)
    rows, move = table.rows, table.move
    live = [{0}]
    for delays in moves:
        live.append({(rows[i][t] or move(i, t))[1] for i in live[-1] for t in delays})

    # backward: values[j][i] is the best energy from packet j on in state i
    values = [[0] * len(rows)]
    for j in range(n - 1, -1, -1):
        a, later, now = ramp[j], values[-1], [0] * len(rows)
        for i in live[j]:
            row, best = rows[i], -1
            for t in moves[j]:
                s, k = row[t]
                d = a - ramp[j - (n if s is None else s)]
                v = d * d + later[k]
                if v > best:
                    best = v
            now[i] = best
        values.append(now)
    values.reverse()

    # argmax: the smallest t that attains each state's value
    head, i = [], 0
    for j in range(T + 1):
        goal, later, a = values[j][i], values[j + 1], ramp[j]
        for t, (s, k) in enumerate(rows[i]):
            if (a - ramp[j - (n if s is None else s)]) ** 2 + later[k] == goal:
                break
        head.append(t)
        i = k

    best = values[0][0]
    trace = PacketTrace(tuple(head), 0, tb)
    return OracleResult(protocol, tb, T, v_bar, math.sqrt(best / (T + 1)),
                        best * v_bar**2, trace)


def alpha_asymptote_check(tau_bar: int, T_max: int, v_bar: float = 1.0) -> list:
    """Convergence table of alpha_T toward the analytic p3 gain.

    Horizons run over the aligned grid T = tau_bar + m(tau_bar+1), the
    instants at which the adversarial pattern completes a hold block;
    between grid points alpha_T dips below the envelope, on it the
    sequence is monotone non-decreasing.  Each row carries the exact
    split alpha_T^2 = ramp_term + rest_term, where ramp_term is the k1
    full ramp blocks' share k1*d/(T+1) that approaches the limiting
    d/(tau_bar+1) = alpha^2.
    """
    if tau_bar < 1:
        raise ValueError("asymptote table needs tau_bar >= 1")
    alpha = alpha_formula("p3", tau_bar)
    d = full_block_energy(tau_bar, v_bar)
    rows = []
    T = tau_bar
    while T <= T_max:
        norm_sq = worst_case_norm(tau_bar, T, v_bar)
        alpha_T = math.sqrt(norm_sq / ((T + 1) * v_bar**2))
        k1 = ramp_block_count(tau_bar, T)
        ramp_term = k1 * d / ((T + 1) * v_bar**2)
        rows.append({
            "T": T,
            "alpha_T": alpha_T,
            "alpha_limit": alpha,
            "abs_err": abs(alpha - alpha_T),
            "ramp_blocks": k1,
            "ramp_term": ramp_term,
            "rest_term": norm_sq / ((T + 1) * v_bar**2) - ramp_term,
        })
        T += tau_bar + 1
    return rows
