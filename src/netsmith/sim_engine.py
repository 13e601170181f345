"""Closed-loop time-domain simulation.

Two models of the same loop:

  packetized     the plant output is sampled, packetized, and sent over
                 the bounded-delay channel; the receiver applies a
                 selection protocol with zero-order hold.  This is the
                 loop the certificates are about.
  sample_delay   the channel is replaced by a pure time-varying sample
                 delay acting on the measured output, the abstraction
                 behind the LMI model.  The two models agree for constant
                 delays and can disagree dramatically for varying ones:
                 a protocol that re-uses stale packets can destabilize a
                 loop whose sample-delay abstraction is perfectly tame.

Both models run through one per-step loop on the stacked state
xi = (x, x_H, x_F, x_C) that lmi_assembly lays out; they differ only in
where the controller's measurement y_hat comes from.  All states start at
zero.  The simulation declares divergence when the measured output
magnitude crosses DIVERGENCE_LIMIT and stops recording at that step.
"""
from __future__ import annotations

from dataclasses import dataclass
import io

import numpy as np

from .lmi_assembly import AugmentedModel, _stacked_loop
from .lti_core import realize
from .packet_channel import ChannelState, PacketTrace, Protocol, channel_step
from .smith_design import PredictorDesign

DIVERGENCE_LIMIT = 1e6
MODELS = ("packetized", "sample_delay")


@dataclass
class SimScenario:
    """One closed-loop run: design, protocol, delay trace, and inputs.

    reference and disturbance are per-step arrays (shorter arrays are
    zero-padded); ``model`` picks the packetized loop or its sample-delay
    abstraction, in which case the trace delays act as per-step sample
    delays and the protocol is irrelevant.
    """
    design: PredictorDesign
    protocol: Protocol
    trace: PacketTrace
    reference: np.ndarray
    steps: int
    disturbance: np.ndarray | None = None
    model: str = "packetized"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.steps < 1:
            raise ValueError("horizon must be at least 1 step")
        if len(self.trace) < self.steps:
            raise ValueError(
                f"delay trace covers {len(self.trace)} packets; horizon needs {self.steps}")
        if (self.trace.tau_min < self.design.tau_n_min
                or self.trace.tau_max > self.design.tau_n_max):
            raise ValueError(
                f"trace delay bounds [{self.trace.tau_min}, {self.trace.tau_max}] exceed "
                f"the design bounds [{self.design.tau_n_min}, {self.design.tau_n_max}]")


@dataclass
class SimTrace:
    """Per-step closed-loop records, truncated at divergence."""
    k: np.ndarray
    r: np.ndarray
    u: np.ndarray
    y: np.ndarray
    y_hat: np.ndarray
    y_F: np.ndarray
    y_H: np.ndarray
    selected_index: np.ndarray
    diverged: bool = False
    divergence_step: int | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("k,r,u,y,y_hat,y_F,y_H,selected_index\n")
        for i in range(len(self.k)):
            vals = (self.r[i], self.u[i], self.y[i], self.y_hat[i],
                    self.y_F[i], self.y_H[i])
            buf.write(f"{int(self.k[i])}," + ",".join(f"{v:.17g}" for v in vals)
                      + f",{int(self.selected_index[i])}\n")
        return buf.getvalue()


def _padded(seq, n: int) -> np.ndarray:
    out = np.zeros(n)
    if seq is not None:
        m = min(len(seq), n)
        out[:m] = np.asarray(seq, dtype=float)[:m]
    return out


def simulate(scenario: SimScenario) -> SimTrace:
    """Run the scenario and return the recorded trace.

    Both models step xi_{k+1} = A_tilde xi_k + g y_hat_k + b_ref r_V,k +
    b_dist w_k on the stacked state of lmi_assembly, with r_V the
    prefiltered reference and w the plant-input disturbance, and send the
    measured output y_k = out_row xi_{k-d_hat} as packet k.  They differ
    only in y_hat_k: the packetized loop takes what the channel selects,
    the sample-delay loop takes out_row xi_{k-d_hat-tau_k}.  y_F, y_H and
    u are read out of the state history afterwards.  The sample-delay
    model has no channel, so its u, y_hat, y_F, y_H are NaN and its
    selected_index is -1.
    """
    design = scenario.design
    loop = _stacked_loop(design)
    sv = realize(design.prefilter)
    nxi, nv = loop.A.shape[0], sv.order
    packetized = scenario.model == "packetized"
    delays = scenario.trace.delays
    d_hat = design.d_hat
    n = scenario.steps
    r = _padded(scenario.reference, n)
    w = _padded(scenario.disturbance, n)

    # The prefilter state x_V rides along after xi, so r_V,k = c_V x_V,k +
    # d_V r_k enters through the matrix and the inputs known in advance
    # collapse into one drive row per step.
    A = np.block([[loop.A, np.outer(loop.b_ref, sv.c)],
                  [np.zeros((nv, nxi)), sv.A]])
    g, out_row = np.pad([loop.g, loop.rows[0]], ((0, 0), (0, nv)))
    drive = (np.outer(r, np.append(loop.b_ref * sv.d, sv.b))
             + np.outer(w, np.append(loop.b_dist, np.zeros(nv))))
    # hist[d_hat + k] holds (xi_k, x_V,k); the d_hat leading zero rows
    # are the zero history the first measurements read
    hist = np.zeros((d_hat + n + 1, nxi + nv))
    y = np.zeros(n)
    y_hat = np.zeros(n)
    sel = np.full(n, -1)
    state = ChannelState()
    diverged = False
    last = n
    for k in range(n):
        y[k] = out_row @ hist[k]
        if packetized:
            state.send(k, scenario.trace.arrival(k))
            y_hat[k] = channel_step(state, scenario.protocol, k, y)
            sel[k] = state.selected_index
        elif k >= delays[k]:
            y_hat[k] = y[k - delays[k]]
        if abs(y[k]) > DIVERGENCE_LIMIT:
            diverged = True
            last = k + 1
            break
        hist[d_hat + k + 1] = A @ hist[d_hat + k] + g * y_hat[k] + drive[k]

    if packetized:
        xi, x_v = np.hsplit(hist[d_hat:d_hat + last], [nxi])
        y_hat = y_hat[:last]
        r_v = x_v @ sv.c + sv.d * r[:last]
        y_H = xi @ loop.rows[1]
        y_F = xi @ loop.rows[2] + loop.d_F * y_hat
        u = xi @ loop.rows[3] + loop.d_C * (r_v - y_F - y_H)
    else:
        u, y_hat, y_F, y_H = (np.full(last, np.nan) for _ in range(4))
    return SimTrace(k=np.arange(last), r=r[:last], u=u, y=y[:last],
                    y_hat=y_hat, y_F=y_F, y_H=y_H, selected_index=sel[:last],
                    diverged=diverged,
                    divergence_step=last - 1 if diverged else None)


def simulate_sample_delay(model: AugmentedModel, delay_sequence, steps: int,
                          reference=None, disturbance=None):
    """Iterate the sample-delay closed loop and return (xi_history, y).

    delay_sequence holds the per-step network delay tau_k^N, each within
    the model bounds; the state reaches back d_hat + tau_k^N samples with
    zero history.  reference must already be prefiltered (it enters the
    tracking error directly); y is the measured plant output, lagging the
    delay-free plant state by d_hat samples.
    """
    if len(delay_sequence) < steps:
        raise ValueError(f"delay sequence covers {len(delay_sequence)} steps; need {steps}")
    for k in range(steps):
        t = int(delay_sequence[k])
        if not model.tau_n_min <= t <= model.tau_n_max:
            raise ValueError(
                f"delay {t} at step {k} outside bounds "
                f"[{model.tau_n_min}, {model.tau_n_max}]")
    r = _padded(reference, steps)
    w = _padded(disturbance, steps)
    nxi = model.n_xi
    hist = np.zeros((steps + 1, nxi))
    for k in range(steps):
        back = k - model.d_hat - int(delay_sequence[k])
        delayed = hist[back] if back >= 0 else np.zeros(nxi)
        hist[k + 1] = (model.A_tilde @ hist[k] + model.A_d_tilde @ delayed
                       + model.input_reference * r[k]
                       + model.input_disturbance * w[k])
    y = np.zeros(steps)
    for k in range(steps):
        back = k - model.d_hat
        y[k] = model.output_row @ hist[back] if back >= 0 else 0.0
    return hist[1:], y
