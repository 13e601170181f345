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

Both models run through one loop on the stacked state xi = (x, x_H, x_F,
x_C) that lmi_assembly lays out, and differ only in one index array: the
controller's measurement is y_hat_k = y[held_k], with held_k from the
channel's ``held_index`` or k - tau_k.  Since no y_hat reads a sample
younger than d_hat + min_k(k - held_k) steps, the loop advances that many
steps plus one per product with a lifted step map, cached per design and
block length.  All states start at zero.  The simulation declares
divergence when the measured output magnitude crosses DIVERGENCE_LIMIT
and stops recording at that step.
"""
from __future__ import annotations

from dataclasses import dataclass
import io

import numpy as np

from .lmi_assembly import AugmentedModel, assemble_augmented
from .lti_core import realize
from .packet_channel import PacketTrace, Protocol, held_index
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
        for name, seq in (("reference", self.reference), ("disturbance", self.disturbance)):
            if seq is not None and not np.isfinite(np.asarray(seq, dtype=float)).all():
                raise ValueError(f"{name} has non-finite values")
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
    """Per-step closed-loop records, truncated at divergence.

    divergence_step is the step whose measured output crossed
    DIVERGENCE_LIMIT, the last one recorded, or None; ``diverged`` says
    whether there is one.
    """
    k: np.ndarray
    r: np.ndarray
    u: np.ndarray
    y: np.ndarray
    y_hat: np.ndarray
    y_F: np.ndarray
    y_H: np.ndarray
    selected_index: np.ndarray
    divergence_step: int | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence_step is not None

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


def _lifted(A, cols, out_row, L: int):
    """L steps of z_{i+1} = A z_i + cols u_i from z_0, listing each state
    z_1 .. z_L followed by its output out_row z_i.

    Returns the block step, (L (N+1)) x (N + L) in z_0 and the first
    input column's L values, and the forced response, forced[c, t] the
    listing for a unit input on column c of cols at step t.
    """
    N = A.shape[0]
    C = np.vstack([np.eye(N), out_row])
    powers = [np.eye(N)]
    for _ in range(L):
        powers.append(A @ powers[-1])
    free = (C @ np.array(powers[1:])).reshape(-1, N)
    # impulse[j] = C A^j cols: state i+1 sees the input of step t <= i
    # through A^(i-t)
    impulse = C @ np.array(powers[:L]) @ cols
    lag = np.subtract.outer(np.arange(L), np.arange(L))
    forced = impulse[lag.clip(0)] * (lag >= 0)[:, :, None, None]
    forced = forced.transpose(3, 1, 0, 2).reshape(cols.shape[1], L, -1)
    return np.hstack([free, forced[0].T]), forced


def _step_data(design: PredictorDesign):
    """(model, sv, A, cols, out_row): the augmented model, the prefilter
    realization, and the step z_{k+1} = A z_k + cols (y_hat_k, r_k, w_k)
    with output out_row z_k on z = (xi, x_V).

    The prefilter state x_V rides along after xi, so r_V,k = c_V x_V,k +
    d_V r_k enters through the matrix.
    """
    model = assemble_augmented(design)
    sv = realize(design.prefilter)
    nxi, nv = model.n_xi, sv.order
    A = np.block([[model.A_tilde, np.outer(model.input_reference, sv.c)],
                  [np.zeros((nv, nxi)), sv.A]])
    g, out_row = np.pad([model.g, model.output_row], ((0, 0), (0, nv)))
    e_r = np.append(model.input_reference * sv.d, sv.b)
    e_w = np.append(model.input_disturbance, np.zeros(nv))
    return model, sv, A, np.column_stack([g, e_r, e_w]), out_row


def simulate(scenario: SimScenario) -> SimTrace:
    """Run the scenario and return the recorded trace.

    Both models step the design's ``assemble_augmented`` model, xi_{k+1} =
    A_tilde xi_k + g y_hat_k + input_reference r_V,k + input_disturbance
    w_k, with r_V the prefiltered reference and w the plant-input
    disturbance, and send the measured output y_k = output_row
    xi_{k-d_hat} as packet k.  They differ only in the index map y_hat_k
    = y[held_k]: the packetized loop takes ``held_index`` of its channel,
    the sample-delay loop k - tau_k; -1 reads 0.  y_F, y_H and u are read
    out of the state history afterwards.  The sample-delay model has no
    channel, so its u, y_hat, y_F, y_H are NaN and its selected_index is
    -1.

    The loop advances L = d_hat + min_k(k - held_k) + 1 steps at a time:
    every y_hat of a block then reads an output of a state from before
    the block, so one product of the lifted step map with one gathered
    vector gives the block's states and outputs.  The reference and
    disturbance responses of all blocks come from one product up front.
    The first crossing of DIVERGENCE_LIMIT is looked for after blocks 1,
    3, 7, ...: exact, since no y_hat reads ahead of its block, and a
    diverging run computes at most about twice the blocks up to it.
    """
    design = scenario.design
    model, sv, A, cols, out_row = design._memoized("sim_engine.step", _step_data)
    nxi, nv = model.n_xi, sv.order
    packetized = scenario.model == "packetized"
    d_hat = design.d_hat
    n = scenario.steps
    r = _padded(scenario.reference, n)
    w = _padded(scenario.disturbance, n)
    k = np.arange(n)
    if packetized:
        held = held_index(scenario.trace, scenario.protocol, n)
    else:
        held = k - np.asarray(scenario.trace.delays[:n])
        held[held < 0] = -1
    read = held >= 0
    L = min(n, d_hat + 1 + int(np.min(k[read] - held[read], initial=n)))
    blocks = -(-(n - 1) // L)

    step, forced = design._memoized(f"sim_engine.lifted.{L}",
                                    lambda d: _lifted(A, cols, out_row, L))
    N = nxi + nv
    width, first = L * (N + 1), (d_hat + 1) * (N + 1)

    # hist[d_hat + i] = (z_i, out_row z_i), so hist[k, N] is y_k; the
    # d_hat leading zero rows are the zero history the first measurements
    # read, and the trailing zero row is what index -1 reads.
    hist = np.zeros((d_hat + blocks * L + 2, N + 1))
    np.matmul(np.hstack([_padded(r, blocks * L).reshape(blocks, L),
                         _padded(w, blocks * L).reshape(blocks, L)]),
              forced[1:].reshape(2 * L, -1),
              out=hist[d_hat + 1:d_hat + 1 + blocks * L].reshape(blocks, width))
    # block b writes flat[first + b width:][:width] from gather[b]: the flat
    # positions of its state row and of its y_hat's L outputs (-1: zero row)
    gather = np.empty((blocks, N + L), dtype=np.intp)
    np.add.outer(width * np.arange(blocks), np.arange(first - N - 1, first - 1),
                 out=gather[:, :N])
    gather[:, N:] = (np.append(held, np.full(L, -1))[:blocks * L].reshape(blocks, L)
                     * (N + 1) + N)
    flat = hist.reshape(-1)
    y = hist[:, N]
    # look for a crossing after blocks 1, 3, 7, ...; once one is found,
    # step on only until the state of the crossing step exists
    done, last, crossing = 0, n, None
    while done * L < last - 1:
        upto = min(2 * done + 1, -(-(last - 1) // L))
        starts = range(first + done * width, first + upto * width, width)
        for start, at in zip(starts, gather[done:upto]):
            flat[start:start + width] += step @ flat[at]
        done = upto
        crossed = np.flatnonzero(np.abs(y[:min(last, d_hat + 1 + done * L)]) > DIVERGENCE_LIMIT)
        if crossed.size:
            crossing = int(crossed[0])
            last = crossing + 1

    held = held[:last]
    if packetized:
        y_hat = y[held]
        xi, x_v = np.hsplit(hist[d_hat:d_hat + last, :N], [nxi])
        r_v = x_v @ sv.c + sv.d * r[:last]
        y_H = xi @ model.rows[1]
        y_F = xi @ model.rows[2] + model.d_F * y_hat
        u = xi @ model.rows[3] + model.d_C * (r_v - y_F - y_H)
        sel = np.where(held != np.append(-1, held[:-1]), held, -1)
    else:
        u, y_hat, y_F, y_H = (np.full(last, np.nan) for _ in range(4))
        sel = np.full(last, -1)
    return SimTrace(k=k[:last], r=r[:last], u=u, y=y[:last].copy(),
                    y_hat=y_hat, y_F=y_F, y_H=y_H, selected_index=sel,
                    divergence_step=crossing)


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
