"""Packetized transmission channel with bounded per-packet delays.

Each sample y_j is sent at instant j and arrives at j + tau_j with
tau_min <= tau_j <= tau_max.  Packets may arrive out of order or in
bursts.  At every receive instant p the channel applies one of three
selection protocols to the arrival set I(p) = {k : k + tau_k = p}:

  p1  use the newest arrived index, but only if it is newer than the
      last used one; otherwise keep holding the previous value.
  p2  use the newest index among the current arrivals, even if it is
      older than the last used one; hold when nothing arrives.
  p3  use any member of I(p), configurable as oldest, newest, or
      seeded-random; hold when nothing arrives.

The held value starts at 0 and the last-used index at -1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import io

import numpy as np

PROTOCOL_KINDS = ("p1", "p2", "p3")
P3_SELECTORS = ("oldest", "newest", "random")


@dataclass(frozen=True)
class Protocol:
    """Packet selection protocol; selector and seed apply to p3 only."""
    kind: str
    selector: str = "oldest"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol {self.kind!r}; expected one of {PROTOCOL_KINDS}")
        if self.kind == "p3" and self.selector not in P3_SELECTORS:
            raise ValueError(f"unknown p3 selector {self.selector!r}; expected one of {P3_SELECTORS}")

    @property
    def label(self) -> str:
        if self.kind == "p3":
            return f"p3-{self.selector}"
        return self.kind


@dataclass(frozen=True)
class PacketTrace:
    """Per-packet delays tau_j (samples) with their admissible bounds."""
    delays: tuple
    tau_min: int
    tau_max: int

    def __post_init__(self):
        object.__setattr__(self, "delays", tuple(int(t) for t in self.delays))
        if not 0 <= self.tau_min <= self.tau_max:
            raise ValueError(
                f"delay bounds must satisfy 0 <= tau_min <= tau_max; "
                f"got [{self.tau_min}, {self.tau_max}]")
        for j, t in enumerate(self.delays):
            if not self.tau_min <= t <= self.tau_max:
                raise ValueError(
                    f"packet {j} delay {t} outside bounds [{self.tau_min}, {self.tau_max}]")

    def __len__(self) -> int:
        return len(self.delays)

    def arrival(self, j: int) -> int:
        return j + self.delays[j]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("j,tau\n")
        for j, t in enumerate(self.delays):
            buf.write(f"{j},{t}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, tau_min: int | None = None,
                 tau_max: int | None = None) -> "PacketTrace":
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows or rows[0].replace(" ", "") != "j,tau":
            raise ValueError("delay trace CSV must start with header 'j,tau'")
        delays = []
        for want, line in enumerate(rows[1:]):
            j_s, tau_s = line.split(",")
            if int(j_s) != want:
                raise ValueError(f"delay trace indices must be 0,1,2,...; got {j_s} in row {want + 1}")
            delays.append(int(tau_s))
        lo = min(delays, default=0) if tau_min is None else tau_min
        hi = max(delays, default=0) if tau_max is None else tau_max
        return cls(tuple(delays), lo, hi)


def uniform_trace(n: int, tau_min: int, tau_max: int, seed: int) -> PacketTrace:
    """I.i.d. uniform delays on [tau_min, tau_max] from a 64-bit seed."""
    rng = np.random.default_rng(seed)
    delays = rng.integers(tau_min, tau_max + 1, size=n)
    return PacketTrace(tuple(int(t) for t in delays), tau_min, tau_max)


def worst_case_trace(n: int, tau_bar: int) -> PacketTrace:
    """Adversarial pattern tau_j = tau_bar - (j mod (tau_bar+1)).

    Groups of tau_bar+1 consecutive packets all arrive in a single burst,
    so an oldest-first selector holds the stalest sample of each group for
    the longest admissible time.
    """
    if tau_bar < 0:
        raise ValueError("tau_bar must be non-negative")
    delays = tuple(tau_bar - (j % (tau_bar + 1)) for j in range(n))
    return PacketTrace(delays, 0, tau_bar)


@dataclass
class ChannelState:
    """Mutable receiver state: hold value, last used index, in-flight packets."""
    last_index: int = -1
    last_output: float = 0.0
    in_flight: list = field(default_factory=list)
    selected_index: int = -1
    _rng: np.random.Generator | None = None

    def send(self, index: int, arrival: int) -> None:
        self.in_flight.append((index, arrival))

    def rng_for(self, protocol: Protocol) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(protocol.seed)
        return self._rng


def channel_step(state: ChannelState, protocol: Protocol, p: int, samples) -> float:
    """Receive instant p: pick from the packets arriving now, or hold.

    ``samples`` maps send index to the transmitted value (any indexable).
    Updates the state in place and returns y_hat_p.  The chosen send index
    is left in ``state.selected_index`` (-1 when holding).
    """
    arrivals = sorted(j for j, a in state.in_flight if a == p)
    state.in_flight = [(j, a) for j, a in state.in_flight if a != p]
    choice = None
    if arrivals:
        if protocol.kind == "p1":
            fresh = [j for j in arrivals if j > state.last_index]
            choice = max(fresh) if fresh else None
        elif protocol.kind == "p2":
            choice = max(arrivals)
        else:
            if protocol.selector == "oldest":
                choice = min(arrivals)
            elif protocol.selector == "newest":
                choice = max(arrivals)
            else:
                choice = arrivals[int(state.rng_for(protocol).integers(len(arrivals)))]
    if choice is None:
        state.selected_index = -1
        return state.last_output
    state.selected_index = choice
    state.last_index = choice
    state.last_output = float(samples[choice])
    return state.last_output


def run_channel(values, trace: PacketTrace, protocol: Protocol):
    """Feed a full sample sequence through the channel.

    Returns a numpy vector of y_hat over p = 0 .. len(values)+tau_max-1,
    long enough for every sent packet to arrive.
    """
    n = len(values)
    if len(trace) < n:
        raise ValueError(f"trace covers {len(trace)} packets but {n} samples were given")
    state = ChannelState()
    out = np.zeros(n + trace.tau_max)
    for p in range(len(out)):
        if p < n:
            state.send(p, trace.arrival(p))
        out[p] = channel_step(state, protocol, p, values)
    return out
