"""Per-step slow references of the packet channel, for tests only.

The receiver keeps its in-flight packets in a list and applies the
selection rule at every instant, one step at a time.  ``held_index`` in
netsmith.packet_channel computes the same thing as one index map; the
differential tests compare the two.  ``receive_reference`` is the
per-packet automaton step written with an explicit list of the packets
that land, against which ``packet_channel.receive`` is checked.
``run_channel`` reads a whole sample sequence through ``held_index``, for
tests that need the held values rather than the indices.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from netsmith.packet_channel import PacketTrace, Protocol, held_index


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
            else:
                choice = arrivals[int(state.rng_for(protocol).integers(len(arrivals)))]
    if choice is None:
        state.selected_index = -1
        return state.last_output
    state.selected_index = choice
    state.last_index = choice
    state.last_output = float(samples[choice])
    return state.last_output


def receive_reference(protocol: Protocol, state: tuple, delay: int) -> tuple:
    """``packet_channel.receive`` with the landing packets listed in full."""
    rule = protocol.selector if protocol.kind == "p3" else protocol.kind
    if rule == "random":
        raise ValueError("random p3 selection has no deterministic transition")
    stale, flight = state
    if not 0 <= delay <= len(flight):
        raise ValueError(f"delay {delay} outside [0, {len(flight)}]")
    arrive = flight + (delay,)
    # packet j - tau_max + i lands now with staleness tau_max - i
    hits = [len(flight) - i for i, d in enumerate(arrive) if d == 0]
    held = None if stale is None else stale + 1
    if hits:
        pick = hits[0] if rule == "oldest" else hits[-1]
        if rule != "p1" or held is None or pick < held:
            held = pick
    return held, (held, tuple(d - 1 if d else None for d in arrive[1:]))


def run_channel(values, trace: PacketTrace, protocol: Protocol):
    """Feed a full sample sequence through the channel.

    Returns a numpy vector of y_hat over p = 0 .. len(values)+tau_max-1,
    long enough for every sent packet to arrive; 0 before the first packet.
    """
    n = len(values)
    if len(trace) < n:
        raise ValueError(f"trace covers {len(trace)} packets but {n} samples were given")
    sent = PacketTrace(trace.delays[:n], trace.tau_min, trace.tau_max)
    held = held_index(sent, protocol, n + trace.tau_max)
    # the appended 0 is what index -1 reads
    return np.append(np.asarray(values, dtype=float), 0.0)[held]
