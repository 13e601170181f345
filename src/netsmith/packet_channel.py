"""Packetized transmission channel with bounded per-packet delays.

Each sample y_j is sent at instant j and arrives at j + tau_j with
tau_min <= tau_j <= tau_max.  Packets may arrive out of order or in
bursts.  At every receive instant p the channel applies one of three
selection protocols to the arrival set I(p) = {k : k + tau_k = p}:

  p1  use the newest arrived index, but only if it is newer than the
      last used one; otherwise keep holding the previous value.
  p2  use the newest index among the current arrivals, even if it is
      older than the last used one; hold when nothing arrives.
  p3  use the oldest or a seeded-random member of I(p) (the newest
      member is the p2 rule); hold when nothing arrives.

The rules live here only.  No rule reads the sample values, so the
channel is one integer map: ``held_index`` gives the send index held at
every instant (-1, value 0, before the first packet), and a caller reads
the samples through it.  ``receive`` steps the same receiver one
packet at a time, and ``staleness_table`` keeps one table of its
transitions per rule and delay bounds, filled as searches over delays
ask for them; ``staleness_automaton`` is that table completed.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import io

import numpy as np

PROTOCOL_KINDS = ("p1", "p2", "p3")
P3_SELECTORS = ("oldest", "random")


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

    @classmethod
    def coerce(cls, protocol) -> "Protocol":
        """``protocol`` itself, or the default protocol of kind str(protocol)."""
        return protocol if isinstance(protocol, cls) else cls(str(protocol))

    @property
    def label(self) -> str:
        if self.kind == "p3":
            return f"p3-{self.selector}"
        return self.kind

    @property
    def rule(self) -> str:
        """The selection rule: "p1", "p2", or the p3 selector."""
        return self.selector if self.kind == "p3" else self.kind


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

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("j,tau\n")
        for j, t in enumerate(self.delays):
            buf.write(f"{j},{t}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "PacketTrace":
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows or rows[0].replace(" ", "") != "j,tau":
            raise ValueError("delay trace CSV must start with header 'j,tau'")
        delays = []
        for want, line in enumerate(rows[1:]):
            j_s, tau_s = line.split(",")
            if int(j_s) != want:
                raise ValueError(f"delay trace indices must be 0,1,2,...; got {j_s} in row {want + 1}")
            delays.append(int(tau_s))
        return cls(tuple(delays), min(delays, default=0), max(delays, default=0))


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


def held_index(trace: PacketTrace, protocol: Protocol, n: int) -> np.ndarray:
    """Send index of the sample the receiver holds at p = 0 .. n-1.

    Selection never reads the sample values, so the whole channel is this
    integer map: y_hat_p = y[held_p], and held_p = -1 (value 0) until the
    first packet is used.  Packets of ``trace`` arriving at or after n
    play no part.  Every rule folds the arrival set I(p) of one instant
    into one pick and holds that pick until the next one:

      p1             running maximum of the arrived send indices; an
                     arrival older than the held one never wins.
      p2             the largest index in I(p).
      p3-oldest      the smallest index in I(p).
      p3-random      a seeded uniform draw from I(p) sorted ascending, one
                     draw per non-empty instant in time order.

    Staleness bounds.  Let s_p = p - held_p and p < len(trace).

      p1      s_p <= tau_max.  Packet p - tau_max has arrived by p (and
              for p < tau_max, s_p <= p + 1 <= tau_max even at -1), and p1
              holds the newest index that has arrived.
      p2, p3  s_p <= 2 tau_max - tau_min.  If nothing has arrived yet,
              p < tau_max since packet 0 arrives by then, so s_p <= tau_max.
              Otherwise the held index j was picked at the last arrival
              instant q <= p, so j >= q - tau_max.  As q >= tau_min,
              packet q + 1 - tau_min exists; it arrives within (q, q +
              tau_max - tau_min + 1], and nothing arrives in (q, p], so
              p <= q + tau_max - tau_min.
      p2      also s_p <= max(tau_max, 2 tau_max - tau_min - 1).  If j <
              q - tau_min, packet q - tau_min (>= 0, as q >= tau_min) lands
              at q or later but is not in I(q), where it would beat j, so
              p < q - tau_min + tau_max and s_p <= 2 tau_max - tau_min - 1.
              Otherwise j >= q - tau_min and s_p <= tau_max.

    Each bound is attained by some trace.
    """
    m = min(len(trace), n)
    index = np.arange(m)
    arrival = index + np.asarray(trace.delays[:m], dtype=np.int64)
    keep = arrival < n
    index, arrival = index[keep], arrival[keep]
    rule = protocol.rule
    pick = np.full(n, -1)
    if rule in ("p1", "p2"):
        np.maximum.at(pick, arrival, index)
        if rule == "p1":
            return np.maximum.accumulate(pick)
    elif rule == "oldest":
        pick[:] = n
        np.minimum.at(pick, arrival, index)
        pick[pick == n] = -1
    else:
        order = np.argsort(arrival, kind="stable")
        instants, first, counts = np.unique(arrival[order], return_index=True,
                                            return_counts=True)
        draws = np.random.default_rng(protocol.seed).integers(0, counts)
        pick[instants] = index[order][first + draws]
    # hold: carry each pick forward to the next instant that has one
    return pick[np.maximum.accumulate(np.where(pick >= 0, np.arange(n), 0))]


def receive(protocol: Protocol, state: tuple, delay: int) -> tuple:
    """``held_index`` as a time-invariant automaton, one packet at a time.

    The state before packet j is the staleness held at j-1 (None while
    nothing is held) and, for packets j-tau_max .. j-1, the arrival
    instant minus j (None once arrived or not sent); the start is
    (None, (None,) * tau_max).  Packet j is sent with ``delay``; no later
    packet lands at j, so I(j) is known.  Returns the staleness held at j
    and the state before packet j+1.  p3-random raises ValueError.
    """
    rule = protocol.rule
    if rule == "random":
        raise ValueError("random p3 selection has no deterministic transition")
    stale, flight = state
    if not 0 <= delay <= len(flight):
        raise ValueError(f"delay {delay} outside [0, {len(flight)}]")
    arrive = flight + (delay,)
    held = None if stale is None else stale + 1
    if 0 in arrive:
        # a 0 at arrive[i] lands now, staleness tau_max - i: first 0 oldest, last newest
        pick = len(flight) - arrive.index(0) if rule == "oldest" else arrive[::-1].index(0)
        if rule != "p1" or held is None or pick < held:
            held = pick
    return held, (held, tuple([d - 1 if d else None for d in arrive[1:]]))


def staleness_automaton(protocol, tau_min: int, tau_max: int) -> tuple:
    """Every ``receive`` state that delays in [tau_min, tau_max] reach, and
    its transitions: ``staleness_table(...).whole()``.

    Returns (states, rows): states[0] is the start (None, (None,) *
    tau_max), and rows[i][t - tau_min] is (staleness held, next state id)
    for packet delay t from states[i].  Both are tuples, shared by every
    caller with the same rule and bounds.
    """
    return staleness_table(protocol, tau_min, tau_max).whole()


def staleness_table(protocol, tau_min: int, tau_max: int) -> "StalenessTable":
    """The one ``StalenessTable`` of the protocol's selection rule and
    these bounds in this process; a p3 seed plays no part.  p3-random
    raises ValueError, as ``receive`` does."""
    protocol = Protocol.coerce(protocol)
    if protocol.rule == "random":
        raise ValueError("random p3 selection has no deterministic transition")
    if not 0 <= tau_min <= tau_max:
        raise ValueError(f"delay bounds must satisfy 0 <= tau_min <= tau_max; "
                         f"got [{tau_min}, {tau_max}]")
    return _table(protocol.rule, tau_min, tau_max)


class StalenessTable:
    """The ``receive`` automaton for delays in [tau_min, tau_max], filled
    as callers ask for transitions.

    states[0] is the start (None, (None,) * tau_max) and a state takes the
    next id when a transition first reaches it.  rows[i][t - tau_min] is
    (staleness held, next state id) for packet delay t from states[i], or
    None until ``move`` computes it, so a search pays ``receive`` only for
    the transitions no earlier search of this table asked for.
    """

    def __init__(self, rule: str, tau_min: int, tau_max: int):
        self.protocol = Protocol("p3", selector=rule) if rule == "oldest" else Protocol(rule)
        self.tau_min = tau_min
        self.width = tau_max - tau_min + 1
        start = (None, (None,) * tau_max)
        self.ids, self.states, self.rows = {start: 0}, [start], [[None] * self.width]
        self._whole = None

    def move(self, i: int, t: int) -> tuple:
        """rows[i][t - tau_min], computed on its first request."""
        row = self.rows[i]
        if row[t - self.tau_min] is None:
            stale, nxt = receive(self.protocol, self.states[i], t)
            k = self.ids.setdefault(nxt, len(self.states))
            if k == len(self.states):
                self.states.append(nxt)
                self.rows.append([None] * self.width)
            row[t - self.tau_min] = (stale, k)
        return row[t - self.tau_min]

    def whole(self) -> tuple:
        """(states, rows) over every reachable state, as tuples: the search
        runs on from the ids already given, and its result is kept."""
        if self._whole is None:
            for i, _ in enumerate(self.rows):  # grows as the search meets new states
                for t in range(self.tau_min, self.tau_min + self.width):
                    self.move(i, t)
            self._whole = tuple(self.states), tuple(map(tuple, self.rows))
        return self._whole


@functools.lru_cache(maxsize=None)
def _table(rule: str, tau_min: int, tau_max: int) -> StalenessTable:
    return StalenessTable(rule, tau_min, tau_max)
