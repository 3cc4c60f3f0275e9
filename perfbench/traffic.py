"""Seeded traffic for the dataplane workloads.

Both generators hand out fresh ``[(port, Packet), ...]`` lists, one per
call, with timestamps that keep rising across calls (one packet per
microsecond of trace time, the :class:`repro.traffic.TrafficGenerator`
default).  A flow's first packet always arrives forward on the LAN port,
so stateful NFs see a session opened before its replies arrive on the
WAN port.

* :class:`SteadyTraffic` draws uniformly from a fixed set of flows.
  After :meth:`SteadyTraffic.establish` every flow is known, so each
  later call carries new packets of known flows (the warm-new regime);
  without it the first calls open the flows (the cold regime).
* :class:`ChurnTraffic` keeps a fixed working set of live flows; a set
  share of packets opens a fresh flow, which retires the oldest live one.
"""

from __future__ import annotations

import numpy as np

from repro.nf.flow import FiveTuple
from repro.nf.packet import PROTO_UDP

LAN, WAN = 0, 1
RATE_PPS = 1e6
PKT_SIZE = 64


class _FlowSource:
    """Distinct random 5-tuples, never repeating over its lifetime."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._seen: set[FiveTuple] = set()

    def take(self, n: int) -> list[FiveTuple]:
        out: list[FiveTuple] = []
        while len(out) < n:
            need = n - len(out)
            ips = self.rng.integers(1, 2**32, size=(need, 2)).tolist()
            ports = self.rng.integers(1, 2**16, size=(need, 2)).tolist()
            for (src, dst), (sport, dport) in zip(ips, ports):
                flow = FiveTuple(src, dst, sport, dport, PROTO_UDP)
                reply = flow.inverted()
                # A fresh flow must not already be known in either
                # direction, or its "first" packet would not open it.
                if flow in self._seen or reply in self._seen:
                    continue
                self._seen.add(flow)
                self._seen.add(reply)
                out.append(flow)
        return out


class _Clock:
    """Packet timestamps: one per microsecond, rising across calls."""

    def __init__(self) -> None:
        self.next_index = 0

    def take(self, n: int) -> list[float]:
        start = self.next_index
        self.next_index += n
        return [i / RATE_PPS for i in range(start, start + n)]


class SteadyTraffic:
    """Uniform picks over ``n_flows`` fixed flows, ``reply_fraction`` on WAN."""

    def __init__(
        self, seed: int, n_flows: int = 2000, reply_fraction: float = 0.3
    ) -> None:
        self.rng = np.random.default_rng([seed, 1])
        self.flows = _FlowSource(self.rng).take(n_flows)
        self._replies = [flow.inverted() for flow in self.flows]
        self._opened = np.zeros(n_flows, dtype=bool)
        self.reply_fraction = reply_fraction
        self.clock = _Clock()

    def establish(self) -> list:
        """One forward packet per flow, in a seeded order."""
        order = self.rng.permutation(len(self.flows)).tolist()
        self._opened[:] = True
        flows = self.flows
        return [
            (LAN, flows[i].packet(PKT_SIZE, ts))
            for i, ts in zip(order, self.clock.take(len(order)))
        ]

    def call(self, n: int) -> list:
        picks = self.rng.integers(0, len(self.flows), size=n)
        replies = self.rng.random(n) < self.reply_fraction
        # A reply is only allowed once its flow has sent a forward packet
        # (earlier in this call, or in any earlier call).
        first = np.zeros(n, dtype=bool)
        unopened = ~self._opened[picks]
        if unopened.any():
            idx = np.flatnonzero(unopened)
            _, at = np.unique(picks[idx], return_index=True)
            first[idx[at]] = True
            self._opened[picks[idx]] = True
        replies &= ~first
        flows, back = self.flows, self._replies
        return [
            (WAN, back[f].packet(PKT_SIZE, ts))
            if r
            else (LAN, flows[f].packet(PKT_SIZE, ts))
            for f, r, ts in zip(
                picks.tolist(), replies.tolist(), self.clock.take(n)
            )
        ]


class ChurnTraffic:
    """A working set of ``n_flows`` live flows with steady turnover.

    Each packet opens a fresh flow with probability ``new_flow_fraction``;
    the fresh flow replaces the oldest live one.  Every other packet picks
    a live flow uniformly and is its reply with probability
    ``reply_fraction``.
    """

    def __init__(
        self,
        seed: int,
        n_flows: int = 2000,
        new_flow_fraction: float = 0.05,
        reply_fraction: float = 0.3,
    ) -> None:
        self.rng = np.random.default_rng([seed, 2])
        self._source = _FlowSource(self.rng)
        self.live = self._source.take(n_flows)
        self._oldest = 0
        self.new_flow_fraction = new_flow_fraction
        self.reply_fraction = reply_fraction
        self.clock = _Clock()

    def establish(self) -> list:
        """One forward packet per initial live flow, oldest first."""
        return [
            (LAN, flow.packet(PKT_SIZE, ts))
            for flow, ts in zip(self.live, self.clock.take(len(self.live)))
        ]

    def call(self, n: int) -> list:
        fresh_mask = self.rng.random(n) < self.new_flow_fraction
        picks = self.rng.integers(0, len(self.live), size=n).tolist()
        replies = (self.rng.random(n) < self.reply_fraction).tolist()
        fresh = iter(self._source.take(int(fresh_mask.sum())))
        live = self.live
        out = []
        for is_new, pick, reply, ts in zip(
            fresh_mask.tolist(), picks, replies, self.clock.take(n)
        ):
            if is_new:
                flow = next(fresh)
                live[self._oldest] = flow
                self._oldest = (self._oldest + 1) % len(live)
                out.append((LAN, flow.packet(PKT_SIZE, ts)))
            elif reply:
                out.append((WAN, live[pick].inverted().packet(PKT_SIZE, ts)))
            else:
                out.append((LAN, live[pick].packet(PKT_SIZE, ts)))
        return out
