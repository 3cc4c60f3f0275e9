"""Adversarial traffic synthesis for the differential oracle.

Each :class:`WorkloadSpec` names one traffic model; materialization
produces a concrete ``(port, Packet)`` trace so reproducer files can
pin the exact packets (replays must not depend on generator RNG state).

Models reuse the simulation substrate:

* ``uniform`` / ``zipf`` — :class:`repro.traffic.TrafficGenerator`,
  with symmetric replies mixed in;
* ``churn`` — :func:`repro.traffic.churn.churn_trace` burst (high
  relative churn, the Figure 9 stressor);
* ``exhaust`` — uniform traffic with several times more flows than the
  smallest state capacity, driving per-core shards into refusal (the
  §4 capacity-divergence corner);
* ``collide`` — :func:`repro.sim.attack.find_colliding_flows` aimed at
  one indirection-table entry of the generated RSS config (the §5
  attacker), so one core absorbs the whole trace;
* ``boundary`` — handcrafted extreme header values (zero/max
  addresses and ports, guard-constant neighbors, odd protocols and
  frame sizes) cycled over a small flow set;
* ``rescale`` — a churn trace layered with the elastic-scaling
  stressor: the oracle replays it with a mid-trace grow *and* shrink
  (``repro.scale``) whenever the verdict permits shared-nothing, so
  live state migration is differentially checked against the same
  sequential reference.  Materialization itself is churn traffic (the
  rescale events are the oracle's job — reproducer files pin packets,
  not controller actions).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.nf.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.traffic.churn import churn_trace
from repro.traffic.distributions import paper_zipf_weights
from repro.traffic.generator import Trace, TrafficGenerator

__all__ = ["WORKLOAD_KINDS", "WorkloadSpec", "materialize_workload"]

WORKLOAD_KINDS: tuple[str, ...] = (
    "uniform",
    "zipf",
    "churn",
    "exhaust",
    "collide",
    "boundary",
    "rescale",
)

#: Boundary values per 16-bit port field, mixed with guard constants.
_PORT_EDGES = (0, 1, 53, 67, 1023, 1024, 8080, 49151, 49152, 65535)
_IP_EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
_PROTO_EDGES = (0, PROTO_TCP, PROTO_UDP, 255)
_SIZE_EDGES = (64, 127, 128, 575, 576, 1499, 1500)


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic model draw, serializable for reproducer files."""

    kind: str
    seed: int
    n_packets: int = 128
    n_flows: int = 32

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(
            kind=data["kind"],
            seed=int(data["seed"]),
            n_packets=int(data.get("n_packets", 128)),
            n_flows=int(data.get("n_flows", 32)),
        )


def random_workload(
    rng: np.random.Generator,
    *,
    n_packets: int = 128,
    n_flows: int = 32,
) -> WorkloadSpec:
    """Draw one workload kind with a derived seed."""
    kind = WORKLOAD_KINDS[int(rng.integers(len(WORKLOAD_KINDS)))]
    return WorkloadSpec(
        kind=kind,
        seed=int(rng.integers(2**31)),
        n_packets=n_packets,
        n_flows=n_flows,
    )


def _boundary_trace(spec: WorkloadSpec, guard_values: tuple[int, ...]) -> Trace:
    rng = np.random.default_rng(spec.seed)
    ports = list(_PORT_EDGES) + [
        v & 0xFFFF for v in guard_values
    ] + [max(0, (v & 0xFFFF) - 1) for v in guard_values] + [
        (v + 1) & 0xFFFF for v in guard_values
    ]
    flows: list[Packet] = []
    for _ in range(max(4, spec.n_flows // 2)):
        flows.append(
            Packet(
                src_ip=int(rng.choice(_IP_EDGES)),
                dst_ip=int(rng.choice(_IP_EDGES)),
                src_port=int(rng.choice(ports)),
                dst_port=int(rng.choice(ports)),
                proto=int(rng.choice(_PROTO_EDGES)),
                wire_size=int(rng.choice(_SIZE_EDGES)),
            )
        )
    trace: Trace = []
    for i in range(spec.n_packets):
        pkt = flows[int(rng.integers(len(flows)))]
        in_port = int(rng.random() < 0.25)
        pkt = Packet(
            **{
                **{f: getattr(pkt, f) for f in (
                    "src_ip", "dst_ip", "src_port", "dst_port", "proto",
                    "src_mac", "dst_mac", "eth_type", "wire_size",
                )},
                "timestamp": i / 1e6,
            }
        )
        trace.append((in_port, pkt))
    return trace


def _collide_trace(spec: WorkloadSpec, rss) -> Trace:
    from repro.sim.attack import find_colliding_flows

    config = rss.port_config(0)
    attack = find_colliding_flows(
        config,
        spec.n_flows,
        rng=np.random.default_rng(spec.seed),
        max_probes=100_000,
    )
    flows = attack.flows
    if not flows:  # pathological table: fall back to uniform
        return _uniform_like(spec, weights=None)
    rng = np.random.default_rng(spec.seed + 1)
    picks = rng.integers(len(flows), size=spec.n_packets)
    return [
        (0, flows[int(p)].packet(64, i / 1e6))
        for i, p in enumerate(picks)
    ]


def _uniform_like(spec: WorkloadSpec, weights) -> Trace:
    generator = TrafficGenerator(seed=spec.seed)
    flows = generator.make_flows(spec.n_flows)
    return generator.trace(
        spec.n_packets,
        flows,
        weights=weights,
        reply_port=1,
        reply_fraction=0.25,
    )


def materialize_workload(
    spec: WorkloadSpec,
    *,
    guard_values: tuple[int, ...] = (),
    min_capacity: int | None = None,
    rss=None,
) -> Trace:
    """Build the concrete trace for ``spec``.

    ``guard_values`` (the generated NF's branch constants) seed the
    boundary model; ``min_capacity`` scales the exhaustion model;
    ``rss`` (an :class:`~repro.rs3.config.RssConfiguration`) enables the
    collision model — without it the collision workload degrades to
    uniform traffic.
    """
    if spec.kind == "uniform":
        return _uniform_like(spec, weights=None)
    if spec.kind == "zipf":
        return _uniform_like(spec, weights=paper_zipf_weights(spec.n_flows))
    if spec.kind in ("churn", "rescale"):
        # The rescale stressor is churn traffic by construction: state
        # churns while the oracle grows and shrinks the core count, so
        # migrations race flow creation/expiry.
        generator = TrafficGenerator(seed=spec.seed)
        return churn_trace(
            generator,
            spec.n_packets,
            max(8, spec.n_flows // 2),
            relative_churn_fpg=50_000.0,
        )
    if spec.kind == "exhaust":
        flows = max(spec.n_flows, 2 * (min_capacity or spec.n_flows))
        # Uniform picks over 2x the capacity see more distinct flows
        # than the capacity once the trace is 1.4x as long: size it so
        # per-core shards really fill and then refuse.
        exhausted = WorkloadSpec(
            kind="uniform",
            seed=spec.seed,
            n_packets=max(spec.n_packets, 2 * (min_capacity or 0)),
            n_flows=flows,
        )
        return _uniform_like(exhausted, weights=None)
    if spec.kind == "collide":
        if rss is None:
            return _uniform_like(spec, weights=None)
        return _collide_trace(spec, rss)
    if spec.kind == "boundary":
        return _boundary_trace(spec, guard_values)
    raise ValueError(f"unknown workload kind {spec.kind!r}")
