"""The workload generators: shares, flow order, warm-up cover, determinism."""

from __future__ import annotations

from repro.nf.flow import FiveTuple

from perfbench.traffic import LAN, WAN, ChurnTraffic, SteadyTraffic


def _flow_key(port: int, pkt) -> tuple[FiveTuple, bool]:
    """The flow a packet belongs to (its forward tuple), and its direction."""
    tup = FiveTuple.from_packet(pkt)
    return (tup, True) if port == LAN else (tup.inverted(), False)


def _calls(gen, n_calls: int, size: int) -> list:
    return [pkt for _ in range(n_calls) for pkt in gen.call(size)]


def test_churn_new_flow_share_is_five_percent():
    gen = ChurnTraffic(seed=3)
    known = {_flow_key(*p)[0] for p in gen.establish()}
    packets = _calls(gen, 40, 1024)
    fresh = 0
    for port, pkt in packets:
        flow, _ = _flow_key(port, pkt)
        if flow not in known:
            known.add(flow)
            fresh += 1
    assert abs(fresh / len(packets) - 0.05) < 0.005


def test_churn_replies_are_thirty_percent_of_the_rest():
    gen = ChurnTraffic(seed=4)
    gen.establish()
    packets = _calls(gen, 40, 1024)
    replies = sum(port == WAN for port, _ in packets)
    assert abs(replies / (len(packets) * 0.95) - 0.3) < 0.02


def test_churn_keeps_a_fixed_working_set():
    gen = ChurnTraffic(seed=5, n_flows=50)
    gen.establish()
    for _ in range(20):
        gen.call(256)
    assert len(gen.live) == len(set(gen.live)) == 50


def _assert_first_packets_forward(packets, known=()):
    opened = set(known)
    for port, pkt in packets:
        flow, forward = _flow_key(port, pkt)
        if flow not in opened:
            assert forward and port == LAN, f"{flow} opened by a reply"
            opened.add(flow)
        if forward:
            assert port == LAN
        else:
            assert port == WAN


def test_churn_fresh_flows_open_forward():
    gen = ChurnTraffic(seed=6)
    warm = gen.establish()
    assert all(port == LAN for port, _ in warm)
    _assert_first_packets_forward(_calls(gen, 20, 1024), known={
        _flow_key(*p)[0] for p in warm
    })


def test_cold_steady_flows_open_forward():
    # The build workload sends steady traffic without a warm-up.
    gen = SteadyTraffic(seed=7, n_flows=300)
    _assert_first_packets_forward(_calls(gen, 8, 256))


def test_timed_steady_packets_belong_to_warmed_flows():
    gen = SteadyTraffic(seed=8)
    warm = gen.establish()
    known = {_flow_key(*p)[0] for p in warm}
    assert len(known) == len(warm) == 2000
    packets = _calls(gen, 4, 8192)
    assert all(_flow_key(*p)[0] in known for p in packets)
    replies = sum(port == WAN for port, _ in packets)
    assert abs(replies / len(packets) - 0.3) < 0.02


def test_timestamps_rise_across_calls():
    for gen in (SteadyTraffic(seed=9, n_flows=100), ChurnTraffic(seed=9, n_flows=100)):
        stamps = [pkt.timestamp for pkt in (p for _, p in gen.establish())]
        stamps += [pkt.timestamp for _, pkt in _calls(gen, 5, 100)]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_generators_are_deterministic_per_seed():
    for cls in (SteadyTraffic, ChurnTraffic):
        runs = []
        for seed in (11, 11, 12):
            gen = cls(seed, n_flows=200)
            runs.append(gen.establish() + _calls(gen, 3, 500))
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]
