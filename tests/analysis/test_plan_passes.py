"""The plan certifier: corpus is green, seeded faults are caught.

Seeded-fault fixtures tamper with *compiled artifacts* — a negated
lowered predicate (MAE300), a memo guard set that lost a state version
(MAE303), a lowered allocation that binds its index, a dropped chain
guard or lattice entry — and the certifier must catch the damage
without re-running the lowering that produced it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import certify_nf, collect_waivers, lint_nf
from repro.analysis.plan_passes import (
    _certify_demotion,
    _certify_memo,
    _certify_program,
    _locate,
    prove_equiv,
)
from repro.analysis.source import gather_sources
from repro.errors import WaiverError
from repro.nf.api import NF, NfContext, StateDecl, StateKind
from repro.nf.nfs import ALL_NFS
from repro.sim.compiled import _compile_port
from repro.symbex import expr as E
from repro.symbex.engine import explore_nf

LAN, WAN = 0, 1


def _compile_nf(nf, port=0):
    tree = explore_nf(nf)
    return _compile_port(nf, port, tree.paths_by_port[port], 0)


def _supported_program(pp):
    progs = [p for p in pp.programs if p.supported]
    assert progs, "fixture NF must have at least one lowered path"
    return progs[0]


# ------------------------------------------------------------------ #
# Corpus gate
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("name", sorted(ALL_NFS))
def test_corpus_certifies_clean(analyses, name) -> None:
    result = analyses[name]
    report = certify_nf(
        ALL_NFS[name](), tree=result.tree, solution=result.solution
    )
    assert report.clean, [str(d) for d in report.diagnostics]
    assert report.n_proved == report.n_supported
    assert len(report.supported_pids) == report.n_supported


def test_lint_pipeline_includes_certifier(analyses) -> None:
    from repro.analysis.lint import default_passes
    from repro.analysis.plan_passes import PlanCertifyPass

    assert any(isinstance(p, PlanCertifyPass) for p in default_passes())
    diagnostics = lint_nf(ALL_NFS["fw"](), tree=analyses["fw"].tree)
    assert not [d for d in diagnostics if d.code.startswith("MAE3")]


def test_report_json_shape() -> None:
    report = certify_nf(ALL_NFS["fw"]())
    payload = report.to_json()
    assert payload["nf"] == "fw"
    assert payload["clean"] is True
    assert payload["proved"] == payload["supported"]
    assert payload["supported_pids"] == list(report.supported_pids)
    assert "certified" in report.describe()


def test_uncompiled_port_is_not_a_finding() -> None:
    """Non-hoistable expiry: the runtime builds no kernels for the port,
    so wholesale interpreter fallback is sound — recorded, not flagged."""
    from repro.analysis.__main__ import _example_nfs

    report = certify_nf(_example_nfs()["dns_guard"]())
    assert report.clean
    assert report.uncompiled, "dns_guard's expiring port must be uncompiled"
    assert "uncompiled" in report.describe()


# ------------------------------------------------------------------ #
# Seeded fault: mis-lowered predicate (MAE300)
# ------------------------------------------------------------------ #
def test_negated_predicate_is_flagged_mae300() -> None:
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = _supported_program(pp)
    tampered = False
    for i, (kind, payload) in enumerate(prog.items):
        if kind == "c":
            prog.items[i] = ("c", E.Eq(payload, E.Const(1, 0)))
            tampered = True
            break
    assert tampered, "fixture path must carry at least one predicate"
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert {f.code for f in findings} == {"MAE300"}
    assert any("not equivalent" in f.message for f in findings)


def test_dropped_provenance_is_flagged_mae300() -> None:
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = _supported_program(pp)
    prog.source_path = None
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert [f.code for f in findings] == ["MAE300"]
    assert "provenance" in findings[0].message


def test_rogue_trace_op_is_flagged_mae301() -> None:
    """A supported program whose source path turns out to use an op the
    kernels never lowered: the fallback set is unsound."""
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = _supported_program(pp)
    entry = prog.source_path.trace[0]
    rogue = dataclasses.replace(entry, op="sketch_touch")
    prog.source_path = dataclasses.replace(
        prog.source_path, trace=prog.source_path.trace + (rogue,)
    )
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert any(f.code == "MAE301" for f in findings)
    assert any("LOWERED_OPS" in f.message for f in findings)


# ------------------------------------------------------------------ #
# Seeded fault: dropped memo guard (MAE303)
# ------------------------------------------------------------------ #
def test_dropped_memo_guard_is_flagged_mae303() -> None:
    pp = _compile_nf(ALL_NFS["fw"]())
    assert pp.read_objs, "fixture port must guard at least one object"
    pp.read_objs = type(pp.read_objs)()
    findings: list = []
    _certify_memo(pp, findings)
    assert findings
    assert {f.code for f in findings} == {"MAE303"}
    assert any("memo guard set" in f.message for f in findings)


def test_unpublished_bail_dirt_is_flagged_mae302() -> None:
    """A program that would bail without poisoning the aspects its own
    steps write: sibling kernel lanes could keep stale reads."""
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = _supported_program(pp)
    if not any(s.sig[0] in ("vector_put", "dchain_rejuvenate",
                            "vector_borrow") for s in prog.steps):
        pytest.skip("fixture path has no publishing kernel step")
    prog.wild = type(prog.wild)()
    findings: list = []
    _certify_demotion(pp, findings)
    assert any(
        f.code == "MAE302" and "publish" in f.message for f in findings
    )


# ------------------------------------------------------------------ #
# Seeded faults: the lowered allocation-outcome read
# ------------------------------------------------------------------ #
def _alloc_program(pp):
    """The first fully lowered program carrying a dchain_allocate step
    (the "table full" path), and that step's index in its steps."""
    for prog in pp.programs:
        if not prog.supported:
            continue
        for i, step in enumerate(prog.steps):
            if step.sig[0] == "dchain_allocate":
                return prog, i
    raise AssertionError("fixture port must lower an allocation")


def test_allocation_binding_its_index_is_flagged_mae300() -> None:
    """Kernels must never see an allocated index: a lowering that binds
    ``index`` next to ``ok`` no longer matches the source's binds."""
    pp = _compile_nf(ALL_NFS["fw"]())
    prog, i = _alloc_program(pp)
    step = prog.steps[i]
    entries = [e for e in prog.source_path.trace if e.op != "expire"]
    step.sig = step.sig + (entries[i].result("index").name,)
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert {f.code for f in findings} == {"MAE300"}
    assert any(
        f.op == "dchain_allocate" and "binds" in f.message for f in findings
    )


def test_dropped_allocation_chain_guard_is_flagged_mae303() -> None:
    pp = _compile_nf(ALL_NFS["lb"]())
    prog, i = _alloc_program(pp)
    chain = prog.steps[i].obj
    pp.read_objs = [g for g in pp.read_objs if g != (chain, "chain")]
    findings: list = []
    _certify_memo(pp, findings)
    assert {f.code for f in findings} == {"MAE303"}
    assert any(
        f.op == "dchain_allocate" and "memo guard set" in f.message
        for f in findings
    )


def test_missing_allocation_lattice_entry_is_flagged_mae302(
    monkeypatch,
) -> None:
    from repro.analysis import plan_passes

    interference = dict(plan_passes._INTERFERENCE)
    del interference["dchain_allocate"]
    monkeypatch.setattr(plan_passes, "_INTERFERENCE", interference)
    pp = _compile_nf(ALL_NFS["fw"]())
    findings: list = []
    _certify_demotion(pp, findings)
    assert {f.code for f in findings} == {"MAE302"}
    assert any(
        f.op == "dchain_allocate" and "interference lattice" in f.message
        for f in findings
    )


def test_allocation_cut_missing_suffix_dirt_is_flagged_mae301() -> None:
    """Where a chunk leaves the outcome undecided the program stops at
    the allocation; its cut must cover every write from there on."""
    pp = _compile_nf(ALL_NFS["fw"]())
    prog = next(
        p for p in pp.programs
        if not p.supported
        and any(s.sig[0] == "dchain_allocate" for s in p.steps)
    )
    step = next(s for s in prog.steps if s.sig[0] == "dchain_allocate")
    step.cut = tuple(d for d in step.cut if d[0] != "map_w")
    findings: list = []
    assert _certify_program(prog, findings, 0) is False
    assert {f.code for f in findings} == {"MAE301"}
    assert any(f.op == "map_put" for f in findings)


# ------------------------------------------------------------------ #
# Equivalence engine
# ------------------------------------------------------------------ #
def test_prove_equiv_zext_normalization() -> None:
    sym = E.Sym(16, "pkt.src_port")
    widened = E.Concat(32, (E.Const(16, 0), sym))
    assert prove_equiv(sym, widened) == "proved"


def test_prove_equiv_refutes_distinct_constants() -> None:
    assert prove_equiv(E.Const(32, 1), E.Const(32, 2)) == "refuted"


def test_prove_equiv_uses_path_condition() -> None:
    sym = E.Sym(32, "pkt.src_ip")
    five = E.Const(32, 5)
    assert prove_equiv(sym, five) == "refuted"
    assert prove_equiv(sym, five, [E.Eq(sym, five)]) == "proved"


# ------------------------------------------------------------------ #
# Waivers
# ------------------------------------------------------------------ #
class _WaivedGuardNF(NF):
    """Control NF whose single map probe carries an MAE303 waiver."""

    name = "waived_guard"
    ports = {"lan": LAN, "wan": WAN}

    def state(self) -> list[StateDecl]:
        return [StateDecl("wg_counts", StateKind.MAP, 64)]

    def process(self, ctx: NfContext, port: int, pkt) -> None:
        found, _ = ctx.map_get("wg_counts", (pkt.src_ip,))  # maestro: waive[MAE303]
        if ctx.cond(found):
            ctx.drop()
        ctx.forward(self.other_port(port))


def test_mae3xx_waiver_suppresses_located_finding() -> None:
    nf = _WaivedGuardNF()
    pp = _compile_nf(nf)
    pp.read_objs = type(pp.read_objs)()
    findings: list = []
    _certify_memo(pp, findings)
    assert findings
    source = gather_sources(nf)
    diagnostics = _locate(findings, nf.name, source)
    assert all(d.file and d.line for d in diagnostics)
    active = [
        d for d in diagnostics if not source.waived(d.code, d.file, d.line)
    ]
    assert not active, "the line-scoped waiver must absorb the finding"


def test_mae3xx_codes_flow_through_waiver_collector() -> None:
    waivers = collect_waivers("x  # maestro: waive[MAE300,MAE304]\n", "f.py")
    assert waivers[("f.py", 1)] == frozenset({"MAE300", "MAE304"})


def test_unregistered_mae3xx_waiver_raises() -> None:
    with pytest.raises(WaiverError, match="MAE305"):
        collect_waivers("x  # maestro: waive[MAE305]\n", "f.py")
