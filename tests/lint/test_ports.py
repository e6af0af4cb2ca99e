"""SMT5xx: the Ruler port-purity family, against real kernel fixtures.

These tests write small modules defining ``FU_LISTINGS`` to disk and
lint them through the real ISA layer — exactly how the rule sees the
shipped :mod:`repro.rulers.functional_unit`. The headline guarantees:
a mixed-port kernel fails, and every shipped Ruler passes.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_sources
from repro.lint.rules.ports import BranchPurityBudget, PortPurity

from .conftest import rule_ids

REPO = Path(__file__).resolve().parents[2]

PORT_RULES = [PortPurity, BranchPurityBudget]


def _fixture(tmp_path: Path, body: str, *, unroll: int = 10000,
             dimension: str = "FP_MUL") -> Path:
    path = tmp_path / "fu_fixture.py"
    listing = "loop:\\n" + "".join(
        f"    {line.strip()}\\n" for line in body.strip().splitlines()
    ) + "    jmp loop"
    path.write_text(textwrap.dedent(f"""\
        from repro.rulers.base import Dimension

        UNROLL = {unroll}

        FU_LISTINGS = {{
            Dimension.{dimension}: "{listing}",
        }}
    """), encoding="utf-8")
    return path


def _lint_ports(path: Path):
    return lint_sources({str(path): path.read_text(encoding="utf-8")},
                        rule_classes=PORT_RULES)


# ----------------------------------------------------------------------
# Failing fixtures

def test_mixed_port_kernel_fails_port_purity(tmp_path):
    path = _fixture(tmp_path, """
        mulps  %xmm0, %xmm0
        addps  %xmm1, %xmm1
    """)
    findings = _lint_ports(path)
    assert "SMT501" in rule_ids(findings)
    (leak,) = [f for f in findings if f.rule == "SMT501"]
    assert "leaks onto port(s) [1]" in leak.message
    assert "FP_ADD" in leak.message


def test_wrong_single_port_kernel_fails_port_purity(tmp_path):
    # A pure port-1 kernel declared as the port-0 (FP_MUL) Ruler.
    path = _fixture(tmp_path, "addps %xmm0, %xmm0")
    findings = _lint_ports(path)
    assert "SMT501" in rule_ids(findings)


def test_nop_only_kernel_stresses_nothing(tmp_path):
    path = _fixture(tmp_path, "nop")
    findings = _lint_ports(path)
    assert any("occupies no execution port" in f.message
               for f in findings if f.rule == "SMT501")


def test_low_unroll_breaks_the_branch_purity_budget(tmp_path):
    path = _fixture(tmp_path, "mulps %xmm0, %xmm0", unroll=100)
    findings = _lint_ports(path)
    assert rule_ids(findings) == ["SMT502"]
    assert "purity budget" in findings[0].message


def test_memory_dimension_key_is_rejected(tmp_path):
    path = _fixture(tmp_path, "mulps %xmm0, %xmm0", dimension="L1")
    findings = _lint_ports(path)
    assert any("not a functional-unit dimension" in f.message
               for f in findings)


def test_unparseable_listing_is_reported_not_crashed(tmp_path):
    path = tmp_path / "fu_fixture.py"
    path.write_text(
        "from repro.rulers.base import Dimension\n\n"
        'FU_LISTINGS = {Dimension.FP_MUL: "loop:\\n    frobnicate %xmm0\\n'
        '    jmp loop"}\n',
        encoding="utf-8",
    )
    findings = _lint_ports(path)
    assert any("does not parse" in f.message for f in findings)


def test_unimportable_module_is_reported_not_crashed(tmp_path):
    path = tmp_path / "fu_fixture.py"
    path.write_text(
        'raise RuntimeError("boom")\n\nFU_LISTINGS = {}\n',
        encoding="utf-8",
    )
    findings = _lint_ports(path)
    assert any("could not be loaded" in f.message for f in findings)


# ----------------------------------------------------------------------
# Passing fixtures

def test_pure_port_kernels_pass(tmp_path):
    for dimension, mnemonic in (("FP_MUL", "mulps"), ("FP_ADD", "addps"),
                                ("FP_SHF", "shufps"), ("INT_ADD", "addl")):
        regs = "%eax" if dimension == "INT_ADD" else "%xmm0"
        path = _fixture(tmp_path, f"{mnemonic} {regs}, {regs}",
                        dimension=dimension)
        assert _lint_ports(path) == [], dimension


def test_int_add_may_use_any_functional_unit_port(tmp_path):
    # INT_ALU binds to ports 0/1/5 and INT_ADD's dimension allows all
    # three, so the flexible kind is not a leak.
    path = _fixture(tmp_path, "addl %eax, %eax", dimension="INT_ADD")
    assert _lint_ports(path) == []


def test_modules_without_fu_listings_are_ignored(tmp_path):
    path = tmp_path / "plain.py"
    path.write_text("X = 1\n", encoding="utf-8")
    assert _lint_ports(path) == []


def test_every_shipped_ruler_passes_port_purity():
    relpath = "src/repro/rulers/functional_unit.py"
    source = (REPO / relpath).read_text(encoding="utf-8")
    assert lint_sources({relpath: source}, root=REPO,
                        rule_classes=PORT_RULES) == []
