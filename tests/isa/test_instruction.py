"""Tests for InstructionDef semantics."""

import pytest

from repro.isa.instruction import InstructionDef, InstructionType
from repro.isa.operand import OperandKind, parse_operand


def make(mnemonic="add", itype=InstructionType.INTEGER, width=64,
         operands=("RT:GPR:W", "RA:GPR:R", "RB:GPR:R"), flags=()):
    return InstructionDef(
        mnemonic=mnemonic,
        itype=itype,
        width=width,
        operands=tuple(parse_operand(spec) for spec in operands),
        flags=frozenset(flags),
    )


class TestTypePredicates:
    def test_integer(self):
        ins = make()
        assert ins.is_integer
        assert not ins.is_memory
        assert not ins.is_branch

    def test_load_is_memory(self):
        ins = make("lwz", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:R", "D:DISP16:R"))
        assert ins.is_load
        assert ins.is_memory
        assert not ins.is_store

    def test_store_is_memory(self):
        ins = make("stw", InstructionType.STORE,
                   operands=("RS:GPR:R", "RA:GPR:R", "D:DISP16:R"))
        assert ins.is_store
        assert ins.is_memory

    def test_vector(self):
        ins = make("xvadddp", InstructionType.VECTOR, 128,
                   ("XT:VSR:W", "XA:VSR:R", "XB:VSR:R"))
        assert ins.is_vector


class TestFlags:
    def test_update_form(self):
        ins = make("ldu", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:RW", "D:DISP16:R"),
                   flags=("update",))
        assert ins.is_update_form

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="unknown flags"):
            make(flags=("sparkly",))

    def test_prefetch(self):
        ins = make("dcbt", InstructionType.LOAD, 0,
                   ("RA:GPR:R", "RB:GPR:R"), flags=("indexed", "prefetch"))
        assert ins.is_prefetch
        assert ins.is_indexed


class TestOperandViews:
    def test_register_reads_and_writes(self):
        ins = make()
        assert [op.name for op in ins.register_writes] == ["RT"]
        assert [op.name for op in ins.register_reads] == ["RA", "RB"]

    def test_read_write_operand_in_both_views(self):
        ins = make("xvmaddadp", InstructionType.VECTOR, 128,
                   ("XT:VSR:RW", "XA:VSR:R", "XB:VSR:R"))
        assert "XT" in [op.name for op in ins.register_writes]
        assert "XT" in [op.name for op in ins.register_reads]

    def test_immediates(self):
        ins = make("addi", operands=("RT:GPR:W", "RA:GPR:R", "SI:IMM16:R"))
        assert ins.has_immediate
        assert [op.name for op in ins.immediates] == ["SI"]

    def test_memory_operands_dform(self):
        ins = make("lwz", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:R", "D:DISP16:R"))
        assert [op.name for op in ins.memory_operands] == ["RA", "D"]

    def test_memory_operands_xform(self):
        ins = make("lwzx", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:R", "RB:GPR:R"),
                   flags=("indexed",))
        assert [op.name for op in ins.memory_operands] == ["RA", "RB"]

    def test_non_memory_has_no_memory_operands(self):
        assert make().memory_operands == ()

    def test_target_kind(self):
        assert make().target_kind is OperandKind.GPR
        ins = make("stw", InstructionType.STORE,
                   operands=("RS:GPR:R", "RA:GPR:R", "D:DISP16:R"))
        assert ins.target_kind is None

    def test_format_line(self):
        assert make().format_line() == "add RT, RA, RB"


class TestSynthesisFacts:
    def test_update_form_store(self):
        ins = make("stwu", InstructionType.STORE,
                   operands=("RS:GPR:R", "RA:GPR:RW", "D:DISP16:R"),
                   flags=("update",))
        gpr = OperandKind.GPR
        assert ins.register_slots == (("RS", gpr), ("RA", gpr))
        assert ins.write_slots == (("RA", gpr),)
        assert ins.address_names == {"RA", "D"}
        assert ins.accesses_memory
        # Data sources first, then every source with the base last.
        assert ins.dependency_sources == (
            (("RS", gpr),), (("RS", gpr), ("RA", gpr)),
        )
        assert ins.displacement == "D"
        assert ins.immediate_fields == ()
        assert ins.required_registers == ("RS", "RA")

    def test_indexed_load_links_index_before_base(self):
        ins = make("lwzux", InstructionType.LOAD,
                   operands=("RT:GPR:W", "RA:GPR:RW", "RB:GPR:R"),
                   flags=("update", "indexed"))
        gpr = OperandKind.GPR
        assert ins.dependency_sources == ((("RB", gpr), ("RA", gpr)),)

    def test_spr_and_prefetch(self):
        mtctr = make("mtctr", InstructionType.CR,
                     operands=("CTR:SPR:W", "RS:GPR:R"))
        assert mtctr.write_slots == (("CTR", OperandKind.SPR),)
        assert mtctr.dependency_sources == ((("RS", OperandKind.GPR),),)
        assert mtctr.required_registers == ("RS",)
        dcbt = make("dcbt", InstructionType.LOAD, 0,
                    ("RA:GPR:R", "RB:GPR:R"), flags=("indexed", "prefetch"))
        assert dcbt.is_memory and not dcbt.accesses_memory

    def test_immediate_fields(self):
        ins = make("addi", operands=("RT:GPR:W", "RA:GPR:R", "SI:IMM16:R"))
        assert ins.immediate_fields == (("SI", 16),)
        assert ins.displacement is None

    def test_facts_leave_identity_alone(self):
        ins = make()
        before = (repr(ins), hash(ins))
        ins.register_slots, ins.dependency_sources, ins.required_registers
        assert (repr(ins), hash(ins)) == before
        assert ins == make()
