"""Tests for the IR builder, module structure, printer, and verifier."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    BOOL,
    Constant,
    F32,
    F64,
    I32,
    I64,
    IRBuilder,
    Module,
    Phi,
    Return,
    Store,
    VOID,
    VerificationError,
    print_function,
    print_module,
    verify_function,
    verify_module,
)


def build_max_function():
    """int max(int a, int b) via a diamond CFG with a phi."""
    module = Module("m")
    func = module.add_function("max", I32, [I32, I32], ["a", "b"])
    entry = func.add_block("entry")
    then = func.add_block("then")
    other = func.add_block("else")
    merge = func.add_block("merge")
    b = IRBuilder(entry)
    a_arg, b_arg = func.arguments
    cond = b.icmp("sgt", a_arg, b_arg)
    b.cond_br(cond, then, other)
    b.position_at_end(then)
    b.br(merge)
    b.position_at_end(other)
    b.br(merge)
    b.position_at_end(merge)
    phi = b.phi(I32, "result")
    phi.add_incoming(a_arg, then)
    phi.add_incoming(b_arg, other)
    b.ret(phi)
    return module, func


class TestBuilder:
    def test_diamond_function_verifies(self):
        module, func = build_max_function()
        verify_module(module)

    def test_builder_requires_block(self):
        b = IRBuilder()
        with pytest.raises(ValueError):
            b.add(b.const_i32(1), b.const_i32(2))

    def test_unique_block_names(self):
        module = Module("m")
        func = module.add_function("f", VOID, [])
        b1 = func.add_block("bb")
        b2 = func.add_block("bb")
        assert b1.name != b2.name

    def test_constants(self):
        assert Constant(BOOL, True).value == 1
        assert Constant(I64, 5).type.bits == 64
        assert Constant(F64, 2.5).value == 2.5


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module("m")
        module.add_function("f", VOID, [])
        with pytest.raises(ValueError):
            module.add_function("f", VOID, [])

    def test_duplicate_global_rejected(self):
        module = Module("m")
        module.add_global("g", I32)
        with pytest.raises(ValueError):
            module.add_global("g", I32)

    def test_lookup_errors(self):
        module = Module("m")
        with pytest.raises(KeyError):
            module.get_function("missing")
        with pytest.raises(KeyError):
            module.get_global("missing")


class TestPrinter:
    def test_print_function_contains_blocks(self):
        module, func = build_max_function()
        text = print_function(func)
        assert "func i32 @max" in text
        assert "phi i32" in text
        assert "condbr" in text

    def test_print_module(self):
        module, _ = build_max_function()
        module.add_global("tbl", I32)
        text = print_module(module)
        assert "@tbl = global i32" in text

    def test_printed_names_unique(self):
        module, func = build_max_function()
        text = print_function(func)
        defined = [
            line.split(" = ")[0].strip()
            for line in text.splitlines()
            if " = " in line
        ]
        assert len(defined) == len(set(defined))


class TestVerifier:
    def test_missing_terminator(self):
        module = Module("m")
        func = module.add_function("f", I32, [])
        entry = func.add_block("entry")
        b = IRBuilder(entry)
        b.add(b.const_i32(1), b.const_i32(2))  # no terminator follows
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(func)

    def test_empty_block_rejected(self):
        module = Module("m")
        func = module.add_function("f", VOID, [])
        func.add_block("entry")  # no instructions at all
        with pytest.raises(VerificationError, match="block is empty"):
            verify_function(func)

    def test_use_before_def_same_block(self):
        module = Module("m")
        func = module.add_function("f", I32, [])
        entry = func.add_block("entry")
        b = IRBuilder(entry)
        x = b.add(b.const_i32(1), b.const_i32(2))
        y = b.mul(x, b.const_i32(3))
        b.ret(y)
        # Swap definition order to break dominance.
        entry.instructions[0], entry.instructions[1] = (
            entry.instructions[1], entry.instructions[0],
        )
        with pytest.raises(VerificationError, match="before definition"):
            verify_function(func)

    def test_phi_incoming_must_match_predecessors(self):
        module, func = build_max_function()
        merge = func.block_by_name("merge")
        phi = next(merge.phis())
        phi.remove_incoming(func.block_by_name("then"))
        with pytest.raises(VerificationError, match="incoming"):
            verify_function(func)

    def test_phi_listing_a_block_twice_rejected(self):
        module, func = build_max_function()
        merge = func.block_by_name("merge")
        phi = next(merge.phis())
        phi.add_incoming(Constant(I32, 7), func.block_by_name("then"))
        with pytest.raises(
            VerificationError, match=r"lists incoming blocks \['then'\] more than once"
        ):
            verify_function(func)

    def test_cross_block_dominance(self):
        module = Module("m")
        func = module.add_function("f", I32, [I32])
        entry = func.add_block("entry")
        left = func.add_block("left")
        right = func.add_block("right")
        b = IRBuilder(entry)
        cond = b.icmp("sgt", func.arguments[0], b.const_i32(0))
        b.cond_br(cond, left, right)
        b.position_at_end(left)
        x = b.add(func.arguments[0], b.const_i32(1))
        b.ret(x)
        b.position_at_end(right)
        # Illegal: uses x defined in 'left', which does not dominate 'right'.
        right.append(Return(x))
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(func)

    def test_valid_loop_verifies(self):
        module = Module("m")
        func = module.add_function("f", I32, [I32])
        entry = func.add_block("entry")
        header = func.add_block("header")
        body = func.add_block("body")
        exit_ = func.add_block("exit")
        b = IRBuilder(entry)
        b.br(header)
        b.position_at_end(header)
        i_phi = Phi(I32, "i")
        header.insert_front(i_phi)
        cond = b.icmp("slt", i_phi, func.arguments[0])
        b.cond_br(cond, body, exit_)
        b.position_at_end(body)
        nxt = b.add(i_phi, b.const_i32(1))
        b.br(header)
        i_phi.add_incoming(b.const_i32(0), entry)
        i_phi.add_incoming(nxt, body)
        b.position_at_end(exit_)
        b.ret(i_phi)
        verify_function(func)


class TestVerifierUnreachableBlocks:
    """Dominance over blocks the entry does not reach is the maximal
    fixpoint of the dominator equations: a block without predecessors is
    dominated by itself alone, and one reached only from itself by every
    block."""

    @staticmethod
    def _entry_def(name):
        module = Module("m")
        func = module.add_function(name, I32, [I32], ["a"])
        entry = func.add_block("entry")
        b = IRBuilder(entry)
        x = b.add(func.arguments[0], b.const_i32(1), "x")
        return func, b, x

    def test_dead_block_without_predecessors_rejected(self):
        func, b, x = self._entry_def("f")
        b.ret(x)
        b.position_at_end(func.add_block("dead"))
        b.ret(x)
        with pytest.raises(
            VerificationError,
            match=r"^f/dead: definition of %x\S* \(entry\) does not dominate use$",
        ):
            verify_function(func)

    def test_join_with_dead_predecessor_rejected(self):
        func, b, x = self._entry_def("g")
        join = func.add_block("join")
        b.br(join)
        b.position_at_end(join)
        b.ret(x)
        b.position_at_end(func.add_block("dead"))
        b.br(join)
        with pytest.raises(
            VerificationError,
            match=r"^g/join: definition of %x\S* \(entry\) does not dominate use$",
        ):
            verify_function(func)

    def test_dead_self_loop_accepted(self):
        func, b, x = self._entry_def("h")
        b.ret(x)
        loop = func.add_block("loop")
        b.position_at_end(loop)
        b.add(x, b.const_i32(1))
        b.br(loop)
        verify_function(func)


def _reference_dominators(func):
    """Dominator sets by the textbook iteration: every block starts at all
    blocks, the entry at itself, and sweeps in function order read each
    block's live predecessors until nothing changes."""
    dom = {block: set(func.blocks) for block in func.blocks}
    dom[func.entry] = {func.entry}
    changed = True
    while changed:
        changed = False
        for block in func.blocks[1:]:
            preds = block.predecessors
            new = {block}
            if preds:
                new |= set.intersection(*(dom[p] for p in preds))
            if new != dom[block]:
                dom[block] = new
                changed = True
    return dom


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dominance_verdicts_match_reference(data):
    """On random CFGs, reachable or not, where each block defines one value
    and uses one block's value, the verifier rejects exactly the first use
    the reference dominator sets do not cover, with its message."""
    count = data.draw(st.integers(1, 7))
    pick = st.integers(0, count - 1)
    module = Module("m")
    func = module.add_function("f", I32, [I32], ["a"])
    blocks = [func.add_block(f"b{i}") for i in range(count)]
    defs = []
    for i, block in enumerate(blocks):
        b = IRBuilder(block)
        defs.append(b.add(func.arguments[0], b.const_i32(i)))
    uses = []
    for i, block in enumerate(blocks):
        b = IRBuilder(block)
        used = data.draw(pick)
        uses.append(used)
        b.add(defs[used], b.const_i32(1))
        kind = data.draw(st.sampled_from(["ret", "br", "condbr"]))
        if kind == "ret":
            b.ret(defs[i])
        elif kind == "br":
            b.br(blocks[data.draw(pick)])
        else:
            cond = b.icmp("slt", func.arguments[0], b.const_i32(0))
            b.cond_br(cond, blocks[data.draw(pick)], blocks[data.draw(pick)])

    dom = _reference_dominators(func)
    expected = next(
        (
            f"f/{block.name}: definition of {defs[used].ref} "
            f"({blocks[used].name}) does not dominate use"
            for block, used in zip(blocks, uses)
            if blocks[used] not in dom[block]
        ),
        None,
    )
    if expected is None:
        verify_function(func)
    else:
        with pytest.raises(VerificationError) as error:
            verify_function(func)
        assert str(error.value) == expected


class TestVerifierCallAndGlobals:
    """Verifier extensions: call argument types and global resolution."""

    def _caller_and_callee(self):
        module = Module("m")
        callee = module.add_function("callee", I32, [I32], ["x"])
        cb = IRBuilder(callee.add_block("entry"))
        cb.ret(callee.arguments[0])
        caller = module.add_function("caller", I32, [])
        b = IRBuilder(caller.add_block("entry"))
        result = b.call(callee, [b.const_i32(7)])
        b.ret(result)
        return module, caller

    def test_valid_call_verifies(self):
        module, _ = self._caller_and_callee()
        verify_module(module)

    def test_call_arg_type_mismatch_rejected(self):
        module, caller = self._caller_and_callee()
        call = caller.entry.instructions[0]
        call.set_operand(0, Constant(F32, 1.0))
        with pytest.raises(VerificationError, match="arg 0 has type f32"):
            verify_module(module)

    def test_call_arity_mismatch_rejected(self):
        module, caller = self._caller_and_callee()
        call = caller.entry.instructions[0]
        extra = Constant(I32, 2)
        call.operands.append(extra)
        extra.add_user(call)
        with pytest.raises(VerificationError, match="passes 2 args"):
            verify_module(module)

    def test_global_must_resolve_to_symbol_table(self):
        from repro.ir import GlobalVariable

        module = Module("m")
        func = module.add_function("f", I32, [])
        b = IRBuilder(func.add_block("entry"))
        rogue = GlobalVariable(I32, "rogue")  # never added to the module
        value = b.load(rogue)
        b.ret(value)
        with pytest.raises(VerificationError, match="symbol table"):
            verify_module(module)

    def test_registered_global_verifies(self):
        module = Module("m")
        g = module.add_global("g", I32)
        func = module.add_function("f", I32, [])
        b = IRBuilder(func.add_block("entry"))
        b.ret(b.load(g))
        verify_module(module)

    def test_shadowed_global_name_rejected(self):
        from repro.ir import GlobalVariable

        module = Module("m")
        module.add_global("g", I32)
        impostor = GlobalVariable(I32, "g")  # same name, different object
        func = module.add_function("f", I32, [])
        b = IRBuilder(func.add_block("entry"))
        b.ret(b.load(impostor))
        with pytest.raises(VerificationError, match="symbol table"):
            verify_module(module)
