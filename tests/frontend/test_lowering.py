"""Tests for AST → IR lowering: SSA structure, typing, and semantics.

Semantic tests compile mini-C and execute it with the interpreter, comparing
against the obvious Python evaluation (the frontend and interpreter check
each other).
"""

import pytest

from repro.frontend import compile_source
from repro.frontend.errors import SemanticError
from repro.ir import Phi, verify_module

from ..conftest import run_c


class TestStructure:
    def test_loop_produces_phi(self):
        module = compile_source(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
            optimize=False,
        )
        func = module.get_function("f")
        header = func.block_by_name("for.header")
        phis = list(header.phis())
        assert len(phis) == 2  # s and i

    def test_straightline_has_no_phi(self):
        module = compile_source(
            "int f(int a) { int b = a + 1; int c = b * 2; return c; }",
            optimize=False,
        )
        func = module.get_function("f")
        assert not any(isinstance(i, Phi) for i in func.instructions())

    def test_if_merge_phi(self):
        module = compile_source(
            "int f(int a) { int x = 0; if (a > 0) x = 1; else x = 2; return x; }",
            optimize=False,
        )
        func = module.get_function("f")
        merge = func.block_by_name("if.end")
        assert len(list(merge.phis())) == 1

    def test_labels_name_blocks(self):
        module = compile_source(
            "void f(int n) { hot: for (int i = 0; i < n; i++) {} }",
            optimize=False,
        )
        func = module.get_function("f")
        names = {b.name for b in func.blocks}
        assert "hot.header" in names and "hot.body" in names

    def test_output_verifies(self, fig2_module_noopt):
        verify_module(fig2_module_noopt)

    def test_dead_code_after_return_pruned(self):
        module = compile_source(
            "int f() { return 1; }",
            optimize=False,
        )
        func = module.get_function("f")
        assert len(func.blocks) == 1


class TestSemantics:
    def test_arithmetic(self):
        result, _ = run_c("int main() { return (7 + 3 * 5) % 11 - 2; }")
        assert result == (7 + 3 * 5) % 11 - 2

    def test_c_division_truncates_toward_zero(self):
        result, _ = run_c("int main() { return (0 - 7) / 2; }")
        assert result == -3
        result, _ = run_c("int main() { return (0 - 7) % 2; }")
        assert result == -1

    def test_float_arithmetic_and_cast(self):
        result, _ = run_c("int main() { float x = 7.5f; return (int)(x * 2.0f); }")
        assert result == 15

    def test_int_float_promotion(self):
        result, _ = run_c("int main() { float x = 3; return (int)(x + 1); }")
        assert result == 4

    def test_comparisons_and_logic(self):
        result, _ = run_c(
            "int main() { int a = 3; int b = 5; return (a < b && b < 10) + (a == 3 || b == 0); }"
        )
        assert result == 2

    def test_short_circuit_avoids_division_by_zero(self):
        result, _ = run_c(
            "int main() { int z = 0; if (z != 0 && 10 / z > 1) return 1; return 2; }"
        )
        assert result == 2

    def test_ternary(self):
        result, _ = run_c("int main() { int a = 5; return a > 3 ? 10 : 20; }")
        assert result == 10

    def test_while_loop(self):
        result, _ = run_c(
            "int main() { int s = 0; int i = 0; while (i < 10) { s += i; i++; } return s; }"
        )
        assert result == 45

    def test_break_continue(self):
        result, _ = run_c(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) continue;
                if (i > 10) break;
                s += i;
              }
              return s;
            }
            """
        )
        assert result == 1 + 3 + 5 + 7 + 9

    def test_nested_loops(self):
        result, _ = run_c(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 5; i++)
                for (int j = 0; j <= i; j++)
                  s += 1;
              return s;
            }
            """
        )
        assert result == 15

    def test_recursion(self):
        result, _ = run_c(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"
            "int main() { return fib(12); }"
        )
        assert result == 144

    def test_global_arrays(self):
        result, interp = run_c(
            """
            int table[10];
            int main() {
              for (int i = 0; i < 10; i++) table[i] = i * i;
              int s = 0;
              for (int i = 0; i < 10; i++) s += table[i];
              return s;
            }
            """
        )
        assert result == sum(i * i for i in range(10))
        assert interp.memory.read_array_i(interp.address_of_global("table"), 10) == [
            i * i for i in range(10)
        ]

    def test_2d_arrays(self):
        result, _ = run_c(
            """
            int M[4][6];
            int main() {
              for (int i = 0; i < 4; i++)
                for (int j = 0; j < 6; j++)
                  M[i][j] = i * 10 + j;
              return M[3][5];
            }
            """
        )
        assert result == 35

    def test_array_parameter_decay(self):
        result, _ = run_c(
            """
            float A[3][4];
            float rowsum(float M[3][4], int row, int n) {
              float s = 0.0f;
              for (int j = 0; j < n; j++) s += M[row][j];
              return s;
            }
            int main() {
              for (int i = 0; i < 3; i++)
                for (int j = 0; j < 4; j++)
                  A[i][j] = (float)(i + j);
              return (int)rowsum(A, 2, 4);
            }
            """
        )
        assert result == 2 + 3 + 4 + 5

    def test_scalar_global(self):
        result, _ = run_c(
            "int counter;"
            "void bump() { counter = counter + 2; }"
            "int main() { bump(); bump(); bump(); return counter; }"
        )
        assert result == 6

    def test_bitwise_and_shifts(self):
        result, _ = run_c("int main() { return ((0xF & 0) | (5 << 2)) >> 1; }"
                          .replace("0xF & 0", "15 & 0"))
        assert result == 10

    def test_unary_ops(self):
        result, _ = run_c("int main() { return -(-5) + !0 + (~0 + 1); }")
        assert result == 5 + 1 + 0

    def test_sqrt_builtin(self):
        result, _ = run_c("int main() { return (int)(sqrtf(144.0f)); }")
        assert result == 12

    def test_fabs_builtin(self):
        result, _ = run_c("int main() { return (int)fabsf(0.0f - 8.5f); }")
        assert result == 8

    def test_int_wrapping(self):
        result, _ = run_c("int main() { int x = 2147483647; return x + 1 < 0; }")
        assert result == 1

    @pytest.mark.parametrize("source, expected", [
        # A literal past int's range is a long, as in C.
        ("long main() { long x = 3000000000; return x + 1; }", 3000000001),
        ("long main() { return 5000000000 * 2; }", 10000000000),
        # Converting it to int wraps it, as trunc does at run time.
        ("int main() { int x = 3000000000; return x; }", -1294967296),
        ("int main() { return 4294967301; }", 5),
    ])
    def test_literal_past_int_range(self, source, expected):
        result, _ = run_c(source)
        assert result == expected


class TestSemanticErrors:
    def test_undeclared_variable(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { return x; }")

    def test_undeclared_function(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { return g(); }")

    def test_redeclaration_in_scope(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { int x = 1; int x = 2; return x; }")

    def test_shadowing_allowed(self):
        result, _ = run_c(
            "int main() { int x = 1; { int x = 2; } return x; }"
        )
        assert result == 1

    def test_break_outside_loop(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { break; return 0; }")

    def test_assign_to_array(self):
        with pytest.raises(SemanticError):
            compile_source("int A[4]; int main() { A = 0; return 0; }")

    def test_wrong_arg_count(self):
        with pytest.raises(SemanticError):
            compile_source("int f(int a) { return a; } int main() { return f(); }")

    def test_void_return_with_value(self):
        with pytest.raises(SemanticError):
            compile_source("void f() { return 1; }")

    def test_scalar_subscript(self):
        with pytest.raises(SemanticError):
            compile_source("int main() { int x = 1; return x[0]; }")
