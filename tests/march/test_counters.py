"""Tests for counter definitions and the formula language."""

import ast
import random

import numpy as np
import pytest

from repro.march.counters import (
    CounterFormula,
    FormulaError,
    evaluate_formula,
)


class TestFormulaEvaluation:
    def test_simple_ratio(self):
        formula = CounterFormula("IPC", "PM_RUN_INST_CMPL / PM_RUN_CYC")
        assert formula.evaluate(
            {"PM_RUN_INST_CMPL": 20, "PM_RUN_CYC": 10}
        ) == 2.0

    def test_arithmetic(self):
        value = evaluate_formula("(A + B - C) * 2", {"A": 3, "B": 4, "C": 1})
        assert value == 12.0

    def test_unary_minus(self):
        assert evaluate_formula("-A + 5", {"A": 2}) == 3.0

    def test_constants(self):
        assert evaluate_formula("A * 0.5", {"A": 8}) == 4.0

    def test_zero_denominator_degrades_to_zero(self):
        # Idle windows read zero counters; rates degrade gracefully.
        assert evaluate_formula("A / B", {"A": 0, "B": 0}) == 0.0

    def test_columns_evaluate_like_each_row(self):
        # Numpy columns of readings evaluate element-wise in the scalar
        # operation order: every row bit-identical, x / 0 reading 0.
        rng = random.Random(3)
        formula = CounterFormula("mixed", "(A + B) / C - -D * 0.5 + 2 / (C - C)")
        rows = [
            {
                name: rng.choice((0.0, -0.0, 7.0, rng.uniform(-1e9, 1e9)))
                for name in "ABCD"
            }
            for _ in range(300)
        ]
        columns = {name: np.array([row[name] for row in rows]) for name in "ABCD"}
        assert [value.hex() for value in formula.evaluate(columns).tolist()] == [
            formula.evaluate(row).hex() for row in rows
        ]

    def test_missing_counter_raises(self):
        with pytest.raises(FormulaError, match="unknown counter"):
            evaluate_formula("A + B", {"A": 1})

    def test_counters_listing(self):
        formula = CounterFormula("X", "A + B / (C - 1)")
        assert formula.counters() == frozenset({"A", "B", "C"})


class TestFormulaValidation:
    def test_rejects_calls(self):
        with pytest.raises(FormulaError):
            CounterFormula("bad", "__import__('os')")

    def test_rejects_comparisons(self):
        with pytest.raises(FormulaError):
            CounterFormula("bad", "A > B")

    def test_rejects_power_operator(self):
        with pytest.raises(FormulaError):
            CounterFormula("bad", "A ** 2")

    def test_rejects_strings(self):
        with pytest.raises(FormulaError):
            CounterFormula("bad", "'hello'")

    def test_rejects_syntax_errors(self):
        with pytest.raises(FormulaError):
            CounterFormula("bad", "A +")


class TestFormulaParsedOnce:
    def test_repeated_evaluation_parses_once(self, monkeypatch):
        # Model fitting evaluates every component formula once per
        # measurement: the expression must be parsed at construction
        # only, not on every evaluate().
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(source)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        formula = CounterFormula("mixed", "(A + B) / C - -D * 0.5")
        readings = [
            {"A": 3.0, "B": 1.0, "C": 2.0, "D": 4.0},
            {"A": 0.0, "B": 0.0, "C": 0.0, "D": 2.0},  # 0/0 reads as 0
            {"A": 1.5, "B": -0.5, "C": 4.0, "D": -1.0},
        ]
        expected = [
            (3.0 + 1.0) / 2.0 - -4.0 * 0.5,
            0.0 - -2.0 * 0.5,
            (1.5 + -0.5) / 4.0 - 1.0 * 0.5,
        ]
        for _ in range(50):
            assert [formula.evaluate(r) for r in readings] == expected
        assert formula.counters() == frozenset("ABCD")
        assert parsed == ["(A + B) / C - -D * 0.5"]

    def test_invalid_formula_still_fails_at_construction(self):
        with pytest.raises(FormulaError, match="cannot parse"):
            CounterFormula("bad", "A +")
        with pytest.raises(FormulaError, match="operator not allowed"):
            CounterFormula("bad", "A ** 2")

    def test_cached_tree_stays_out_of_identity(self):
        first = CounterFormula("IPC", "A / B")
        first.evaluate({"A": 1.0, "B": 2.0})
        second = CounterFormula("IPC", "A / B")
        assert first == second and hash(first) == hash(second)
        assert repr(first) == "CounterFormula(name='IPC', expression='A / B')"
