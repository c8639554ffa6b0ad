"""Performance-counter definitions and the counter-formula language.

The paper's methodology consumes *formulas over counters* ("the
performance counter-based formula" defining IPC, the per-component rate
formulas of the power model).  We implement a small, safe arithmetic
expression language over counter names: ``+``, ``-``, ``*``, ``/``,
unary minus, parentheses and numeric literals.  Expressions are parsed
with :mod:`ast` and evaluated against a mapping of counter readings --
scalars, or numpy columns holding one reading per row; no other Python
syntax is accepted.
"""

from __future__ import annotations

import ast
import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import DefinitionError, MicroProbeError


@dataclass(frozen=True)
class CounterDef:
    """One hardware performance counter."""

    name: str
    description: str = ""


class FormulaError(MicroProbeError):
    """A counter formula is syntactically or semantically invalid."""


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def _validate_node(node: ast.AST, expr: str) -> None:
    if isinstance(node, ast.Expression):
        _validate_node(node.body, expr)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise FormulaError(f"operator not allowed in formula: {expr!r}")
        _validate_node(node.left, expr)
        _validate_node(node.right, expr)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise FormulaError(f"operator not allowed in formula: {expr!r}")
        _validate_node(node.operand, expr)
    elif isinstance(node, ast.Name):
        pass
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise FormulaError(f"literal not allowed in formula: {expr!r}")
    else:
        raise FormulaError(
            f"syntax not allowed in formula: {expr!r} "
            f"({type(node).__name__})"
        )


def _evaluate_node(node: ast.AST, variables: Mapping[str, float]) -> float:
    if isinstance(node, ast.Expression):
        return _evaluate_node(node.body, variables)
    if isinstance(node, ast.BinOp):
        left = _evaluate_node(node.left, variables)
        right = _evaluate_node(node.right, variables)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        # Division: counters read zero when idle; treat 0/0 as 0 so rate
        # formulas degrade gracefully on empty measurement windows.
        if isinstance(right, np.ndarray):
            return np.divide(
                left, right, out=np.zeros(right.shape), where=right != 0
            )
        if right == 0:
            return 0.0
        return left / right
    if isinstance(node, ast.UnaryOp):
        value = _evaluate_node(node.operand, variables)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Name):
        try:
            value = variables[node.id]
        except KeyError:
            raise FormulaError(f"unknown counter {node.id!r}") from None
        return value if isinstance(value, np.ndarray) else float(value)
    if isinstance(node, ast.Constant):
        return float(node.value)
    raise FormulaError(f"unexpected node {type(node).__name__}")


@dataclass(frozen=True)
class CounterFormula:
    """A named arithmetic formula over performance counters."""

    name: str
    expression: str

    def __post_init__(self) -> None:
        # Parse and validate eagerly, so a bad formula fails here.
        _ = self._tree

    @functools.cached_property
    def _tree(self) -> ast.Expression:
        """The validated syntax tree, parsed once per formula.

        Cached on the frozen instance; ``repr``, equality and hashing
        read the declared fields only.
        """
        try:
            tree = ast.parse(self.expression, mode="eval")
        except SyntaxError as exc:
            raise FormulaError(
                f"cannot parse formula {self.name}: {self.expression!r}"
            ) from exc
        _validate_node(tree, self.expression)
        return tree

    def counters(self) -> frozenset[str]:
        """Counter names referenced by the formula."""
        return frozenset(
            node.id for node in ast.walk(self._tree)
            if isinstance(node, ast.Name)
        )

    def evaluate(self, readings: Mapping[str, float]) -> float:
        """Evaluate against counter readings.

        Readings that are numpy columns evaluate row-wise in the same
        operation order, so each row of the result equals the scalar
        evaluation of that row's readings bit for bit.

        Raises:
            FormulaError: If a referenced counter is missing.
        """
        return _evaluate_node(self._tree, readings)


def evaluate_formula(expression: str, readings: Mapping[str, float]) -> float:
    """Evaluate a one-off formula expression against counter readings."""
    return CounterFormula("<anonymous>", expression).evaluate(readings)


def check_counters_known(
    formula: CounterFormula,
    known: Mapping[str, CounterDef] | frozenset[str],
    origin: str,
) -> None:
    """Raise :class:`DefinitionError` if the formula uses unknown counters."""
    known_names = set(known)
    unknown = formula.counters() - known_names
    if unknown:
        raise DefinitionError(
            origin, 0,
            f"formula {formula.name} references unknown counters: "
            f"{sorted(unknown)}",
        )
