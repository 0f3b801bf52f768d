"""Compilation of plan expressions into reusable vectorized closures.

This is the engine's only expression evaluator.  Every operator that
evaluates an expression (filters, projections, pushed scan filters, join
residuals, aggregate measure arguments, fused regions) compiles it once,
in its constructor: :func:`compile_expression` resolves the per-node
dispatch and hoists all constant option parsing (LIKE patterns, cast
targets, substring offsets), returning a closure that only performs the
per-chunk kernel calls.  Literals evaluate to Python scalars; the parent
kernel broadcasts them, so constants never materialise columns unless an
expression is a bare literal.

Compilation is also the single place that decides whether the device can
lower an expression: a construct it cannot run raises
:class:`UnsupportedExpressionError` while the physical plan is built, so
the engine falls back before any kernel launches.

Common-subexpression elimination: every node is keyed by the stable
digest of its ``to_dict()`` form and memoised in a caller-owned ``cache``
dict, so a subtree shared between a filter predicate and a later
projection in the same fused run evaluates once.  A cache is only valid
for one *table epoch* — the caller must supply a fresh dict whenever the
chunk object changes (after a compaction or projection), because cached
``GColumn`` results are positional.  Unfused operators pass a fresh cache
per expression, so each expression launches its kernels independently.
"""

from __future__ import annotations

import json
from typing import Any, Callable

import numpy as np

from ..columnar.dtypes import DType, dtype_from_name
from ..kernels import (
    GColumn,
    GTable,
    absolute,
    binary_arith,
    case_when,
    cast_column,
    coalesce,
    compare,
    concat_strings,
    contains as contains_kernel,
    extract_date_part,
    fill_constant,
    in_list,
    is_null,
    like,
    logical_and,
    logical_not,
    logical_or,
    round_column,
    string_case,
    string_length,
    substring,
)
from ..plan import Expression, FieldRef, Literal, ScalarCall

__all__ = [
    "CompiledFn",
    "UnsupportedExpressionError",
    "compile_expression",
    "compile_predicate",
    "compile_projection",
    "expression_digest",
]

# A compiled node: (table, cache) -> GColumn | scalar.
CompiledFn = Callable[[GTable, dict], Any]

_MISS = object()


class UnsupportedExpressionError(NotImplementedError):
    """An expression Sirius cannot run on the GPU (triggers CPU fallback)."""


def expression_digest(expr: Expression) -> str:
    """Stable structural key for CSE caching (and closure-cache keying)."""
    return json.dumps(expr.to_dict(), sort_keys=True, default=str)


def compile_expression(expr: Expression) -> CompiledFn:
    """Compile ``expr`` to a closure over ``(table, cache)``.

    Raises :class:`UnsupportedExpressionError` for any node the device
    cannot lower, before a single kernel runs.
    """
    if isinstance(expr, FieldRef):
        index = expr.index
        return lambda table, cache: table.columns[index]
    if isinstance(expr, Literal):
        value = expr.value
        return lambda table, cache: value
    if isinstance(expr, ScalarCall):
        return _memoised(expr, _compile_call(expr))
    raise UnsupportedExpressionError(f"cannot compile {expr!r} for device execution")


def compile_predicate(expr: Expression) -> Callable[[GTable, dict], np.ndarray]:
    """Compile a boolean expression to a keep-mask closure (NULL -> False)."""
    node = compile_expression(expr)

    def run(table: GTable, cache: dict) -> np.ndarray:
        result = node(table, cache)
        if not isinstance(result, GColumn):
            return np.full(table.num_rows, bool(result), dtype=np.bool_)
        return result.data.astype(np.bool_) & result.valid_mask()

    return run


def compile_projection(expr: Expression, dtype: DType | None = None) -> CompiledFn:
    """Compile a projection expression, materialising bare scalars as
    columns.

    ``dtype`` is the planner-typed output type for the expression's slot;
    without it a bare literal would be materialised with a dtype inferred
    from its Python value (e.g. ``0`` -> INT64 in a FLOAT64 column
    position, ``None`` -> INT64 regardless of the typed NULL's dtype).
    """
    node = compile_expression(expr)

    def run(table: GTable, cache: dict) -> GColumn:
        result = node(table, cache)
        if isinstance(result, GColumn):
            return result
        return fill_constant(table.device, table.num_rows, result, dtype=dtype)

    return run


def _memoised(expr: ScalarCall, inner: CompiledFn) -> CompiledFn:
    key = expression_digest(expr)

    def run(table: GTable, cache: dict):
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        value = inner(table, cache)
        cache[key] = value
        return value

    return run


def _as_column(node: CompiledFn) -> CompiledFn:
    def run(table: GTable, cache: dict) -> GColumn:
        value = node(table, cache)
        if isinstance(value, GColumn):
            return value
        return fill_constant(table.device, table.num_rows, value)

    return run


def _compile_call(call: ScalarCall) -> CompiledFn:
    """One branch per scalar function, with the dispatch and option
    parsing hoisted to compile time."""
    f = call.func

    if f in ("add", "subtract", "multiply", "divide", "modulo"):
        left = compile_expression(call.args[0])
        right = compile_expression(call.args[1])

        def run(table, cache):
            lv = left(table, cache)
            rv = right(table, cache)
            if not isinstance(lv, GColumn) and not isinstance(rv, GColumn):
                return _fold_scalar_arith(f, lv, rv)
            return binary_arith(f, lv, rv)

        return run

    if f in ("eq", "ne", "lt", "le", "gt", "ge"):
        left = compile_expression(call.args[0])
        right = compile_expression(call.args[1])

        def run(table, cache):
            lv = left(table, cache)
            rv = right(table, cache)
            if not isinstance(lv, GColumn) and not isinstance(rv, GColumn):
                return _fold_scalar_cmp(f, lv, rv)
            return compare(f, lv, rv)

        return run

    if f in ("and", "or"):
        left = compile_expression(call.args[0])
        right = compile_expression(call.args[1])
        kernel = logical_and if f == "and" else logical_or

        def run(table, cache, _kernel=kernel, _both=(f == "and")):
            lv = left(table, cache)
            rv = right(table, cache)
            if not isinstance(lv, GColumn) and not isinstance(rv, GColumn):
                return (bool(lv) and bool(rv)) if _both else (bool(lv) or bool(rv))
            return _kernel(lv, rv)

        return run

    if f == "not":
        operand = compile_expression(call.args[0])

        def run(table, cache):
            value = operand(table, cache)
            if not isinstance(value, GColumn):
                return None if value is None else not bool(value)
            return logical_not(value)

        return run

    if f == "negate":
        operand = compile_expression(call.args[0])

        def run(table, cache):
            value = operand(table, cache)
            if not isinstance(value, GColumn):
                return None if value is None else -value
            return binary_arith("multiply", value, -1)

        return run

    if f in ("is_null", "is_not_null"):
        operand = _as_column(compile_expression(call.args[0]))
        negate = f == "is_not_null"
        return lambda table, cache: is_null(operand(table, cache), negate=negate)

    if f in ("like", "not_like"):
        operand = _as_column(compile_expression(call.args[0]))
        pattern = _literal_value(call.args[1], "LIKE pattern")
        negate = f == "not_like"
        escape = call.options.get("escape")
        return lambda table, cache: like(
            operand(table, cache), pattern, negate=negate, escape=escape
        )

    if f == "contains":
        operand = _as_column(compile_expression(call.args[0]))
        needle = _literal_value(call.args[1], "contains needle")
        return lambda table, cache: contains_kernel(operand(table, cache), needle)

    if f == "starts_with":
        operand = _as_column(compile_expression(call.args[0]))
        prefix = _literal_value(call.args[1], "starts_with prefix")
        return lambda table, cache: like(operand(table, cache), f"{prefix}%")

    if f in ("in", "not_in"):
        operand = _as_column(compile_expression(call.args[0]))
        values = [_literal_value(a, "IN list element") for a in call.args[1:]]
        negated = f == "not_in"

        def run(table, cache):
            result = in_list(operand(table, cache), values)
            return logical_not(result) if negated else result

        return run

    if f == "between":
        column = compile_expression(call.args[0])
        low = compile_expression(call.args[1])
        high = compile_expression(call.args[2])

        def run(table, cache):
            value = column(table, cache)
            return logical_and(
                compare("ge", value, low(table, cache)),
                compare("le", value, high(table, cache)),
            )

        return run

    if f == "case":
        pairs = call.args[:-1]
        conditions = [
            _as_column(compile_expression(pairs[i])) for i in range(0, len(pairs), 2)
        ]
        results = [
            compile_expression(pairs[i + 1]) for i in range(0, len(pairs), 2)
        ]
        default = compile_expression(call.args[-1])

        def run(table, cache):
            return case_when(
                [c(table, cache) for c in conditions],
                [r(table, cache) for r in results],
                default(table, cache),
            )

        return run

    if f == "coalesce":
        operands = [compile_expression(a) for a in call.args]

        def run(table, cache):
            values = [o(table, cache) for o in operands]
            if not any(isinstance(v, GColumn) for v in values):
                return next((v for v in values if v is not None), None)
            return coalesce(values)

        return run

    if f in ("upper", "lower"):
        operand = _as_column(compile_expression(call.args[0]))
        upper = f == "upper"
        return lambda table, cache: string_case(operand(table, cache), upper=upper)

    if f == "length":
        operand = _as_column(compile_expression(call.args[0]))
        return lambda table, cache: string_length(operand(table, cache))

    if f == "concat":
        operands = [compile_expression(a) for a in call.args]

        def run(table, cache):
            values = [o(table, cache) for o in operands]
            if not any(isinstance(v, GColumn) for v in values):
                if any(v is None for v in values):
                    return None
                return "".join(str(v) for v in values)
            return concat_strings(values)

        return run

    if f == "abs":
        operand = compile_expression(call.args[0])

        def run(table, cache):
            value = operand(table, cache)
            if not isinstance(value, GColumn):
                return None if value is None else abs(value)
            return absolute(value)

        return run

    if f == "round":
        digits = (
            int(_literal_value(call.args[1], "round digits"))
            if len(call.args) > 1
            else 0
        )
        operand = compile_expression(call.args[0])

        def run(table, cache):
            value = operand(table, cache)
            if not isinstance(value, GColumn):
                return None if value is None else float(round(float(value), digits))
            return round_column(value, digits)

        return run

    if f == "cast":
        target = dtype_from_name(call.options["to"])
        operand = _as_column(compile_expression(call.args[0]))
        return lambda table, cache: cast_column(operand(table, cache), target)

    if f in ("extract_year", "extract_month", "extract_day"):
        part = f.removeprefix("extract_")
        operand = _as_column(compile_expression(call.args[0]))
        return lambda table, cache: extract_date_part(part, operand(table, cache))

    if f == "substring":
        start = int(
            call.options["start"]
            if "start" in call.options
            else _literal_value(call.args[1], "substring start")
        )
        length = int(
            call.options["length"]
            if "length" in call.options
            else _literal_value(call.args[2], "substring length")
        )
        operand = _as_column(compile_expression(call.args[0]))
        return lambda table, cache: substring(operand(table, cache), start, length)

    raise UnsupportedExpressionError(f"scalar function {f!r} not supported on device")


def _fold_scalar_arith(op: str, left, right):
    """Fold arithmetic between two constants; NULL propagates."""
    if left is None or right is None:
        return None
    if op == "divide":
        return left / right if right != 0 else None
    table = {
        "add": left + right,
        "subtract": left - right,
        "multiply": left * right,
        "modulo": left % right if right != 0 else None,
    }
    return table[op]


def _fold_scalar_cmp(op: str, left, right) -> bool:
    """Fold a comparison of two constants (e.g. optimizer leftovers)."""
    if left is None or right is None:
        return False
    table = {"eq": left == right, "ne": left != right, "lt": left < right,
             "le": left <= right, "gt": left > right, "ge": left >= right}
    return bool(table[op])


def _literal_value(expr: Expression, what: str):
    if not isinstance(expr, Literal):
        raise UnsupportedExpressionError(f"{what} must be a literal, got {expr!r}")
    return expr.value
