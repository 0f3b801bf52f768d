"""Streaming (non-breaking) operators: filter and project."""

from __future__ import annotations

from ...columnar import Schema
from ...kernels import GTable, mask_table
from ..expr_compile import compile_predicate, compile_projection
from .base import Category, ExecutionContext, StreamingOperator

__all__ = ["FilterOp", "ProjectOp"]


class FilterOp(StreamingOperator):
    """Row selection: evaluate the predicate, compact survivors."""

    category = Category.FILTER

    def __init__(self, condition, input_schema: Schema):
        self.condition = condition
        self.input_schema = input_schema
        self.predicate = compile_predicate(condition)

    def output_schema(self) -> Schema:
        return self.input_schema

    def process(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> GTable:
        keep = self.predicate(chunk, {})
        return mask_table(chunk, keep)

    def describe(self) -> str:
        return f"Filter({self.condition!r})"


class ProjectOp(StreamingOperator):
    """Compute named expressions over a chunk."""

    category = Category.OTHER

    def __init__(self, expressions, names, output_schema: Schema):
        self.expressions = list(expressions)
        self.names = list(names)
        self._schema = output_schema
        self.projections = [
            compile_projection(e, dtype=field.dtype)
            for e, field in zip(self.expressions, output_schema.fields)
        ]

    def output_schema(self) -> Schema:
        return self._schema

    def process(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> GTable:
        # A fresh CSE cache per expression, so each expression launches
        # its own kernels; only a fused stage shares one across its list.
        columns = [p(chunk, {}) for p in self.projections]
        return GTable(self._schema, columns, chunk.device)

    def describe(self) -> str:
        return f"Project({self.names})"
