"""Table scan sources: cached base tables and intermediate slots."""

from __future__ import annotations

from ...columnar import Schema
from ...kernels import GTable, mask_table, slice_table
from ..expr_compile import compile_predicate
from .base import Category, ExecutionContext, SourceOperator, UnsupportedFeatureError

__all__ = ["TableScan", "IntermediateSource"]


class TableScan(SourceOperator):
    """Scan a named base table from the buffer manager's caching region.

    Applies the ReadRel's column projection (free: column pruning is just
    buffer selection) and any pushed-down filter (charged as a filter).
    """

    category = Category.OTHER  # scan time itself; the pushed filter is FILTER

    def __init__(self, table_name: str, schema: Schema, projection, filter_expr):
        self.table_name = table_name
        self.schema = schema
        self.projection = list(projection) if projection is not None else None
        self.filter_expr = filter_expr
        self._filter = compile_predicate(filter_expr) if filter_expr is not None else None

    def output_schema(self) -> Schema:
        if self.projection is None:
            return self.schema
        return Schema([self.schema.field(n) for n in self.projection])

    def chunks(self, ctx: ExecutionContext):
        host = ctx.catalog.get(self.table_name)
        if host is None:
            raise UnsupportedFeatureError(f"table {self.table_name!r} not in catalog")
        gtable = ctx.buffer_manager.get_table(self.table_name, host)
        if self.projection is not None:
            gtable = gtable.select(self.projection)
        batch = ctx.batch_rows
        total = gtable.num_rows
        if batch is None or total <= batch:
            yield self._filtered(ctx, gtable)
            return
        for start in range(0, total, batch):
            chunk = slice_table(gtable, start, min(batch, total - start))
            yield self._filtered(ctx, chunk)

    def _filtered(self, ctx: ExecutionContext, chunk: GTable) -> GTable:
        if self._filter is None:
            return chunk
        with ctx.device.clock.attributed(Category.FILTER):
            keep = self._filter(chunk, {})
            return mask_table(chunk, keep)

    def describe(self) -> str:
        extra = ", filter" if self.filter_expr is not None else ""
        return f"TableScan({self.table_name}{extra})"


class IntermediateSource(SourceOperator):
    """Source reading a materialised intermediate produced by another
    pipeline (the output of a pipeline breaker)."""

    category = Category.OTHER

    def __init__(self, slot: str, schema: Schema):
        self.slot = slot
        self.schema = schema

    def output_schema(self) -> Schema:
        return self.schema

    def chunks(self, ctx: ExecutionContext):
        raise RuntimeError("IntermediateSource chunks are supplied by the executor")

    def describe(self) -> str:
        return f"Intermediate({self.slot})"
