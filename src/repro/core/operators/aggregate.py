"""Aggregation sinks: grouped (group-by) and global (reduction).

The planner decomposes ``avg`` into sum/count here (the same decomposition
the paper notes is missing from Sirius' *distributed* mode — our
distributed layer supplies it explicitly as a future-work extension).

Aggregate inputs that are expressions (e.g. ``sum(l_extendedprice * (1 -
l_discount))``) are evaluated per chunk before accumulation, so the sink
itself only ever aggregates materialised columns.
"""

from __future__ import annotations

from ...columnar import Field, Schema, Table
from ...kernels import AggSpec, GTable, binary_arith, concat_gtables, fill_constant, reduce_column
from ...plan import AggregateCall
from ...plan.expressions import aggregate_result_type
from ..expr_compile import compile_projection
from .base import Category, ExecutionContext, SinkOperator, dispose_consumed

__all__ = ["GroupBySink", "PartitionedGroupBySink", "GlobalAggSink"]


class GroupBySink(SinkOperator):
    """Grouped aggregation pipeline breaker."""

    category = Category.GROUPBY

    def __init__(self, group_indices, measures, input_schema: Schema):
        """
        Args:
            group_indices: Ordinals of the grouping keys in the input.
            measures: ``[(AggregateCall, output_name), ...]``.
            input_schema: Schema of incoming chunks.
        """
        self.group_indices = list(group_indices)
        self.measures = list(measures)
        self.input_schema = input_schema
        self.measure_args = _compile_measure_args(self.measures)

    def output_schema(self) -> Schema:
        fields = [self.input_schema.fields[i] for i in self.group_indices]
        for agg, name in self.measures:
            fields.append(Field(name, aggregate_result_type(agg, self.input_schema)))
        return Schema(fields)

    def consume(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> None:
        state.setdefault("chunks", []).append(chunk)

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable:
        chunks = state.get("chunks", [])
        if not chunks:
            return GTable.from_host(ctx.device, Table.empty(self.output_schema()))
        data = chunks[0] if len(chunks) == 1 else concat_gtables(chunks)
        return self._aggregate_table(ctx, data)

    def _aggregate_table(self, ctx: ExecutionContext, data: GTable) -> GTable:
        """Run the grouped aggregation over one materialised table (the
        whole input in-core; one radix partition of it out-of-core)."""
        keys = [data.columns[i] for i in self.group_indices]
        specs: list[AggSpec] = []
        post_avg: list[tuple[int, int, int]] = []  # (out_pos, sum_pos, count_pos)
        for (agg, name), arg in zip(self.measures, self.measure_args):
            arg_col = arg(data, {}) if arg is not None else None
            if agg.op == "avg":
                # Decompose: avg = sum / count, fused back after the kernel.
                sum_pos = len(specs)
                specs.append(AggSpec("sum", arg_col, f"__avg_sum_{name}"))
                specs.append(AggSpec("count", arg_col, f"__avg_cnt_{name}"))
                post_avg.append((len(post_avg), sum_pos, sum_pos + 1))
                continue
            op = agg.op
            if op == "count" and agg.distinct:
                op = "count_distinct"
            if op == "count" and arg_col is None:
                op = "count_star"
            specs.append(AggSpec(op, arg_col, name))

        impl = ctx.registry.get("groupby")
        raw = impl(keys, specs)

        # Reassemble in declared measure order, fusing avg columns.
        out_schema = self.output_schema()
        n_keys = len(self.group_indices)
        out_cols = list(raw.columns[:n_keys])
        raw_pos = n_keys
        spec_pos = 0
        for agg, name in self.measures:
            if agg.op == "avg":
                sums = raw.columns[raw_pos]
                counts = raw.columns[raw_pos + 1]
                out_cols.append(binary_arith("divide", sums, counts))
                raw_pos += 2
                spec_pos += 2
            else:
                out_cols.append(raw.columns[raw_pos])
                raw_pos += 1
                spec_pos += 1
        return GTable(out_schema, out_cols, ctx.device)

    def describe(self) -> str:
        return f"GroupBy(keys={self.group_indices}, measures={[n for _, n in self.measures]})"


class PartitionedGroupBySink(GroupBySink):
    """Out-of-core grouped aggregation: radix-partitions input rows by the
    group keys into buffer-manager fragments instead of buffering every
    chunk resident.

    Because the partition hash covers exactly the grouping keys, every
    group lives wholly inside one partition, so aggregating partitions
    independently and concatenating the per-partition results is exact
    (including the avg = sum/count decomposition, which fuses per
    partition).  Partitions spill device → pinned host → disk under
    pressure and come back one at a time in ``finalize``, bounding the
    resident working set to one partition (recursively re-split while it
    exceeds ``partition_budget_bytes``, up to ``max_depth`` levels).
    """

    consumes_by_copy = True  # partitions are scattered copies; the chunk may be freed

    def __init__(
        self,
        group_indices,
        measures,
        input_schema: Schema,
        slot: str,
        num_partitions: int = 8,
        partition_budget_bytes: int | None = None,
        max_depth: int = 3,
    ):
        super().__init__(group_indices, measures, input_schema)
        if num_partitions < 2:
            raise ValueError("partitioned group-by needs num_partitions >= 2")
        self.slot = slot  # unique fragment-name prefix for this sink
        self.num_partitions = num_partitions
        self.partition_budget_bytes = partition_budget_bytes
        self.max_depth = max_depth

    def consume(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> None:
        from ...kernels import partition_groupby_input

        parts = partition_groupby_input(
            chunk, self.group_indices, self.num_partitions, level=0
        )
        dispose_consumed(ctx, chunk, state)  # partitions are copies; drop the input now
        bm = ctx.buffer_manager
        by_part = state.setdefault("part_chunks", {p: [] for p in range(self.num_partitions)})
        seq = state.setdefault("frag_seq", 0)
        ns = state.get("frag_ns", "q0")
        for p, part in enumerate(parts):
            if part is None:
                continue
            name = f"{ns}/{self.slot}/c{seq}.{p}"
            seq += 1
            bm.put_fragment(name, part)
            by_part[p].append(name)
        state["frag_seq"] = seq

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable:
        by_part = state.get("part_chunks")
        if not by_part or all(not names for names in by_part.values()):
            return GTable.from_host(ctx.device, Table.empty(self.output_schema()))
        bm = ctx.buffer_manager
        budget = self.partition_budget_bytes
        if budget is None:
            budget = max(ctx.device.processing_pool.capacity // 4, 1)
        results: list[GTable] = []
        for p in sorted(by_part):
            names = by_part[p]
            if not names:
                continue
            tables = [bm.get_fragment(n) for n in names]
            merged = concat_gtables(tables)
            for n in names:
                bm.drop_fragment(n)
            self._aggregate_partition(ctx, merged, budget, 1, results)
        if not results:
            return GTable.from_host(ctx.device, Table.empty(self.output_schema()))
        if len(results) == 1:
            return results[0]
        out = concat_gtables(results)
        for r in results:  # per-partition aggregates are exclusively ours
            r.free()
        return out

    def _aggregate_partition(
        self, ctx: ExecutionContext, table: GTable, budget: int, level: int, results: list
    ) -> None:
        """Aggregate one partition, re-splitting at the next salted radix
        level while it exceeds the partition budget."""
        from ...kernels import partition_groupby_input

        if level <= self.max_depth and table.nbytes > budget and table.num_rows > 1:
            parts = partition_groupby_input(
                table, self.group_indices, self.num_partitions, level=level
            )
            table.free()
            for sub in parts:
                if sub is not None:
                    self._aggregate_partition(ctx, sub, budget, level + 1, results)
            return
        results.append(self._aggregate_table(ctx, table))
        table.free()

    def describe(self) -> str:
        return (
            f"PartitionedGroupBy(keys={self.group_indices}, "
            f"measures={[n for _, n in self.measures]}, fanout={self.num_partitions})"
        )


class GlobalAggSink(SinkOperator):
    """Global reductions (no GROUP BY) - always produce exactly one row."""

    category = Category.AGGREGATION

    def __init__(self, measures, input_schema: Schema):
        self.measures = list(measures)
        self.input_schema = input_schema
        self.measure_args = _compile_measure_args(self.measures)

    def output_schema(self) -> Schema:
        return Schema(
            [
                Field(name, aggregate_result_type(agg, self.input_schema))
                for agg, name in self.measures
            ]
        )

    def consume(self, ctx: ExecutionContext, chunk: GTable, state: dict) -> None:
        state.setdefault("chunks", []).append(chunk)

    def finalize(self, ctx: ExecutionContext, state: dict) -> GTable:
        chunks = state.get("chunks", [])
        out_schema = self.output_schema()
        if not chunks:
            data = None
        else:
            data = chunks[0] if len(chunks) == 1 else concat_gtables(chunks)

        columns = []
        for (agg, _name), arg, field in zip(self.measures, self.measure_args, out_schema):
            value = self._reduce(agg, arg, data)
            if value is None:
                col = fill_constant(ctx.device, 1, 0, field.dtype)
                import numpy as np

                col.validity = ctx.device.new_buffer(np.array([False]))
                columns.append(col)
            else:
                columns.append(fill_constant(ctx.device, 1, value, field.dtype))
        return GTable(out_schema, columns, ctx.device)

    def _reduce(self, agg: AggregateCall, arg, data: GTable | None):
        if data is None or data.num_rows == 0:
            return 0 if agg.op in ("count", "count_star") else None
        if agg.op == "count_star":
            return data.num_rows
        col = arg(data, {})
        op = agg.op
        if op == "count" and agg.distinct:
            op = "count_distinct"
        if op == "avg":
            op = "mean"
        return reduce_column(col, op)

    def describe(self) -> str:
        return f"GlobalAgg({[n for _, n in self.measures]})"


def _compile_measure_args(measures) -> list:
    """One compiled argument closure per measure (``None`` for ``count(*)``)."""
    return [
        compile_projection(agg.arg) if agg.arg is not None else None
        for agg, _name in measures
    ]
