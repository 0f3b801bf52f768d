"""Unit tests for the host CPU engine (independent of the GPU path)."""

import datetime

import pytest

from repro.columnar import Schema, Table
from repro.hosts import CpuEngine, CpuEvalError, DidNotFinishError
from repro.plan import Plan, PlanBuilder, col, lit
from repro.plan.expressions import FieldRef, ScalarCall
from repro.plan.relations import FilterRel, ReadRel

SCHEMA = Schema([("k", "int64"), ("s", "string"), ("v", "float64"), ("d", "date")])


@pytest.fixture
def data():
    return {
        "t": Table.from_pydict(
            {
                "k": [1, 2, 3, 4],
                "s": ["alpha", "beta", "alpha", None],
                "v": [1.5, 2.5, None, 4.5],
                "d": ["1995-01-01", "1996-01-01", "1997-01-01", "1998-01-01"],
            },
            SCHEMA,
        ),
        "u": Table.from_pydict(
            {"k": [2, 3, 5], "w": [20, 30, 50]}, Schema([("k", "int64"), ("w", "int64")])
        ),
    }


@pytest.fixture
def engine():
    return CpuEngine()


def run(engine, builder, data):
    return engine.execute(builder.build(), data)


class TestRelationalBasics:
    def test_scan(self, engine, data):
        out = run(engine, PlanBuilder.read("t", SCHEMA), data)
        assert out.num_rows == 4

    def test_filter_null_is_false(self, engine, data):
        out = run(engine, PlanBuilder.read("t", SCHEMA).filter(col("v") > lit(2.0)), data)
        assert out["k"].to_pylist() == [2, 4]  # NULL comparison drops row 3

    def test_project_expression(self, engine, data):
        out = run(
            engine,
            PlanBuilder.read("t", SCHEMA).project([(col("v") * lit(2.0), "dbl")]),
            data,
        )
        assert out["dbl"].to_pylist() == [3.0, 5.0, None, 9.0]

    def test_string_predicates(self, engine, data):
        out = run(
            engine, PlanBuilder.read("t", SCHEMA).filter(col("s").like("alp%")), data
        )
        assert out.num_rows == 2

    def test_date_arithmetic(self, engine, data):
        out = run(
            engine,
            PlanBuilder.read("t", SCHEMA).filter(
                col("d") < lit(datetime.date(1996, 6, 1))
            ),
            data,
        )
        assert out.num_rows == 2

    def test_inner_join(self, engine, data):
        out = run(
            engine,
            PlanBuilder.read("t", SCHEMA)
            .join(PlanBuilder.read("u", data["u"].schema), "inner", [("k", "k")])
            .project([("k", "k"), ("w", "w")]),
            data,
        )
        assert sorted(zip(out["k"].to_pylist(), out["w"].to_pylist())) == [(2, 20), (3, 30)]

    def test_left_join_nulls(self, engine, data):
        out = run(
            engine,
            PlanBuilder.read("t", SCHEMA)
            .join(PlanBuilder.read("u", data["u"].schema), "left", [("k", "k")])
            .project([("k", "k"), ("w", "w")])
            .sort([("k", True)]),
            data,
        )
        assert out["w"].to_pylist() == [None, 20, 30, None]

    def test_groupby_skips_nulls(self, engine, data):
        out = run(
            engine,
            PlanBuilder.read("t", SCHEMA)
            .aggregate(groups=["s"], aggs=[("sum", "v", "sv"), ("count", "v", "cv")])
            .sort([("s", True)]),
            data,
        )
        d = out.to_pydict()
        assert d["s"] == ["alpha", "beta", None]
        assert d["sv"] == [1.5, 2.5, 4.5]

    def test_global_aggregate(self, engine, data):
        out = run(
            engine,
            PlanBuilder.read("t", SCHEMA).aggregate(
                groups=[], aggs=[("avg", "v", "m"), ("count", None, "n")]
            ),
            data,
        )
        assert out.to_pydict() == {"m": [pytest.approx(8.5 / 3)], "n": [4]}

    def test_limit_offset(self, engine, data):
        out = run(engine, PlanBuilder.read("t", SCHEMA).sort([("k", True)]).limit(2), data)
        assert out["k"].to_pylist() == [1, 2]


class TestEngineBehaviours:
    def test_sim_time_accumulates(self, engine, data):
        run(engine, PlanBuilder.read("t", SCHEMA), data)
        assert engine.last_sim_seconds > 0
        assert engine.queries_executed == 1

    def test_missing_table_raises(self, engine):
        with pytest.raises(CpuEvalError, match="not found"):
            run(engine, PlanBuilder.read("t", SCHEMA), {})

    @pytest.mark.parametrize(
        "func", ["like", "not_like", "contains", "starts_with", "in", "not_in"]
    )
    def test_non_literal_argument_raises_typed_error(self, engine, data, func):
        cond = ScalarCall(func, [FieldRef(1), FieldRef(1)])
        plan = Plan(FilterRel(ReadRel("t", SCHEMA), cond))
        with pytest.raises(CpuEvalError, match="must be a literal"):
            engine.execute(plan, data)

    def test_row_budget_enforced(self, data):
        engine = CpuEngine(max_intermediate_rows=5)
        cross = PlanBuilder.read("t", SCHEMA).join(
            PlanBuilder.read("u", data["u"].schema), "inner", []
        )
        with pytest.raises(DidNotFinishError):
            run(engine, cross, data)

    def test_cross_join_within_budget(self, engine, data):
        cross = PlanBuilder.read("t", SCHEMA).join(
            PlanBuilder.read("u", data["u"].schema), "inner", []
        )
        assert run(engine, cross, data).num_rows == 12

    def test_materialize_joins_charges_more(self, data):
        plain = CpuEngine()
        materializing = CpuEngine(materialize_joins=True)
        builder = PlanBuilder.read("t", SCHEMA).join(
            PlanBuilder.read("u", data["u"].schema), "inner", [("k", "k")]
        )
        run(plain, builder, data)
        run(materializing, builder, data)
        assert materializing.last_sim_seconds > plain.last_sim_seconds
