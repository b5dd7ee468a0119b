"""Ray Data executions and exchanges per query, pinned.

Every execution is a fixed cost of tens of milliseconds on a small
query (ROADMAP direction 2), so a helper that quietly calls
``schema()`` or ``count()``, or iterates a dataset twice, makes the
queries built on it slower without changing a single output.  Same for
an extra shuffle.  This test counts both for the relational queries
whose exchanges go through ``functions/partitioning`` (``bucketed``,
``cobucketed``) or the shared value-range rank helper, by wrapping
``StreamingExecutor.execute`` and walking each executed plan for its
all-to-all operators, and pins them to the counts measured before
those queries moved onto the helpers."""

from __future__ import annotations

import pytest

from distributed_web_search_engine_crawler_indexing_pagerank__ray.pipelines import (
    relational,
)

SF = "/root/testdata/sf0.001"

# query -> (executions, exchanges summed over its executions)
PINNED = {
    "join_shuffle": (1, 2),
    "anti_join": (1, 1),
    "revenue_by_segment": (2, 1),
    "join_left": (1, 1),
    "join_full": (1, 1),
    "bloom_semi_join": (3, 1),
    "local_supplier_volume": (5, 1),
    "shipping_priority": (2, 1),
    "returned_items": (3, 2),
    "except_parts": (1, 1),
    "above_avg_orders": (1, 1),
    "cumulative_revenue": (1, 1),
    "first_last_orders": (1, 1),
    "profile_orders": (2, 1),
    "large_orders": (3, 1),
    "order_count_distribution": (1, 1),
    "global_rank": (3, 2),
    "ntile_price": (3, 2),
    "percent_rank_price": (3, 2),
}


def _exchanges(op, seen: set) -> int:
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )
    from ray.data._internal.execution.operators.hash_shuffle import (
        HashShufflingOperatorBase,
    )

    if id(op) in seen:
        return 0
    seen.add(id(op))
    own = isinstance(op, (AllToAllOperator, HashShufflingOperatorBase))
    return own + sum(_exchanges(d, seen) for d in op.input_dependencies)


@pytest.fixture
def executions(monkeypatch):
    """Exchange count of each plan executed while the fixture is live."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    plans: list[int] = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        plans.append(_exchanges(dag, set()))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return plans


@pytest.mark.parametrize("name", sorted(PINNED))
def test_executions_and_exchanges_pinned(ray_session, executions, name):
    out = getattr(relational, f"q_{name}")(SF)
    if hasattr(out, "to_pandas"):
        out.to_pandas()  # the caller's execution, as the driver runs it
    assert (len(executions), sum(executions)) == PINNED[name]
