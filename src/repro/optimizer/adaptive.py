"""Adaptive per-peer re-optimization (paper §2).

    "...we derive a cost model for choosing concrete query plans, which is
     repeatedly applied at each peer involved in a query, resulting in an
     adaptive query processing approach."

During mutant-plan execution the peer currently holding the plan knows the
*exact* cardinality of the partial result (unlike the static planner, which
only has estimates).  :func:`choose_next_step` re-runs the cost model with
that ground truth to pick which pending pattern to evaluate next and how:
probe it with per-value index lookups, or scan it and migrate the plan into
the data's region.

The choice is *connected first*: once rows are bound, only the pending
patterns that share a bound variable are costed.  A pattern sharing none
would multiply every row with its whole result (a Cartesian product the
next step must then probe row by row), so it is scanned only when nothing
pending connects to the rows.  The executor then evaluates the chosen
pattern with a compiled :func:`~repro.algebra.semantics.pattern_matcher`,
built once per pattern rather than unified term by term for every posting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.operators import PatternScan
from repro.algebra.semantics import Binding
from repro.optimizer.cost_model import CostModel
from repro.pgrid.keys import KeyRange
from repro.triples.index import INDEX_TAG, IndexKind, av_attribute_range
from repro.vql.ast import Literal, Var


@dataclass(frozen=True)
class Step:
    """The decision for one mutant-plan iteration."""

    scan: PatternScan
    method: str  # "probe-av" | "probe-oid" | "probe-v" | "scan"
    shared_variable: str | None
    estimated_cost: float


def choose_next_step(
    pending: list[PatternScan],
    bindings: list[Binding] | None,
    model: CostModel,
) -> Step:
    """Pick the cheapest next evaluation step given the *actual* state."""
    bound_variables: set[str] = set().union(*bindings) if bindings else set()
    # Connected first: once rows are bound, a pattern sharing none of their
    # variables would multiply them into a Cartesian product, so it is only
    # a candidate when nothing pending connects to the rows.
    connected = [scan for scan in pending if scan.pattern.variables() & bound_variables]

    steps = [_cost_step(scan, bindings, bound_variables, model) for scan in connected or pending]
    # Equal costs go to the most selective pattern: it leaves the fewest
    # rows for the steps after it (a one-leaf scan costs what a lookup does).
    return min(
        steps,
        key=lambda step: (step.estimated_cost, model.stats.estimate_pattern(step.scan.pattern)),
    )


def _cost_step(
    scan: PatternScan,
    bindings: list[Binding] | None,
    bound_variables: set[str],
    model: CostModel,
) -> Step:
    pattern = scan.pattern

    # Probing is possible when a bound variable sits in the subject or the
    # object (with literal predicate / via the v index).
    if bindings is not None:
        if isinstance(pattern.subject, Var) and pattern.subject.name in bound_variables:
            distinct = _distinct_count(bindings, pattern.subject.name)
            cost = model.parallel_lookups(distinct)
            return Step(scan, "probe-oid", pattern.subject.name, model.value(cost))
        if isinstance(pattern.object, Var) and pattern.object.name in bound_variables:
            distinct = _distinct_count(bindings, pattern.object.name)
            cost = model.parallel_lookups(distinct)
            method = "probe-av" if isinstance(pattern.predicate, Literal) else "probe-v"
            return Step(scan, method, pattern.object.name, model.value(cost))

    # Otherwise: evaluate the pattern with its best standalone access path
    # and migrate the plan (carrying |bindings| rows) into that region.
    if isinstance(pattern.subject, Literal) or isinstance(pattern.object, Literal):
        access = model.lookup()
    elif isinstance(pattern.predicate, Literal):
        access = model.range_scan(av_attribute_range(str(pattern.predicate.value)), "shower")
    else:
        access = model.range_scan(KeyRange.subtree(INDEX_TAG[IndexKind.AV]), "shower")
    carried = len(bindings) if bindings else 0
    migrate = model.ship_rows(max(1, carried))
    return Step(scan, "scan", None, model.value(access.then(migrate)))


def _distinct_count(bindings: list[Binding], variable: str) -> int:
    return len({row.get(variable) for row in bindings if variable in row})
