"""Statistics collection: sampling marked tables, computing QSS.

Once the sensitivity analysis marks a table, JITS takes the table's
:class:`~repro.jits.samplecache.Sample` from the :class:`SampleCache`
(redrawn only once UDI activity since the draw makes it stale) and
evaluates *every* candidate predicate group on it ("once a table is
sampled, it is relatively cheap to collect the selectivities of all
predicate groups that belong to this table", Section 3.3). Predicate masks
are memoized on the sample itself, so every group of one collection reads
masks of the one generation the sample was drawn from. The exact
selectivities go into the per-query :class:`QSSProfile`; groups marked for
materialization are folded into the archive, together with their marginal
sub-group counts taken from the same sample (the Figure 2 update).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..optimizer.context import QSSProfile
from ..predicates import PredicateGroup, group_region
from ..storage import Database
from .archive import QSSArchive
from .samplecache import Sample, SampleCache
from .sensitivity import TableDecision


@dataclass
class CollectionReport:
    """What one compilation's statistics collection actually did."""

    tables_sampled: List[str] = field(default_factory=list)
    groups_computed: int = 0
    groups_materialized: int = 0
    sample_rows: int = 0
    # Fast-path accounting: how much per-query work the caches absorbed.
    sample_cache_hits: int = 0
    sample_cache_misses: int = 0
    mask_cache_hits: int = 0
    mask_cache_misses: int = 0


class StatisticsCollector:
    def __init__(
        self,
        database: Database,
        archive: QSSArchive,
        sample_cache: SampleCache,
    ):
        self.database = database
        self.archive = archive
        self.sample_cache = sample_cache

    def collect(
        self,
        decisions: Dict[str, TableDecision],
        candidates_by_table: Dict[str, List[PredicateGroup]],
        now: int,
        last_collection_udi: Optional[Dict[str, int]] = None,
        residuals_by_table: Optional[Dict[str, List[Tuple[str, object]]]] = None,
        residual_store=None,
    ) -> Tuple[QSSProfile, CollectionReport]:
        profile = QSSProfile()
        report = CollectionReport()
        for table_name, decision in decisions.items():
            if not decision.collect:
                continue
            groups = candidates_by_table.get(table_name, [])
            if not groups:
                continue
            residuals = (
                residuals_by_table.get(table_name, [])
                if residuals_by_table is not None
                else []
            )
            self._collect_table(
                table_name,
                groups,
                set(decision.materialize),
                profile,
                report,
                now,
                residuals=residuals,
                residual_store=residual_store,
            )
            if last_collection_udi is not None:
                last_collection_udi[table_name] = self.database.table(
                    table_name
                ).udi_total
        return profile, report

    def _collect_table(
        self,
        table_name: str,
        groups: List[PredicateGroup],
        materialize: set,
        profile: QSSProfile,
        report: CollectionReport,
        now: int,
        residuals: Optional[List[Tuple[str, object]]] = None,
        residual_store=None,
    ) -> None:
        table = self.database.table(table_name)
        cardinality = table.row_count
        profile.table_cardinalities[table_name.lower()] = float(cardinality)
        sample, cache_hit = self.sample_cache.get(table)
        if cache_hit:
            report.sample_cache_hits += 1
        else:
            report.sample_cache_misses += 1
        sample_size = sample.size
        report.tables_sampled.append(table_name.lower())
        report.sample_rows += sample_size

        # One mask per distinct predicate; groups AND them together.
        predicate_masks = {}
        hits = 0
        for predicate in (p for group in groups for p in group.predicates):
            if predicate not in predicate_masks:
                predicate_masks[predicate], hit = sample.mask(table, predicate)
                hits += hit
        misses = len(predicate_masks) - hits
        self.sample_cache.count_masks(hits, misses)
        report.mask_cache_hits += hits
        report.mask_cache_misses += misses

        selectivities: Dict[PredicateGroup, float] = {}
        for group in groups:
            mask = None
            for predicate in group.predicates:
                m = predicate_masks[predicate]
                mask = m if mask is None else (mask & m)
            matches = int(mask.sum()) if mask is not None else sample_size
            selectivity = matches / sample_size if sample_size else 0.0
            selectivities[group] = selectivity
            profile.record(table_name, group, selectivity)
            report.groups_computed += 1

        for group in groups:
            if group not in materialize:
                continue
            if self._materialize_group(
                table, group, groups, selectivities, cardinality, now
            ):
                report.groups_materialized += 1

        # Footnote 1 (Section 3.4): predicates that cannot feed a histogram
        # still get their observed selectivity stored for reuse.
        if residuals and residual_store is not None and sample_size:
            self._collect_residuals(
                table, sample, residuals, residual_store, now
            )

    def _collect_residuals(
        self, table, sample: Sample, residuals, residual_store, now: int
    ) -> None:
        from ..executor.expr import eval_bool
        from ..predicates.residualkey import residual_key

        batches = {}
        for alias, expr in residuals:
            alias = alias.lower()
            if alias not in batches:
                batches[alias] = sample.batch(table, alias)
            try:
                mask = eval_bool(expr, batches[alias])
            except Exception:
                continue  # shapes the vectorized evaluator cannot handle
            selectivity = float(mask.sum()) / sample.size
            residual_store.record(
                table.name, residual_key(expr, alias), selectivity, now
            )

    def _materialize_group(
        self,
        table,
        group: PredicateGroup,
        all_groups: List[PredicateGroup],
        selectivities: Dict[PredicateGroup, float],
        cardinality: int,
        now: int,
    ) -> bool:
        """Fold one group's observed count (plus the marginal counts of its
        sub-groups, from the same sample) into the archive histogram."""
        located = group_region(table, group)
        if located is None:
            return False  # not a region shape (<>, multi-value IN)
        columns, region = located
        self.archive.observe(
            table.name,
            columns,
            region,
            count=selectivities[group] * cardinality,
            total=float(cardinality),
            now=now,
        )
        if len(columns) > 1:
            for sub in all_groups:
                if sub is group or not group.contains(sub):
                    continue
                from ..predicates import region_for_columns

                sub_region = region_for_columns(table, sub, columns)
                if sub_region is None:
                    continue
                self.archive.observe(
                    table.name,
                    columns,
                    sub_region,
                    count=selectivities[sub] * cardinality,
                    total=None,  # same sample; total already constrained
                    now=now,
                )
        return True
