"""Statistics collection: sampling marked tables, computing QSS.

Once the sensitivity analysis marks a table, JITS takes the table's
fixed-size sample from the :class:`SampleCache` (redrawn only once UDI
activity makes it stale) and evaluates *every* candidate predicate group
on it ("once a table is sampled, it is relatively cheap to collect the
selectivities of all predicate groups that belong to this table",
Section 3.3), reusing cached predicate masks for the same sample. The exact
selectivities go into the per-query :class:`QSSProfile`; groups marked for
materialization are folded into the archive, together with their marginal
sub-group counts taken from the same sample (the Figure 2 update).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..optimizer.context import QSSProfile
from ..predicates import PredicateGroup, group_region, masks_for_predicates
from ..storage import Database
from .archive import QSSArchive
from .samplecache import MaskCache, SampleCache
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
        mask_cache: MaskCache,
    ):
        self.database = database
        self.archive = archive
        self.sample_cache = sample_cache
        self.mask_cache = mask_cache

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
        rows, sample_epoch, cache_hit = self.sample_cache.get(table_name)
        if cache_hit:
            report.sample_cache_hits += 1
        else:
            report.sample_cache_misses += 1
        sample_size = len(rows)
        report.tables_sampled.append(table_name.lower())
        report.sample_rows += sample_size

        # One mask per distinct predicate; groups AND them together. The
        # mask cache keys on the sample epoch so a reused mask is always
        # aligned with the exact rows of the current sample.
        predicate_masks, hits, misses = masks_for_predicates(
            table,
            (p for group in groups for p in group.predicates),
            rows,
            cache_get=lambda p: self.mask_cache.lookup(
                table_name, p, sample_epoch
            ),
            cache_put=lambda p, m: self.mask_cache.store(
                table_name, p, sample_epoch, m
            ),
        )
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
                table, rows, residuals, residual_store, now
            )

    def _collect_residuals(
        self, table, rows, residuals, residual_store, now: int
    ) -> None:
        from ..executor.expr import eval_bool
        from ..executor.vector import batch_from_table
        from ..predicates.residualkey import residual_key

        batches = {}
        for alias, expr in residuals:
            alias = alias.lower()
            if alias not in batches:
                batches[alias] = batch_from_table(table, alias, rows)
            try:
                mask = eval_bool(expr, batches[alias])
            except Exception:
                continue  # shapes the vectorized evaluator cannot handle
            selectivity = float(mask.sum()) / len(rows)
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
