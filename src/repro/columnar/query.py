"""Query context: snapshot-consistent scans with prefetching and pruning.

A :class:`QueryContext` wraps one transaction on one node (any object with
``begin/commit/rollback/open_for_read``, a ``buffer`` and a ``cpu`` — both
:class:`~repro.engine.Database` and multiplex secondaries qualify) and
provides:

- metadata access (table state, zone maps, HG indexes) with caching,
- page-pruned, prefetched column scans returning *relations*
  (``{column: [values]}`` dictionaries of python lists; pages are
  decoded and filtered as numpy vectors inside the scan),
- HG-index lookups that turn predicates into row-id sets and row-id sets
  into targeted page reads.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columnar import vec
from repro.columnar.blob import read_blob
from repro.columnar.deletes import RowIdSet
from repro.columnar.encoding import decode_values_np
from repro.columnar.hgindex import HgIndex
from repro.columnar.niche import CmpIndex, DateIndex, TextIndex
from repro.columnar.schema import TableState, make_row_id, split_row_id
from repro.columnar.zonemap import ZoneMaps

Relation = Dict[str, List[object]]
RangePredicate = Tuple[object, object]  # inclusive (lo, hi); None = open
Predicate = Union[RangePredicate, Callable[[object], bool]]

_SCAN_OPS = 1.0       # per value materialized
_PREDICATE_OPS = 1.0  # per row per predicate evaluation
_DECODE_OPS = 0.5     # per value decoded from a page

ROWID = "__rowid"


def n_rows(rel: Relation) -> int:
    """Row count of a relation (0 for the empty relation)."""
    for values in rel.values():
        return len(values)
    return 0


class QueryContext:
    """One transaction's view for query execution."""

    def __init__(self, session, txn=None, prefetch_window: int = 32,
                 pipelined: "Optional[bool]" = None) -> None:
        self.session = session
        self.cpu = session.cpu
        self.buffer = session.buffer
        self.clock = session.cpu.clock
        self._own_txn = txn is None
        self.txn = txn if txn is not None else session.begin()
        self.prefetch_window = prefetch_window
        config = getattr(session, "config", None)
        # Pipelined scans: issue batch N+1's page fetches while batch N
        # decodes, so scan virtual time approaches max(io, cpu) instead
        # of io + cpu.  Defaults to the session's `pipelined_prefetch`
        # config knob (off: the paper's serial prefetch-then-decode).
        if pipelined is None:
            pipelined = bool(getattr(config, "pipelined_prefetch", False))
        self.pipelined = pipelined
        self._states: Dict[str, TableState] = {}
        self._zonemaps: Dict[str, ZoneMaps] = {}
        self._hg: Dict[Tuple[str, str], HgIndex] = {}
        # Decoded pages, per context only: a page served from here skips
        # the buffer access and the decode charge, so sharing it across
        # sessions would make a query's virtual time depend on what other
        # sessions happened to scan before it.
        self._decoded: "Dict[Tuple[str, int], np.ndarray]" = {}

    def close(self, commit: bool = True) -> None:
        """Finish the context's own transaction (no-op for borrowed ones)."""
        if self._own_txn:
            if commit:
                self.session.commit(self.txn)
            else:
                self.session.rollback(self.txn)

    def __enter__(self) -> "QueryContext":
        return self

    def __exit__(self, exc_type, *exc_info: object) -> None:
        self.close(commit=exc_type is None)

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #

    def _handle(self, object_name: str):
        return self.session.open_for_read(self.txn, object_name)

    def _session_meta_cache(self) -> "Dict[Tuple[str, int], object]":
        """Parsed-metadata cache shared by all contexts on this session.

        Table metadata, zone maps and HG indexes are tiny relative to the
        buffer cache in a real deployment and stay resident across
        queries; keying by (object, committed version) keeps the cache
        MVCC-correct.
        """
        cache = getattr(self.session, "_query_meta_cache", None)
        if cache is None:
            cache = {}
            setattr(self.session, "_query_meta_cache", cache)
        return cache

    def _load_meta(self, object_name: str, parse):
        handle = self._handle(object_name)
        cache = self._session_meta_cache()
        key = (object_name, handle.version)
        cached = cache.get(key)
        if cached is None:
            payload = read_blob(self.buffer, handle,
                                window=self.prefetch_window)
            cached = parse(payload)
            # Evict entries for superseded versions of this object: each
            # commit bumps the version, and without this the cache grows
            # by one parsed copy per object per commit, forever.  (A
            # concurrent context pinned to an older snapshot just
            # re-reads — correctness comes from the version key, not
            # from retention here.)
            stale = [
                k for k in cache
                if k[0] == object_name and k[1] != handle.version
            ]
            for old in stale:
                del cache[old]
            cache[key] = cached
        return cached

    def table(self, name: str) -> TableState:
        state = self._states.get(name)
        if state is None:
            # Table metadata lives in the __meta blob object.
            state = self._load_meta(f"{name}/__meta", TableState.from_json)
            self._states[name] = state
        return state

    def zonemaps(self, table: str) -> ZoneMaps:
        maps = self._zonemaps.get(table)
        if maps is None:
            state = self.table(table)
            maps = self._load_meta(state.schema.zonemap_object(),
                                   ZoneMaps.from_bytes)
            self._zonemaps[table] = maps
        return maps

    def hg(self, table: str, column: str) -> HgIndex:
        key = (table, column)
        index = self._hg.get(key)
        if index is None:
            state = self.table(table)
            index = self._load_meta(state.schema.hg_object(column),
                                    HgIndex.from_bytes)
            self._hg[key] = index
        return index

    def deleted_rows(self, table: str) -> RowIdSet:
        """The table's tombstone set (empty for tables without one)."""
        from repro.storage.identity import CatalogError

        state = self.table(table)
        try:
            return self._load_meta(state.schema.deleted_object(),
                                   RowIdSet.from_bytes)
        except (CatalogError, KeyError):
            return RowIdSet()

    def date_index(self, table: str, column: str) -> DateIndex:
        """The column's DATE index (datepart buckets)."""
        state = self.table(table)
        return self._load_meta(state.schema.date_object(column),
                               DateIndex.from_bytes)

    def text_index(self, table: str, column: str) -> TextIndex:
        """The column's TEXT (word-inverted) index."""
        state = self.table(table)
        return self._load_meta(state.schema.text_object(column),
                               TextIndex.from_bytes)

    def cmp_index(self, table: str, first: str, second: str) -> CmpIndex:
        """The CMP index over the (first, second) column pair."""
        state = self.table(table)
        return self._load_meta(state.schema.cmp_object(first, second),
                               CmpIndex.from_bytes)

    # ------------------------------------------------------------------ #
    # page access
    # ------------------------------------------------------------------ #

    def _column_page(self, object_name: str, page_no: int) -> "np.ndarray":
        cache_key = (object_name, page_no)
        cached = self._decoded.get(cache_key)
        if cached is not None:
            return cached
        payload = self.buffer.get_page(self._handle(object_name), page_no)
        values = decode_values_np(payload)
        self.cpu.charge(_DECODE_OPS * len(values))
        self._decoded[cache_key] = values
        # A small decode cache is enough: queries touch pages in passes.
        if len(self._decoded) > 4096:
            self._decoded.clear()
        return values

    def _prefetch_pages(self, object_name: str, pages: "Sequence[int]",
                        scan_hint: bool = False) -> None:
        missing = [
            p for p in pages if (object_name, p) not in self._decoded
        ]
        if missing:
            self.buffer.prefetch(
                self._handle(object_name), missing,
                window=self.prefetch_window, scan_hint=scan_hint
            )

    def _issue_batch(self, schema, needed: "Sequence[str]", partition: int,
                     batch: "Sequence[int]") -> float:
        """Issue one pipelined batch's fetches across all needed columns.

        All columns are issued at the same virtual instant (their I/O
        overlaps); returns the latest completion time.  The shared clock
        does not move — the caller decodes the previous batch meanwhile.
        """
        now = self.clock.now()
        requests = []
        for column in needed:
            object_name = schema.column_object(column, partition)
            missing = [
                p for p in batch if (object_name, p) not in self._decoded
            ]
            if missing:
                requests.append((self._handle(object_name), missing))
        if not requests:
            return now
        # One combined issue: the loader interleaves column objects
        # page-by-page, so a batch's keys are adjacent ACROSS columns at
        # each page index — issuing them together lets the object client
        # coalesce them into ranged multi-gets.
        return self.buffer.prefetch_issue_many(requests, now, scan_hint=True)

    # ------------------------------------------------------------------ #
    # scans
    # ------------------------------------------------------------------ #

    @staticmethod
    def _range_of(predicate: Predicate) -> "Optional[RangePredicate]":
        if isinstance(predicate, tuple) and len(predicate) == 2:
            return predicate
        return None

    def _candidate_pages(
        self,
        table: str,
        partition: int,
        predicates: "Dict[str, Predicate]",
    ) -> "List[int]":
        state = self.table(table)
        pages = list(range(state.pages_in_partition(partition)))
        maps = self.zonemaps(table)
        for column, predicate in predicates.items():
            bounds = self._range_of(predicate)
            if bounds is None:
                continue
            surviving = set(maps.prune(column, partition, bounds[0], bounds[1]))
            pages = [p for p in pages if p in surviving]
        return pages

    def read(
        self,
        table: str,
        columns: "Sequence[str]",
        predicates: "Optional[Dict[str, Predicate]]" = None,
        with_rowids: bool = False,
    ) -> Relation:
        """Materialize the selected columns of the qualifying rows.

        ``predicates`` maps column names to inclusive ``(lo, hi)`` ranges
        (used for zone-map pruning *and* row filtering) or to arbitrary
        callables (row filtering only).  Predicate columns need not appear
        in ``columns``.
        """
        predicates = dict(predicates or {})
        state = self.table(table)
        schema = state.schema
        needed = list(dict.fromkeys(list(columns) + list(predicates)))
        out: Relation = {column: [] for column in columns}
        if with_rowids:
            out[ROWID] = []
        deleted = self.deleted_rows(table)
        if self.pipelined:
            self._read_pipelined(table, schema, needed, columns, predicates,
                                 deleted, out, with_rowids)
        else:
            for partition in range(schema.partition_count):
                pages = self._candidate_pages(table, partition, predicates)
                # Aggressive parallel prefetch across all needed columns.
                for column in needed:
                    self._prefetch_pages(
                        schema.column_object(column, partition), pages,
                        scan_hint=True
                    )
                for page_no in pages:
                    self._scan_page(schema, needed, columns, predicates,
                                    deleted, out, with_rowids,
                                    partition, page_no)
        return out

    def _read_pipelined(
        self,
        table: str,
        schema,
        needed: "Sequence[str]",
        columns: "Sequence[str]",
        predicates: "Dict[str, Predicate]",
        deleted: RowIdSet,
        out: Relation,
        with_rowids: bool,
    ) -> None:
        """Pipelined scan body: batch N+1's I/O overlaps batch N's decode.

        The batch plan is global across partitions — a partition whose
        candidate pages fit in one prefetch window still overlaps with
        the next partition's fetches, so the pipeline never drains at
        partition boundaries.
        """
        window = max(1, self.prefetch_window)
        page_size = getattr(getattr(self.session, "config", None),
                            "page_size", None)
        capacity = getattr(self.buffer, "capacity_bytes", None)
        if page_size and capacity:
            # Two batches are in flight at once (the one decoding and the
            # one being fetched); keep both within the buffer so the
            # pipeline never evicts frames it is about to decode.
            frames = max(1, capacity // page_size)
            window = max(1, min(window, frames // (2 * max(1, len(needed)))))
        plan: "List[Tuple[int, List[int]]]" = []
        for partition in range(schema.partition_count):
            pages = self._candidate_pages(table, partition, predicates)
            plan.extend(
                (partition, pages[i:i + window])
                for i in range(0, len(pages), window)
            )
        if not plan:
            return
        # Issue batch 0 now; each later batch is issued while its
        # predecessor decodes, so I/O and CPU overlap.
        pending = self._issue_batch(schema, needed, plan[0][0], plan[0][1])
        for index, (partition, batch) in enumerate(plan):
            # Wait for this batch's I/O (often already overlapped by the
            # previous batch's decode), then put the next batch's fetches
            # in flight before decoding.
            self.clock.advance_to(max(self.clock.now(), pending))
            if index + 1 < len(plan):
                next_partition, next_batch = plan[index + 1]
                pending = self._issue_batch(
                    schema, needed, next_partition, next_batch
                )
            decode_start = self.clock.now()
            for page_no in batch:
                self._scan_page(schema, needed, columns, predicates,
                                deleted, out, with_rowids, partition, page_no)
            self.buffer.tracer.record(
                "decode", "query", decode_start, self.clock.now(),
                table=table, partition=partition, pages=len(batch)
            )

    def _scan_page(
        self,
        schema,
        needed: "Sequence[str]",
        columns: "Sequence[str]",
        predicates: "Dict[str, Predicate]",
        deleted: RowIdSet,
        out: Relation,
        with_rowids: bool,
        partition: int,
        page_no: int,
    ) -> None:
        """Decode, filter and materialize one page into ``out``."""
        page_values = {
            column: self._column_page(
                schema.column_object(column, partition), page_no
            )
            for column in needed
        }
        count = len(next(iter(page_values.values()))) if needed else 0
        mask = self._evaluate(predicates, page_values, count)
        self.cpu.charge(_SCAN_OPS * count * max(1, len(columns)))
        base_row = make_row_id(partition, page_no * schema.rows_per_page)
        if deleted:
            # Tombstones are rare; probe only the surviving rows.
            for i in np.flatnonzero(mask).tolist():
                if (base_row + i) in deleted:
                    mask[i] = False
        for column in columns:
            out[column].extend(page_values[column][mask].tolist())
        if with_rowids:
            out[ROWID].extend((base_row + np.flatnonzero(mask)).tolist())

    def _evaluate(self, predicates: "Dict[str, Predicate]",
                  page_values: "Dict[str, np.ndarray]",
                  count: int) -> "np.ndarray":
        """Boolean row mask of a page: every predicate, charged in turn."""
        mask = np.ones(count, dtype=bool)
        for column, predicate in predicates.items():
            values = page_values[column]
            self.cpu.charge(_PREDICATE_OPS * count)
            bounds = self._range_of(predicate)
            if bounds is not None:
                lo, hi = bounds
                if lo is not None:
                    mask &= np.asarray(values >= lo, dtype=bool)
                if hi is not None:
                    mask &= np.asarray(values <= hi, dtype=bool)
            else:
                mask &= np.asarray(
                    vec.apply_rowwise(predicate, [values], count), dtype=bool
                )
        return mask

    # ------------------------------------------------------------------ #
    # row-id based access (HG index driven)
    # ------------------------------------------------------------------ #

    def read_rows(
        self,
        table: str,
        columns: "Sequence[str]",
        row_ids: "Sequence[int]",
    ) -> Relation:
        """Fetch specific global rows (sorted ids) — the HG index path."""
        state = self.table(table)
        schema = state.schema
        out: Relation = {column: [] for column in columns}
        if not row_ids:
            return out
        deleted = self.deleted_rows(table)
        if deleted:
            row_ids = [row_id for row_id in row_ids if row_id not in deleted]
        # Group row ids by (partition, page); ids encode the partition.
        per_page = schema.rows_per_page
        grouped: Dict[Tuple[int, int], List[int]] = {}
        for row_id in row_ids:
            partition, local = split_row_id(row_id)
            grouped.setdefault((partition, local // per_page), []).append(
                local % per_page
            )
        for column in columns:
            for (part, page_no), __ in grouped.items():
                self._prefetch_pages(
                    schema.column_object(column, part), [page_no]
                )
        for (part, page_no), offsets in grouped.items():
            for column in columns:
                values = self._column_page(
                    schema.column_object(column, part), page_no
                )
                self.cpu.charge(_SCAN_OPS * len(offsets))
                out[column].extend(values[offsets].tolist())
        return out
