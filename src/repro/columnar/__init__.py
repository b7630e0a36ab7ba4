"""Columnar storage and execution engine.

This is the SAP IQ substrate the paper's storage work plugs into: columns
are stored as pages of dictionary/n-bit encoded values (Section 1's
compression techniques), guarded by zone maps for page pruning, optionally
indexed with High-Group (HG) indexes, range partitioned, bulk loaded by a
parallel load engine, and scanned by an executor that prefetches
aggressively to mask storage latency.
"""

from repro.columnar.schema import ColumnSchema, TableSchema
from repro.columnar.store import ColumnStore
from repro.columnar.query import QueryContext
from repro.columnar.hgindex import HgIndex
from repro.columnar.niche import CmpIndex, DateIndex, TextIndex
from repro.columnar.exec import (
    hash_join,
    group_by,
    order_by,
)

__all__ = [
    "ColumnSchema",
    "TableSchema",
    "ColumnStore",
    "QueryContext",
    "HgIndex",
    "CmpIndex",
    "DateIndex",
    "TextIndex",
    "hash_join",
    "group_by",
    "order_by",
]
