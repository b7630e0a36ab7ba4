"""The single-node database engine facade.

:class:`Database` wires every subsystem together the way the paper's
deployment does:

- a **system dbspace** on an EBS gp2 block volume (strongly consistent;
  holds the transaction log, checkpoints, freelist and catalog),
- a **user dbspace** either on a simulated object store (``s3``) — with or
  without an Object Cache Manager on local NVMe — or on a block volume
  (``ebs`` / ``efs``) for the paper's comparison runs,
- the Object Key Generator with a node-local key cache,
- the transaction manager, snapshot manager, and crash/restart machinery.

All I/O and CPU advance a single virtual clock; costs accrue to a
:class:`~repro.costs.meter.CostMeter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.blockstore.device import BlockDevice
from repro.blockstore.profiles import ebs_gp2, efs_standard, nvme_ssd
from repro.core.buffer import BufferManager, ObjectHandle
from repro.core.keygen import NodeKeyCache, ObjectKeyGenerator, RangeSizePolicy
from repro.core.log import OBJECT_CREATED, SNAPSHOT_CREATED, TransactionLog
from repro.core.ocm import ObjectCacheManager, OcmConfig
from repro.core.recovery import encode_checkpoint, recover
from repro.core.snapshot import Snapshot, SnapshotManager
from repro.core.txn import Transaction, TransactionError, TransactionManager
from repro.costs.meter import CostMeter
from repro.objectstore.client import (
    CircuitBreakerConfig,
    HedgePolicy,
    RetryPolicy,
    RetryingObjectClient,
)
from repro.objectstore.consistency import ConsistencyModel, EVENTUAL
from repro.objectstore.faults import FaultSchedule
from repro.objectstore.replicated import ReplicationConfig, build_replicated_store
from repro.objectstore.s3sim import ObjectStoreProfile, S3_PROFILE, SimulatedObjectStore
from repro.sim.clock import VirtualClock
from repro.sim.cpu import CpuModel
from repro.sim.crashpoints import (
    SimulatedCrash,
    crash_point,
    register_crash_point,
)
from repro.sim.devices import raid0, scaled_profile
from repro.sim.metrics import MetricsRegistry
from repro.sim.pipes import Pipe
from repro.sim.rng import DeterministicRng
from repro.sim.tracing import NULL_TRACER, Tracer
from repro.storage.blockmap import Blockmap
from repro.storage.dbspace import (
    BlockDbspace,
    CloudDbspace,
    DirectObjectIO,
    PageStore,
)
from repro.storage.encryption import PageEncryptor
from repro.storage.identity import Catalog, IdentityObject
from repro.storage.locator import NULL_LOCATOR, is_object_key
from repro.storage.page import PageConfig

GIB = 1024 ** 3
MIB = 1024 ** 2
GBIT = 1_000_000_000 / 8

SYSTEM_DBSPACE = "system"
USER_DBSPACE = "user"

CP_CREATE_OBJECT_BEFORE_LOG = register_crash_point(
    "engine.create_object.before_log",
    "object registered in the in-memory catalog, DDL not yet logged",
)
CP_CHECKPOINT_BEFORE_WRITE = register_crash_point(
    "engine.checkpoint.before_write",
    "checkpoint encoded but never written (recovery replays further back)",
)
CP_SNAPSHOT_BEFORE_LOG = register_crash_point(
    "engine.snapshot.before_log",
    "snapshot registered with the snapshot manager, not yet logged",
)
CP_SNAPSHOT_AFTER_LOG = register_crash_point(
    "engine.snapshot.after_log",
    "SNAPSHOT_CREATED logged, metadata backup charge lost",
)
CP_RESTART_BEFORE_GC = register_crash_point(
    "engine.restart.before_gc",
    "log replayed and state reinstalled, restart GC has not run "
    "(the active set must survive for the next attempt)",
)
CP_RESTART_GC_MID_POLL = register_crash_point(
    "engine.restart_gc.mid_poll",
    "restart GC crashed between polling two orphaned keys",
)
CP_RESTORE_BEFORE_POLL = register_crash_point(
    "engine.restore.before_poll",
    "snapshot catalog reinstalled, post-snapshot keys not yet polled",
)


class EngineError(Exception):
    """Engine misconfiguration or use of a crashed instance."""


@dataclass(frozen=True)
class DatabaseConfig:
    """Engine configuration (defaults suit tests; benches override)."""

    node_id: str = "coordinator"
    seed: int = 0
    page_size: int = 64 * 1024
    codec_name: str = "zlib"
    buffer_capacity_bytes: int = 64 * MIB
    vcpus: int = 8
    cpu_ops_per_second: float = 50e6
    nic_gbits: float = 10.0
    instance_type: str = "m5ad.4xlarge"
    # user dbspace placement: "s3", "ebs" or "efs"
    user_volume: str = "s3"
    user_volume_size_bytes: int = 1024 * GIB
    system_volume_size_bytes: int = 64 * GIB
    # OCM (only meaningful for user_volume == "s3")
    ocm_enabled: bool = True
    ocm_capacity_bytes: int = 256 * MIB
    ocm_ssd_count: int = 2
    ocm_upload_window: int = 16
    # OCM eviction policy: "lru" (the paper's cache) or "arc2q"
    # (scan-resistant probation/protected segments with ghost lists)
    ocm_policy: str = "lru"
    # Pipelined scans: QueryContext overlaps batch N's decode with batch
    # N+1's object fetches instead of strictly alternating them
    pipelined_prefetch: bool = False
    # GET coalescing: the object client merges adjacent-key reads into
    # ranged multi-gets (one billed request, one token) before the
    # per-prefix token buckets
    coalesce_gets: bool = False
    # Adaptive write-back pipeline (DESIGN.md §11; all off by default so
    # the stock configuration reproduces the paper's fixed-window drain):
    # - adaptive_upload_window: AIMD-controlled upload window seeded at
    #   ocm_upload_window instead of the fixed constant;
    # - coalesce_puts: the write-side mirror of coalesce_gets — runs of
    #   freshly keyed adjacent pages become one billed ranged multi-put;
    # - group_commit_flush: FlushForCommit drains a transaction's queued
    #   write-backs as coalesced batches instead of one PUT per page;
    # - ocm_max_pending_uploads: bound on the write-back queue; a loader
    #   that outruns the drain stalls while the oldest uploads complete
    #   (0 = unbounded, the paper's behaviour).
    adaptive_upload_window: bool = False
    coalesce_puts: bool = False
    group_commit_flush: bool = False
    ocm_max_pending_uploads: int = 0
    # End-to-end integrity (DESIGN.md §15; both off by default so the
    # stock configuration stays byte-identical to the seed):
    # - verify_reads: the object client recomputes CRC-32C over every
    #   served payload against the store's recorded checksum; mismatches
    #   retry (and read-repair under replication) instead of reaching the
    #   engine, and the OCM re-verifies SSD cache hits against fill-time
    #   checksums;
    # - page_checksums: every sealed page image carries a CRC-32C trailer
    #   inside the encryption envelope, so corruption is caught even on
    #   paths that bypass the store's checksum records (changes the bytes
    #   at rest — guarded by the golden byte-identical regression).
    verify_reads: bool = False
    page_checksums: bool = False
    # object store behaviour
    consistency: ConsistencyModel = EVENTUAL
    prefix_bits: int = 16
    parallel_window: int = 32
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # resilience machinery (None = disabled, preserving baseline behaviour)
    breaker: "Optional[CircuitBreakerConfig]" = None
    hedge: "Optional[HedgePolicy]" = None
    # scripted fault injection against the user object store
    fault_schedule: "Optional[FaultSchedule]" = None
    # multi-region replication of the user object store (None = single
    # region, preserving baseline behaviour byte-for-byte; see
    # DESIGN.md §12 for the DR story this enables)
    replication: "Optional[ReplicationConfig]" = None
    # page encryption: with a key, the OCM cache and the objects at rest
    # hold ciphertext only (Section 4)
    encryption_key: "Optional[bytes]" = None
    # adaptive OCM read re-routing (the paper's proposed future work)
    ocm_adaptive_routing: bool = False
    # snapshots: retention 0 disables the snapshot manager entirely
    retention_seconds: float = 0.0
    # End-to-end request tracing: build a Tracer on the engine clock and
    # propagate it through buffer -> OCM -> client -> store so queries and
    # commits yield span trees (DESIGN.md §8).  Off by default: tracing
    # retains every span in memory.
    tracing_enabled: bool = False
    # Effective per-node S3 throughput ceiling in Gbit/s.  The paper
    # observes saturation slightly above 9 Gbit/s even on a 20 Gbit NIC
    # and attributes it to the engine's 512 KB page size (Figure 8).
    s3_effective_gbits: float = 9.0
    # Hardware rate scaling for scaled-down benchmark datasets: every
    # *rate* (bandwidths, IOPS, CPU ops/s, S3 per-prefix request rates) is
    # multiplied by this factor while latencies stay real.  Shrinking the
    # data by N and the rates by N preserves which resource bottlenecks a
    # workload, so virtual seconds stay comparable to the paper's (see
    # DESIGN.md).  IOPS-like rates get an extra factor for the sim's
    # smaller pages (the paper's pages are 512 KB).
    rate_scale: float = 1.0

    @property
    def op_scale(self) -> float:
        """Rate scale for per-operation limits (IOPS, request rates).

        Simulation pages are much smaller than the paper's 512 KB pages
        and real systems coalesce adjacent page reads, so one simulated
        operation stands for a fraction of a real operation: per-op rate
        limits scale by the page-size ratio (x2 for read coalescing) on
        top of the plain rate scale.
        """
        return self.rate_scale * (2 * 524288 / self.page_size)

    def with_overrides(self, **kwargs: object) -> "DatabaseConfig":
        return replace(self, **kwargs)  # type: ignore[arg-type]


class NodeRuntime:
    """A node's local execution context: buffer, dbspace views, caches."""

    def __init__(self, node_id: str, buffer: BufferManager,
                 dbspaces: "Dict[str, PageStore]") -> None:
        self.node_id = node_id
        self.buffer = buffer
        self._dbspaces = dict(dbspaces)
        self._blockmaps: Dict[Tuple[int, int], Blockmap] = {}

    def dbspace(self, name: str) -> PageStore:
        return self._dbspaces[name]

    def dbspaces(self) -> "Dict[str, PageStore]":
        return dict(self._dbspaces)

    def add_dbspace(self, name: str, store: PageStore) -> None:
        self._dbspaces[name] = store

    def blockmap_for(self, identity: IdentityObject) -> Blockmap:
        key = (identity.object_id, identity.version)
        cached = self._blockmaps.get(key)
        if cached is not None:
            return cached
        blockmap = Blockmap(
            self.dbspace(identity.dbspace),
            root_locator=identity.root_locator,
            height=identity.height,
        )
        self._blockmaps[key] = blockmap
        return blockmap

    def publish_blockmap(self, blockmap: Blockmap,
                         identity: IdentityObject) -> None:
        self._blockmaps[(identity.object_id, identity.version)] = blockmap

    def invalidate_caches(self) -> None:
        self._blockmaps.clear()
        self.buffer.invalidate_all()


class _ViewTransaction:
    """Inert transaction token for read-only snapshot views."""

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id


class SnapshotView:
    """Read-only session over a past snapshot's catalog.

    Pages of snapshot-referenced versions are retained on the object store
    for the retention period, so reads resolve exactly as they would have
    at snapshot time; writes are rejected.  The view shares the node's
    buffer manager — version-tagged frames make that MVCC-safe (a version
    number never maps to two different page images).
    """

    def __init__(self, db: "Database", snapshot: Snapshot) -> None:
        self.db = db
        self.snapshot = snapshot
        self.catalog = Catalog.from_bytes(snapshot.catalog_bytes)
        self.buffer = db.buffer
        self.cpu = db.cpu
        self.clock = db.clock
        self._next_view_txn = -1

    def begin(self) -> _ViewTransaction:
        token = _ViewTransaction(self._next_view_txn)
        self._next_view_txn -= 1
        return token

    def commit(self, txn: _ViewTransaction) -> None:
        """Read-only views have nothing to commit."""

    def rollback(self, txn: _ViewTransaction) -> None:
        """Read-only views have nothing to roll back."""

    def open_for_read(self, txn: _ViewTransaction, name: str) -> ObjectHandle:
        object_id = self.catalog.object_id(name)
        identity = self.catalog.current(object_id)
        blockmap = self.db.node.blockmap_for(identity)
        return ObjectHandle(
            object_id=object_id,
            name=name,
            dbspace=self.db.node.dbspace(identity.dbspace),
            blockmap=blockmap,
            version=identity.version,
            page_count=identity.page_count,
            writable=False,
        )

    def open_for_write(self, txn: _ViewTransaction, name: str) -> ObjectHandle:
        raise EngineError(
            f"snapshot view #{self.snapshot.snapshot_id} is read-only"
        )

    def read_page(self, txn: _ViewTransaction, name: str,
                  page_no: int) -> bytes:
        return self.buffer.get_page(self.open_for_read(txn, name), page_no)


class Database:
    """A single-node SAP-IQ-style engine over simulated cloud storage."""

    def __init__(self, config: "Optional[DatabaseConfig]" = None) -> None:
        self.config = config or DatabaseConfig()
        cfg = self.config
        self.clock = VirtualClock()
        self.rng = DeterministicRng(cfg.seed, "database")
        self.meter = CostMeter()
        self.page_config = PageConfig(cfg.page_size, cfg.codec_name)
        self.cpu = CpuModel(
            self.clock, cfg.vcpus, cfg.cpu_ops_per_second * cfg.rate_scale
        )
        # The NIC carries load input *and* object store traffic; the
        # engine cannot push S3 past ~9 Gbit/s (512 KB page limitation the
        # paper reports), so the pipe is capped at the lower of the two.
        effective_gbits = min(cfg.nic_gbits, cfg.s3_effective_gbits)
        self.nic = Pipe(effective_gbits * GBIT * cfg.rate_scale, name="nic")
        self.crashed = False
        self.metrics = MetricsRegistry()
        # Name of the crash point whose firing killed this node last
        # (set by crash_from; None for clean crashes).
        self.last_crash_point: "Optional[str]" = None
        self.tracer = (
            Tracer(self.clock, meter=self.meter)
            if cfg.tracing_enabled
            else NULL_TRACER
        )

        # --- system dbspace (strong consistency, holds log/catalog) ---- #
        # The system dbspace carries only metadata (log, catalog,
        # checkpoints), whose volume does not scale with the dataset, so
        # its device runs at real gp2 rates even under rate scaling.
        system_blocks = cfg.system_volume_size_bytes // self.page_config.block_size
        self.system_device = BlockDevice(
            ebs_gp2(cfg.system_volume_size_bytes, name="system-gp2"),
            self.page_config.block_size,
            system_blocks,
            clock=self.clock,
            rng=self.rng.substream("system-device"),
        )
        self.system_dbspace = BlockDbspace(SYSTEM_DBSPACE, self.system_device)
        self.log = TransactionLog(self.system_device)

        # --- key generation --------------------------------------------- #
        self.keygen = ObjectKeyGenerator(self.log)
        self.key_cache = NodeKeyCache(
            cfg.node_id, self.keygen.allocate_range, self.clock.now
        )

        # --- user dbspace ------------------------------------------------ #
        self.object_store: "Optional[SimulatedObjectStore]" = None
        self.object_client: "Optional[RetryingObjectClient]" = None
        self.ocm: "Optional[ObjectCacheManager]" = None
        self.user_device: "Optional[BlockDevice]" = None
        self.user_dbspace = self._build_user_dbspace()

        # --- buffer, catalog, transactions ------------------------------ #
        self.buffer = BufferManager(
            cfg.buffer_capacity_bytes, self.page_config
        )
        self.node = NodeRuntime(
            cfg.node_id,
            self.buffer,
            {SYSTEM_DBSPACE: self.system_dbspace, USER_DBSPACE: self.user_dbspace},
        )
        self.catalog = Catalog()
        self.snapshot_manager: "Optional[SnapshotManager]" = None
        if cfg.retention_seconds > 0:
            self.snapshot_manager = SnapshotManager(
                self.clock,
                cfg.retention_seconds,
                {USER_DBSPACE: self.user_dbspace},
            )
        self.txn_manager = TransactionManager(
            self.catalog,
            self.log,
            keygen=self.keygen,
            gc_dbspaces={
                SYSTEM_DBSPACE: self.system_dbspace,
                USER_DBSPACE: self.user_dbspace,
            },
            snapshot_manager=self.snapshot_manager,
            identity_write_cost=lambda: self.system_device.charge_write(256),
        )
        # An initial checkpoint anchors recovery for logs with no history.
        self.checkpoint()
        self.attach_tracer(self.tracer)

    def new_session_scheduler(self) -> "SessionScheduler":
        """An event-driven scheduler interleaving sessions on this clock.

        Spawned sessions run ordinary engine code (transactions,
        :class:`~repro.columnar.query.QueryContext` scans, page reads) —
        while the scheduler runs, every timed wait inside the stack
        (store latency, SSD service, CPU charges, RPC round-trips)
        yields to whichever session wakes earliest instead of
        monopolizing the clock, so thousands of logical clients share
        the engine the way the paper's Figure 7/9 elasticity experiments
        assume.  With no scheduler running, the engine behaves exactly
        as the single-stream benches always have.
        """
        from repro.sim.sessions import SessionScheduler

        return SessionScheduler(self.clock)

    def attach_tracer(self, tracer) -> None:
        """Share one tracer across every instrumented layer.

        Benchmark drivers call this with their own :class:`Tracer` to
        collect spans from several engines into one trace; passing
        :data:`NULL_TRACER` detaches tracing again.
        """
        self.tracer = tracer
        self.buffer.tracer = tracer
        self.txn_manager.tracer = tracer
        for dbspace in self.cloud_dbspaces().values():
            io = dbspace.io
            io.tracer = tracer
            client = getattr(io, "client", None)
            if client is not None:
                client.tracer = tracer
                client.store.tracer = tracer

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _build_user_dbspace(self) -> PageStore:
        cfg = self.config
        if cfg.user_volume == "s3":
            profile = ObjectStoreProfile(
                name="s3",
                consistency=cfg.consistency,
                per_prefix_put_rate=3500.0 * cfg.op_scale,
                per_prefix_get_rate=5500.0 * cfg.op_scale,
            )
            self.object_store = SimulatedObjectStore(
                profile,
                clock=self.clock,
                rng=self.rng.substream("s3"),
                bandwidth=self.nic,
                meter=self.meter,
                fault_schedule=cfg.fault_schedule,
            )
            if cfg.replication is not None:
                # The single-region store becomes the primary region of a
                # replicated store; its RNG substreams and request path
                # are untouched, so the default path stays byte-identical
                # and replication only adds secondaries around it.
                self.object_store = build_replicated_store(
                    cfg.replication, self.object_store, self.rng
                )
            self.object_client = RetryingObjectClient(
                self.object_store,
                policy=cfg.retry,
                parallel_window=cfg.parallel_window,
                node_id=cfg.node_id,
                breaker=cfg.breaker,
                hedge=cfg.hedge,
                rng=self.rng.substream("object-client"),
                coalesce_gets=cfg.coalesce_gets,
                coalesce_puts=cfg.coalesce_puts,
                verify_reads=cfg.verify_reads,
            )
            if cfg.ocm_enabled:
                ssd = scaled_profile(
                    raid0(
                        [nvme_ssd(f"nvme{i}") for i in range(cfg.ocm_ssd_count)],
                        name="ocm-raid0",
                    ),
                    cfg.rate_scale,
                    cfg.op_scale,
                )
                self.ocm = ObjectCacheManager(
                    self.object_client,
                    ssd,
                    OcmConfig(
                        capacity_bytes=cfg.ocm_capacity_bytes,
                        upload_window=cfg.ocm_upload_window,
                        read_window=cfg.parallel_window,
                        adaptive_read_routing=cfg.ocm_adaptive_routing,
                        policy=cfg.ocm_policy,
                        adaptive_upload_window=cfg.adaptive_upload_window,
                        group_commit_flush=cfg.group_commit_flush,
                        max_pending_uploads=cfg.ocm_max_pending_uploads,
                    ),
                    rng=self.rng.substream("ocm"),
                )
                io = self.ocm
            else:
                io = DirectObjectIO(self.object_client)
            encryptor = (
                PageEncryptor(cfg.encryption_key)
                if cfg.encryption_key is not None
                else None
            )
            return CloudDbspace(
                USER_DBSPACE, io, self.key_cache,
                prefix_bits=cfg.prefix_bits, encryptor=encryptor,
                page_checksums=cfg.page_checksums,
            )
        if cfg.user_volume in ("ebs", "efs"):
            if cfg.user_volume == "ebs":
                profile = ebs_gp2(cfg.user_volume_size_bytes, name="user-gp2")
            else:
                profile = efs_standard(cfg.user_volume_size_bytes, name="user-efs")
            profile = scaled_profile(profile, cfg.rate_scale, cfg.op_scale)
            blocks = cfg.user_volume_size_bytes // self.page_config.block_size
            self.user_device = BlockDevice(
                profile,
                self.page_config.block_size,
                blocks,
                clock=self.clock,
                rng=self.rng.substream("user-device"),
            )
            return BlockDbspace(USER_DBSPACE, self.user_device)
        raise EngineError(
            f"unknown user volume kind {cfg.user_volume!r} "
            "(expected 's3', 'ebs' or 'efs')"
        )

    def _check_usable(self) -> None:
        if self.crashed:
            raise EngineError("the database is crashed; call restart() first")

    # ------------------------------------------------------------------ #
    # dbspace management
    # ------------------------------------------------------------------ #

    def create_cloud_dbspace(
        self,
        name: str,
        page_size: "Optional[int]" = None,
        profile: "Optional[ObjectStoreProfile]" = None,
        prefix_bits: "Optional[int]" = None,
    ) -> CloudDbspace:
        """CREATE DBSPACE ... USING OBJECT STORE: an additional bucket.

        The paper lets users mix dbspaces across providers and proposes
        per-dbspace page sizes as future work; both are supported here.
        The new dbspace shares the global key space (the Object Key
        Generator) and the node NIC, but has its own bucket (and optional
        page size and store profile — e.g. an Azure-Blob-like one).
        """
        self._check_usable()
        if name in self.node.dbspaces():
            raise EngineError(f"dbspace {name!r} already exists")
        if page_size is not None and (
            page_size <= 0 or page_size % 16 != 0
        ):
            raise EngineError("page size must be a positive multiple of 16")
        cfg = self.config
        store_profile = profile or ObjectStoreProfile(
            name=name,
            consistency=cfg.consistency,
            per_prefix_put_rate=3500.0 * cfg.op_scale,
            per_prefix_get_rate=5500.0 * cfg.op_scale,
        )
        store = SimulatedObjectStore(
            store_profile,
            clock=self.clock,
            rng=self.rng.substream(f"store/{name}"),
            bandwidth=self.nic,
            meter=self.meter,
        )
        client = RetryingObjectClient(
            store, policy=cfg.retry, parallel_window=cfg.parallel_window,
            node_id=cfg.node_id, breaker=cfg.breaker, hedge=cfg.hedge,
            rng=self.rng.substream(f"object-client/{name}"),
            coalesce_gets=cfg.coalesce_gets,
            coalesce_puts=cfg.coalesce_puts,
            verify_reads=cfg.verify_reads,
        )
        encryptor = (
            PageEncryptor(cfg.encryption_key)
            if cfg.encryption_key is not None
            else None
        )
        client.tracer = self.tracer
        store.tracer = self.tracer
        dbspace = CloudDbspace(
            name,
            DirectObjectIO(client),
            self.key_cache,
            prefix_bits=cfg.prefix_bits if prefix_bits is None else prefix_bits,
            encryptor=encryptor,
            page_size_limit=page_size,
            page_checksums=cfg.page_checksums,
        )
        self.node.add_dbspace(name, dbspace)
        self.txn_manager.register_gc_dbspace(name, dbspace)
        if self.snapshot_manager is not None:
            self.snapshot_manager.register_dbspace(name, dbspace)
        return dbspace

    def cloud_dbspaces(self) -> "Dict[str, CloudDbspace]":
        """All registered cloud dbspaces, by name."""
        return {
            name: store
            for name, store in self.node.dbspaces().items()
            if isinstance(store, CloudDbspace)
        }

    def page_size_for(self, dbspace: str) -> int:
        """Effective page size of a dbspace (its override or the default)."""
        store = self.node.dbspace(dbspace)
        return store.page_size_limit or self.page_config.page_size

    # ------------------------------------------------------------------ #
    # DDL and transactions
    # ------------------------------------------------------------------ #

    def create_object(self, name: str, dbspace: str = USER_DBSPACE) -> int:
        """Register a paged storage object (autocommitted, logged DDL)."""
        self._check_usable()
        if dbspace not in self.node.dbspaces():
            raise EngineError(f"unknown dbspace {dbspace!r}")
        object_id = self.catalog.register_object(name, dbspace)
        crash_point(CP_CREATE_OBJECT_BEFORE_LOG)
        self.log.append(
            OBJECT_CREATED,
            {"name": name, "dbspace": dbspace, "object_id": object_id},
        )
        return object_id

    def begin(self) -> Transaction:
        self._check_usable()
        return self.txn_manager.begin(self.node)

    def commit(self, txn: Transaction) -> None:
        self._check_usable()
        with self.tracer.span("commit", "engine", txn_id=txn.txn_id):
            self.txn_manager.commit(txn)

    def rollback(self, txn: Transaction) -> None:
        self._check_usable()
        self.txn_manager.rollback(txn)

    # ------------------------------------------------------------------ #
    # page-level convenience API
    # ------------------------------------------------------------------ #

    def open_for_read(self, txn: Transaction, name: str) -> ObjectHandle:
        return self.txn_manager.open_for_read(txn, name)

    def open_for_write(self, txn: Transaction, name: str) -> ObjectHandle:
        return self.txn_manager.open_for_write(txn, name)

    def write_page(self, txn: Transaction, name: str, page_no: int,
                   data: bytes) -> None:
        with self.tracer.span("write_page", "engine",
                              object=name, page_no=page_no):
            handle = self.open_for_write(txn, name)
            self.buffer.write_page(handle, page_no, data)

    def read_page(self, txn: Transaction, name: str, page_no: int) -> bytes:
        with self.tracer.span("read_page", "engine",
                              object=name, page_no=page_no):
            handle = self.open_for_read(txn, name)
            return self.buffer.get_page(handle, page_no)

    def prefetch(self, txn: Transaction, name: str,
                 page_nos: "List[int]") -> int:
        with self.tracer.span("prefetch", "engine",
                              object=name, pages=len(page_nos)):
            handle = self.open_for_read(txn, name)
            return self.buffer.prefetch(handle, page_nos,
                                        window=self.config.parallel_window)

    # ------------------------------------------------------------------ #
    # checkpointing, crash, restart
    # ------------------------------------------------------------------ #

    def _freelists(self) -> "Dict[str, bytes]":
        freelists = {SYSTEM_DBSPACE: self.system_dbspace.freelist.to_bytes()}
        if isinstance(self.user_dbspace, BlockDbspace):
            freelists[USER_DBSPACE] = self.user_dbspace.freelist.to_bytes()
        return freelists

    def checkpoint(self) -> None:
        """Persist recovery state: catalog, freelists, keygen, chain."""
        self._check_usable()
        freelist_objects = {SYSTEM_DBSPACE: self.system_dbspace.freelist}
        if isinstance(self.user_dbspace, BlockDbspace):
            freelist_objects[USER_DBSPACE] = self.user_dbspace.freelist
        state = encode_checkpoint(
            self.catalog,
            self.keygen,
            freelist_objects,
            self.txn_manager.chain_state(),
            self.txn_manager.commit_seq,
        )
        crash_point(CP_CHECKPOINT_BEFORE_WRITE)
        self.log.checkpoint(state)

    def crash(self) -> None:
        """Simulate a node crash: volatile state vanishes, storage survives.

        Only transactions running *on this node* abort; in a multiplex,
        secondary nodes' transactions survive a coordinator crash and are
        re-adopted after recovery (Table 1, clocks 110-130).
        """
        if self.crashed:
            raise EngineError("the database is already crashed")
        for txn in self.txn_manager.active_transactions():
            if txn.node_id == self.config.node_id:
                self.txn_manager.abort_in_crash(txn)
        self.node.invalidate_caches()
        if self.ocm is not None:
            self.ocm.invalidate_all()
        self.key_cache.drop_cached_range()
        self.crashed = True

    def crash_from(self, exc: SimulatedCrash) -> None:
        """Translate a fired crash point into ordinary crash semantics.

        Idempotent over an already-crashed node: a point that fires during
        recovery (restart GC, checkpoint) leaves the node crashed again
        only if it had already been marked healthy.
        """
        self.last_crash_point = exc.point
        if not self.crashed:
            self.crash()

    def restart(self) -> None:
        """Crash recovery: checkpoint + log replay + restart GC."""
        if not self.crashed:
            raise EngineError("restart() is only valid after crash()")
        span = self.tracer.begin("replay", "recovery")
        recovered = recover(self.log)
        self.tracer.finish(
            span,
            replayed_commits=recovered.replayed_commits,
            replayed_allocations=recovered.replayed_allocations,
        )
        self.catalog = recovered.catalog
        self.keygen = recovered.keygen
        if SYSTEM_DBSPACE in recovered.freelists:
            self.system_dbspace.freelist = recovered.freelists[SYSTEM_DBSPACE]
        if (
            isinstance(self.user_dbspace, BlockDbspace)
            and USER_DBSPACE in recovered.freelists
        ):
            self.user_dbspace.freelist = recovered.freelists[USER_DBSPACE]
        self.key_cache = NodeKeyCache(
            self.config.node_id, self.keygen.allocate_range, self.clock.now
        )
        if isinstance(self.user_dbspace, CloudDbspace):
            self.user_dbspace.key_source = self.key_cache
        self.txn_manager = TransactionManager(
            self.catalog,
            self.log,
            keygen=self.keygen,
            gc_dbspaces=self.node.dbspaces(),
            snapshot_manager=self.snapshot_manager,
            identity_write_cost=lambda: self.system_device.charge_write(256),
        )
        self.txn_manager.restore_chain(
            [entry.to_payload() for entry in recovered.chain_entries]
        )
        self.crashed = False
        crash_point(CP_RESTART_BEFORE_GC)
        self._restart_gc()
        self.checkpoint()

    def _restart_gc(self) -> int:
        """Poll and reclaim this node's outstanding key allocations.

        The key space is global across cloud dbspaces, so every cloud
        bucket is polled for each outstanding key.  The active set is
        cleared only *after* every key was polled: clearing first would
        lose the remaining keys forever if the node died mid-poll, since
        the cleared set exists only in coordinator memory (polls are
        idempotent, so re-polling after another crash is safe).
        """
        active = self.keygen.active_set(self.config.node_id)
        stores = list(self.cloud_dbspaces().values())
        reclaimed = 0
        polled = 0
        if active.key_count():
            self._fence_in_flight_writes(stores)
        with self.tracer.span("restart_gc", "recovery",
                              node=self.config.node_id):
            for lo, hi in active.intervals():
                for key in range(lo, hi + 1):
                    crash_point(CP_RESTART_GC_MID_POLL)
                    polled += 1
                    for store in stores:
                        if store.poll_and_free(key):
                            reclaimed += 1
            self.keygen.clear_active_set(self.config.node_id)
        self.metrics.counter("restart_gc_polled_keys").increment(polled)
        return reclaimed

    def _fence_in_flight_writes(self, stores: "List[CloudDbspace]") -> None:
        """Wait out every accepted-but-unsettled store request.

        Polling before a dead node's in-flight puts have settled lets a
        late-completing put outrun the poll's blind delete under
        last-writer-wins, resurrecting the orphan.  Restart GC therefore
        fences: the clock advances past the stores' write horizon so the
        deletes it issues are unambiguously last.
        """
        horizon = 0.0
        for dbspace in stores:
            store = getattr(dbspace.io, "client", None)
            store = getattr(store, "store", None)
            if store is not None and hasattr(store, "write_horizon"):
                horizon = max(horizon, store.write_horizon())
        if horizon > self.clock.now():
            self.clock.advance_to(horizon + 1e-6)

    # ------------------------------------------------------------------ #
    # snapshots & point-in-time restore
    # ------------------------------------------------------------------ #

    def create_snapshot(self) -> Snapshot:
        """Near-instantaneous snapshot: metadata only (Section 5)."""
        self._check_usable()
        if self.snapshot_manager is None:
            raise EngineError(
                "snapshots need retention_seconds > 0 in DatabaseConfig"
            )
        snapshot = self.snapshot_manager.create_snapshot(
            self.catalog.to_bytes(),
            self.keygen.max_allocated_key,
            self._freelists(),
            max_consumed_key=self.key_cache.last_consumed,
        )
        crash_point(CP_SNAPSHOT_BEFORE_LOG)
        self.log.append(
            SNAPSHOT_CREATED,
            {
                "snapshot_id": snapshot.snapshot_id,
                "max_allocated_key": snapshot.max_allocated_key,
            },
        )
        crash_point(CP_SNAPSHOT_AFTER_LOG)
        # Charge the small metadata backup (system dbspace write).
        self.system_device.charge_write(
            len(snapshot.catalog_bytes) + len(snapshot.snapmgr_metadata)
        )
        return snapshot

    def restore_snapshot(self, snapshot_id: int) -> None:
        """Point-in-time restore to a snapshot within the retention period."""
        self._check_usable()
        if self.snapshot_manager is None:
            raise EngineError("no snapshot manager configured")
        snapshot = self.snapshot_manager.get_snapshot(snapshot_id)
        for txn in self.txn_manager.active_transactions():
            self.txn_manager.rollback(txn)
        current_max = self.keygen.max_allocated_key
        self.catalog = Catalog.from_bytes(snapshot.catalog_bytes)
        # Thanks to monotonic allocation, keys consumed after the snapshot
        # all lie above the snapshot's consumption floor; poll them for GC,
        # skipping anything the restored catalog or the snapshot's captured
        # retention FIFO still references.  The FIFO switch itself is a
        # durable-metadata write and happens only after the polls: a crash
        # at the point below recovers to the pre-restore state with the
        # pre-restore FIFO fully intact, so nothing leaks.
        cloud_stores = self.cloud_dbspaces()
        if cloud_stores:
            crash_point(CP_RESTORE_BEFORE_POLL)
            keep = self._reachable_cloud_keys()
            for __, locator, __expiry in SnapshotManager.decode_metadata(
                snapshot.snapmgr_metadata
            ):
                keep.add(locator)
            floor = snapshot.max_consumed_key or snapshot.max_allocated_key
            for key in range(floor + 1, current_max + 1):
                if key in keep:
                    continue
                for store in cloud_stores.values():
                    store.poll_and_free(key)
        self.snapshot_manager.restore_metadata(snapshot.snapmgr_metadata)
        for name, payload in snapshot.freelists.items():
            from repro.blockstore.freelist import Freelist

            if name == SYSTEM_DBSPACE:
                self.system_dbspace.freelist = Freelist.from_bytes(payload)
            elif name == USER_DBSPACE and isinstance(self.user_dbspace, BlockDbspace):
                self.user_dbspace.freelist = Freelist.from_bytes(payload)
        self.txn_manager = TransactionManager(
            self.catalog,
            self.log,
            keygen=self.keygen,
            gc_dbspaces=self.node.dbspaces(),
            snapshot_manager=self.snapshot_manager,
            identity_write_cost=lambda: self.system_device.charge_write(256),
        )
        self.node.invalidate_caches()
        self.checkpoint()

    def open_snapshot_view(self, snapshot_id: int) -> "SnapshotView":
        """A read-only, query-capable view over a past snapshot.

        The paper lists read-only views over snapshots (without restoring
        the database) as future work; retention makes them possible: every
        page a live snapshot references is still on the object store.  The
        view is a session-like object usable with
        :class:`~repro.columnar.query.QueryContext`.
        """
        self._check_usable()
        if self.snapshot_manager is None:
            raise EngineError("no snapshot manager configured")
        snapshot = self.snapshot_manager.get_snapshot(snapshot_id)
        return SnapshotView(self, snapshot)

    def _reachable_cloud_keys(self) -> "set[int]":
        """Object keys reachable from the current catalog (metadata walk)."""
        keep: "set[int]" = set()
        for identity in self.catalog.all_identities():
            try:
                store = self.node.dbspace(identity.dbspace)
            except KeyError:
                continue
            if not store.is_cloud or identity.root_locator == NULL_LOCATOR:
                continue
            blockmap = Blockmap(
                store,
                root_locator=identity.root_locator,
                height=identity.height,
            )
            for locator in blockmap.live_locators():
                if is_object_key(locator):
                    keep.add(locator)
        return keep

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def user_data_bytes(self) -> int:
        """Compressed bytes at rest in the user dbspace."""
        return self.user_dbspace.stored_bytes()

    def monthly_storage_cost(self) -> float:
        """USD per month for the user dbspace's data at rest (Table 4)."""
        volume = {"s3": "s3", "ebs": "ebs-gp2", "efs": "efs"}[
            self.config.user_volume
        ]
        return self.meter.storage_monthly_cost(volume, self.user_data_bytes())

    def stats(self) -> "Dict[str, object]":
        out: Dict[str, object] = {
            "clock_seconds": self.clock.now(),
            "buffer": self.buffer.stats(),
            "txn": dict(self.txn_manager.stats),
            "user_data_bytes": self.user_data_bytes(),
        }
        if self.ocm is not None:
            out["ocm"] = self.ocm.stats()
        if self.object_store is not None:
            out["object_store"] = self.object_store.metrics.snapshot()
        return out
