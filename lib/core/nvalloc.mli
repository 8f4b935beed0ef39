(** NVAlloc: the public allocator API (section 4.1).

    The programming model follows the paper: [create] ~ [nvalloc_init],
    [exit_] ~ [nvalloc_exit], and the leak-free allocation pair
    {!malloc_to}/{!free_from}, which atomically allocate an object and
    publish its address at a caller-chosen persistent location ([dest]) —
    typically a slot of the built-in root table, or a word inside another
    persistent object (e.g. a linked-list next pointer). Addresses are
    device offsets, which is exactly the offset-based pointer
    representation the paper uses to survive remapping.

    Consistency comes in the two variants of Table 2, selected by
    {!Config.consistency}: NVAlloc-LOG (WAL on every small-allocator
    metadata change) and NVAlloc-GC (no small-metadata flushes,
    post-crash conservative GC).

    Threads are logical simulation threads: {!thread} registers one,
    assigning it to the arena with the fewest threads and building its
    tcaches. All operations take the thread handle, whose clock absorbs
    the simulated latency. *)

type t
type thread

type recovery_report = {
  found_state : Heap.state;  (** flag found at open: Shutdown = clean *)
  wal_entries_replayed : int;
  torn_wal_skipped : int;
      (** WAL entries of the current epoch rejected by their checksum —
          records observed half-written by a torn in-flight store *)
  wal_entries_undone : int;
      (** blocks/extents whose leak was resolved by WAL replay (LOG) *)
  torn_slab_creations : int;
      (** slab extents whose bookkeeping entry persisted but whose header
          flush did not; their extents are reclaimed *)
  leaked_blocks_reclaimed : int;  (** small blocks freed by the sanity pass *)
  leaked_extents_reclaimed : int;
  gc_blocks_marked : int;  (** conservative-GC marks (GC variant only) *)
  booklog_entries : int;  (** live bookkeeping entries recovered *)
  media_repairs : int;
      (** guarded records healed from their replica during this recovery
          (superblock, region-table lines, log headers, slab headers) *)
  quarantined_slabs : int;
      (** slabs whose header lost both copies: no vslab is built, the
          range is withdrawn and owner queries keep answering for it *)
  quarantined_bytes : int;
}

val pp_recovery_report : Format.formatter -> recovery_report -> unit
(** One-line diagnostic rendering, so oracle/fuzzer failures are
    explainable. *)

val create : ?config:Config.t -> ?mutation:Mutation.t -> Pmem.Device.t -> Sim.Clock.t -> t
(** Format a fresh heap on the device ([nvalloc_init]). Default config is
    {!Config.log_default}. [mutation] (default [Off]) seeds one protocol
    bug into this heap alone: its WALs, slab-header decoder and scrubber
    all read it from the heap. Raises [Invalid_argument] on a config
    rejected by {!Config.validate}. *)

val recover :
  ?config:Config.t -> ?mutation:Mutation.t -> Pmem.Device.t -> Sim.Clock.t -> t * recovery_report
(** Open an existing heap (section 4.4): {!decode} it, then — if the
    shutdown was not clean — apply the variant's sanity pass, WAL replay
    (LOG) or conservative GC from the root table (GC), as a {!decide}d
    plan, then a plan of the destinations whose free persisted. All scan
    and repair latency is charged to the clock, which is how Figure 18's
    recovery times are measured.

    Recovery is {e idempotent}: the WAL windows are invalidated only
    after the sanity pass completes, every repair re-applies cleanly, and
    the heap state flips to [Running] last — so a crash at any flush
    point {e inside} recovery (including an injected one) leaves an image
    from which a second [recover] reaches the same consistent state.
    [mutation] is carried by the recovered heap, as for {!create}. *)

type decoded
(** A persisted image as {!recover} read it: the allocator rebuilt from
    it, its WAL windows and, under NVAlloc-GC, the mark from the roots. *)

(** One step of a recovery plan. *)
type step =
  | Release of { slab : Slab.t; addr : int; dest : int }
      (** clear [dest] if it names [addr], then {!Arena.return_entry} *)
  | Free_large of { arena : int; veh : Extent.veh; dest : int }
      (** clear [dest] likewise, then {!Arena.free_large} *)
  | Rebuild of Slab.t  (** rebuild the slab's bitmap from the GC mark *)
  | Clear of { dest : int; addr : int }  (** clear a lone destination *)
  | Search  (** charge one owner-index search *)

val decode : ?config:Config.t -> ?mutation:Mutation.t -> Pmem.Device.t -> Sim.Clock.t -> decoded
(** {!recover}'s reads, repairs and rebuilds, charged as there. It leaves
    the [recovery] telemetry regions open for {!recover} to close. *)

val decide : decoded -> step list
(** The sanity pass's plan: empty after a clean shutdown and under
    internal collection. Reads without charging; writes nothing. *)

val check_plan : step list -> unit
(** Raises [Failure] naming both steps if the plan releases one block
    (slab, grid, index) twice; recovery checks each plan it applies. *)

val exit_ : t -> Sim.Clock.t -> unit
(** Clean shutdown: drain tcaches, persist all volatile metadata, mark
    the heap [Shutdown]. The handle must not be used afterwards. *)

val config : t -> Config.t
(** The configuration the heap runs: the one given to {!create} or
    {!recover}, with [batch] off on an eADR device. *)

val device : t -> Pmem.Device.t
val heap : t -> Heap.t

val thread : t -> Sim.Clock.t -> thread

val root_addr : t -> int -> int
(** Address of root-table slot [i] (use as [dest]). *)

val root_slots : t -> int

val malloc_to : t -> thread -> size:int -> dest:int -> int
(** Allocate [size] bytes, persistently publish the block's address at
    [dest], return the address. Small requests (<= 16 KB) go through the
    slab allocator; larger ones through the extent allocator. *)

val free_from : t -> thread -> dest:int -> unit
(** Read the address stored at [dest], free the object, and clear
    [dest]. Raises [Invalid_argument err_free_unpublished] when [dest]
    holds no published address (never-published or already-freed slot);
    the baselines raise the identical message, so the error is uniform
    across every allocator. A free into a quarantined range is swallowed
    (counted in {!dropped_frees}) and only the publication retracted —
    graceful degradation, never an error. *)

val err_free_unpublished : string
(** The exact [Invalid_argument] message raised by a free of an
    unpublished destination slot, shared with the baseline engines. *)

val read_ptr : t -> dest:int -> int
(** The address stored at [dest] (0 = null). *)

(** {1 Observability (tests, benchmarks)} *)

val mapped_bytes : t -> int
val peak_mapped_bytes : t -> int
val reset_peak : t -> unit
val stats : t -> Pmem.Stats.t
val allocated_small_blocks : t -> int
(** Blocks marked allocated across all slabs (tcache-resident included). *)

val metadata_bytes : t -> int
(** Bytes of per-object heap metadata currently resident: each live
    slab's header area (packed header line, bitmaps, morph index table —
    everything below [Slab.data_off]) plus the in-place VEH slot tables
    at the head of mapped regions. Fixed-size arena structures (WAL,
    bookkeeping log) are excluded: they do not scale with live objects. *)

type owner_info = { base : int; size : int; is_slab : bool }

val owner_of_addr : t -> int -> owner_info option
(** The slab or large extent containing the address, if any (test
    observability; no latency charged). Quarantined ranges report as
    slabs: the allocator still owns them. *)

val check_owner_index : t -> (string, string) result
(** Validate that owners in the index are disjoint (test invariant). *)

val iter_slabs : t -> (Slab.t -> unit) -> unit

val iter_allocated : t -> (addr:int -> size:int -> unit) -> unit
(** Enumerate every allocated object (small blocks, morph-carried
    old-class blocks, large extents). This is the PMDK
    [POBJ_FIRST]/[POBJ_NEXT] idiom that the internal-collection variant
    relies on: after a crash the application walks its objects and frees
    the ones it no longer references. In the internal-collection variant
    the enumeration is exact (tcache-resident blocks are unmarked); in
    NVAlloc-LOG it may transiently include tcache-resident blocks. *)

val arenas : t -> Arena.t array

val integrity_walk : t -> Sim.Clock.t -> (string, string) result
(** Deep heap-integrity walk over the persistent image and the volatile
    bookkeeping, for the model checker (lib/check) and tests. Two passes:
    structural invariants with tcaches live (owner-index disjointness;
    per-slab free-stack/bitmap agreement, persisted header fields matching
    the volatile layout, morph flag at rest; morph index-table entries
    matching the volatile old-block set, recomputed pin counts and pinned
    bits), then a {e quiescing} pass — every tcache drained and every WAL
    checkpointed under the arena lock, charging the clock like a shutdown
    would — after which each WAL must be empty and the structural
    invariants must still hold with zero tcache residents. [Ok summary]
    on success, [Error diagnostic] naming the first violated invariant.
    The drain mutates the heap (tcaches empty afterwards); run it after
    the workload, not concurrently with one. *)

val slab_utilization_histogram : t -> buckets:float list -> int array
(** Count slabs by occupancy ratio bucket; [buckets] are the upper bounds
    (e.g. [[0.3; 0.7; 1.0]] for the Figure 15(b) breakdown). *)

(** {1 Media faults (robustness layer)}

    Only meaningful under [Config.media_replication]. Every critical
    metadata record (superblock, region-table lines, WAL/booklog
    headers, slab headers) carries a {!Guard} checksum-plus-replica
    pair; poisoned or rotten copies are healed on demand (a one-integer
    gate on every [malloc_to]/[free_from] maps outstanding poisoned
    lines to their records and repairs them, up to 3 attempts per
    record), pre-emptively by {!scrub}, and at
    {!recover} time before any header is decoded. A slab header that
    loses {e both} copies is quarantined: its capacity is withdrawn,
    live blocks are written off, frees into the range are swallowed, and
    allocation continues degraded. *)

val scrub : t -> Sim.Clock.t -> int * int
(** One scrub pass over every guarded record: rewrite at-rest bit-rot
    from the verified cached image, verify/repair each checksum pair,
    quarantine slabs that lost both copies. [(repaired, lost)]. Under
    [Mutation.Scrub] a damaged primary is blessed (its checksum
    recomputed over the corrupt bytes) instead of repaired. *)

val scrub_tick : t -> Sim.Clock.t -> bool
(** Idle-slot hook ([Instance.maintenance]): run {!scrub} if
    [Config.media_scrub] is on and 1 ms of simulated time has elapsed
    since the last pass. Returns whether a pass ran. *)

val quarantined_slabs : t -> int
val quarantined_bytes : t -> int

val dropped_frees : t -> int
(** Frees swallowed into quarantined slabs/ranges since creation. *)

val seed_poison : t -> seed:int -> count:int -> int
(** Deterministically poison up to [count] guarded metadata lines —
    never both copies of one record, so every seeded fault is
    repairable. Returns the number of lines poisoned. *)

val inject_bitrot : t -> seed:int -> flips:int -> int
(** Deterministic at-rest bit flips over guarded byte spans (one copy
    per record), in the persisted image only. Returns flips applied. *)

(** {1 Telemetry} *)

val set_telemetry : t -> Telemetry.t option -> unit
(** Attach one sink to the whole stack: the device (flush/fence
    leaves, WPQ depth and group-commit samples), every arena
    (refill/morph/WAL regions), the locks ([lock_wait] charges) and the
    allocator itself (root regions ["malloc:small"], ["malloc:large"]
    and ["free"]). Emission never charges simulated time; [None]
    detaches everywhere. *)

val telemetry_snapshot : t -> ts:int -> unit
(** Emit one heap-introspection snapshot at simulated time [ts] on the
    {!Telemetry.snapshot_tid} track of the attached sink: per-size-class
    slab counts and mean occupancy, free/full/partial slab counts,
    extent activated / reclaimed / retained bytes and fragmentation
    ratio, mapped bytes. Read-only; charges nothing; a no-op with no
    sink attached. *)
