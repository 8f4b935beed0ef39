(** Arena: the per-core allocation domain (section 4.2).

    Each arena owns, under one lock:
    - a slab freelist per size class (slabs with free blocks);
    - the slab LRU list scanned head-to-tail for morphing candidates;
    - a large allocator ({!Extent}) from which slabs and large extents
      are carved;
    - a WAL and (when log-structured bookkeeping is on) a bookkeeping log.

    Thread-local tcaches sit above the arena: {!alloc_small} serves from
    the calling thread's tcache and only takes the arena lock to refill;
    {!free_small} pushes into the tcache and only locks to return blocks
    to their slab on overflow. This mirrors the paper's design, including
    its scalability limits (cross-thread frees serialize on the owning
    arena, which is why PAllocator's per-thread allocators beat NVAlloc
    at 64 threads on eADR, section 6.7).

    The module implements the three metadata protocols:
    - NVAlloc-LOG: every bitmap transition is WAL-logged and flushed
      (entry kinds and the checkpoint rule are documented in {!Wal});
    - NVAlloc-GC: no flushes for small-allocation metadata; the volatile
      image is rebuilt by post-crash GC;
    - slab morphing (section 5.2): a three-step, flag-guarded header
      transformation allowing a mostly-empty slab to change size class
      while its surviving old-class blocks are tracked in the index
      table. *)

type t

val mapping_of_config : Config.t -> Bitmap.mapping
(** The slab bitmap mapping [Config.bit_stripes] selects: sequential for
    one stripe, interleaved otherwise. *)

val wal_group : Config.t -> int
(** WAL group-commit size for an arena's ring: 8 entries under the
    log-based variant with [Config.batch] on, 0 (every append commits
    synchronously) otherwise. *)

val create :
  Heap.t ->
  index:int ->
  region_lock:Sim.Lock.t ->
  on_slab_created:(Slab.t -> unit) ->
  on_slab_destroyed:(Slab.t -> unit) ->
  on_extent_created:(Extent.veh -> int -> unit) ->
  on_extent_dropped:(Extent.veh -> int -> unit) ->
  t
(** The callbacks maintain the owner's global address index ([int] is the
    arena index). *)

val of_recovered :
  Heap.t ->
  index:int ->
  region_lock:Sim.Lock.t ->
  booklog:Booklog.t option ->
  wal:Wal.t ->
  on_slab_created:(Slab.t -> unit) ->
  on_slab_destroyed:(Slab.t -> unit) ->
  on_extent_created:(Extent.veh -> int -> unit) ->
  on_extent_dropped:(Extent.veh -> int -> unit) ->
  t
(** Build an arena around recovered persistent structures (recovery
    constructs the booklog/WAL handles itself). *)

val index : t -> int

val set_telemetry : t -> Telemetry.t option -> unit
(** Attach/detach a telemetry sink: tcache refills, slab morphs, WAL
    appends and WAL checkpoints become regions (["refill"], ["morph"],
    ["wal:append"], ["wal:checkpoint"]) — a span, a latency histogram
    and, with attribution on, a blame frame each — and contended
    acquires of the arena lock charge [lock_wait]. Emission never
    charges simulated time; detached costs one compare per operation. *)

val lock : t -> Sim.Lock.t
val wal : t -> Wal.t
val large : t -> Extent.t

val register_tcaches : t -> Tcache.t array -> unit
(** Announce a thread's tcaches so WAL checkpoints can drain them. *)

val set_peers : t -> t array -> unit
(** Give this arena the heap's full arena array (self included, indexed
    by arena index). Tcache entries can hold foreign-arena blocks — a
    cross-arena free parks the block in the freeing thread's tcache — and
    a drain returns each block through the slab's owning arena (under its
    lock), so empty-slab destruction releases the extent into the right
    arena's allocator. Without peers a drain falls back to the draining
    arena, which is only correct for single-arena heaps. *)

val alloc_small : t -> Sim.Clock.t -> tcaches:Tcache.t array -> class_idx:int -> int
(** Returns the block's {e address}; the caller publishes the
    user pointer and writes the WAL [Alloc] entry (it knows [dest]).
    Addresses (not indices) are the stable currency because a slab can
    morph while blocks sit in tcaches. *)

val free_small :
  t ->
  Sim.Clock.t ->
  tcaches:Tcache.t array ->
  Slab.t ->
  addr:int ->
  dest:int ->
  int
(** [addr] is the block's address inside [slab] (current or old class;
    morphing is resolved here). [t] must be the slab's owning arena; the
    tcache is the freeing thread's; [dest] is recorded in the WAL [Free]
    entry so recovery can also clear a dangling user pointer. Returns the
    [Free] entry's offset (-1 when none was logged) so the caller's
    destination-clear commit can declare it as a dependency. *)

val log_op : t -> Sim.Clock.t -> Wal.kind -> addr:int -> dest:int -> int
(** Append a WAL entry (checkpointing first if the ring is full).
    [Large_*] kinds are logged in both variants, small kinds only under
    [Log_based] consistency. Returns the entry's offset when appended,
    -1 otherwise. *)

val wal_dep : t -> Wal.kind -> int -> (string * Pstruct.span) list
(** Dependency list for {!Pstruct.commit} naming the WAL entry at the
    given offset. Empty when no entry was appended (offset -1), and empty
    unless the device's persist-ordering checker is on: outside check
    mode nobody reads it, so the hot path builds nothing. *)

val malloc_large : t -> Sim.Clock.t -> size:int -> Extent.veh
val free_large : t -> Sim.Clock.t -> Extent.veh -> unit

val async_checkpoint_tick : t -> Sim.Clock.t -> bool
(** Background-checkpoint poll: when [Config.batch] is on and this
    arena's WAL is at least half full, take the arena lock and
    checkpoint. Returns whether a checkpoint ran. Driven off the
    critical path by the workload driver's daemon thread so foreground
    appends rarely hit a full ring. *)

val return_entry : t -> Sim.Clock.t -> Slab.t -> int -> unit
(** Return the block at this address to its slab's free set: an
    old-class block of a morphing slab is released against the index
    table; any other block has its bitmap bit cleared, except under
    internal collection, where the block was a tcache entry with no bit.
    A quarantined slab swallows the block and counts it. Tcache drains
    and recovery's releases of leaked blocks go through here; [t] must
    be the slab's owning arena. *)

val drain_all_tcaches : t -> Sim.Clock.t -> unit
(** Return every tcache-resident block to its slab (shutdown path). *)

val adopt_slab_veh : t -> Extent.veh -> unit
(** Recovery hook: remember the extent backing a slab (before
    {!restore_slab}). *)

val restore_slab : t -> Slab.t -> unit
(** Recovery hook: adopt a rebuilt vslab into freelists/LRU;
    {!adopt_slab_veh} must have been called for its extent. *)

val iter_slabs : t -> (int -> Slab.t -> unit) -> unit
(** All live slabs of this arena, each with its base address (for tests
    and recovery sweeps). *)

val recover_rebuild_slab : t -> Sim.Clock.t -> Slab.t -> live:(int -> bool) -> int
(** GC-variant recovery: rebuild a slab's bitmap and free list wholesale
    from the conservative-GC mark predicate (morph-pinned blocks stay
    allocated). Returns how many stale-allocated blocks were released. *)

val live_small_blocks : t -> int
(** Allocated-block count over all slabs, tcache-resident blocks
    excluded (test observability). *)

(** {1 Media quarantine} *)

val quarantine_slab : t -> Slab.t -> unit
(** Withdraw a slab with an unrepairable header: out of the freelists,
    the LRU and the slab table, backing extent kept (the range is never
    reissued), future frees into it swallowed and counted. *)

val dropped_frees : t -> int
(** Frees swallowed because their slab was quarantined. *)

val find_slab : t -> int -> Slab.t option
(** Look up a live (non-quarantined) vslab by base address. *)
