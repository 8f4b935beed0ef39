(** NVAlloc configuration.

    One record gathers every tunable the paper discusses, so the Figure 11
    ablations (Base / +Interleaved / +Log / full) and the Figure 15/16
    sensitivity studies are just different configurations of the same
    allocator. *)

type consistency =
  | Log_based  (** NVAlloc-LOG: WAL flushed on every small alloc/free *)
  | Gc_based
      (** NVAlloc-GC: no WAL and no metadata flushes for small
          allocations; post-crash conservative GC rebuilds metadata *)
  | Internal_collection
      (** NVAlloc-IC, the paper's stated future-work variant (sections
          4.1 and 7), modelled on PMDK's non-transactional atomic
          allocations: no WAL for small objects; the persistent bitmap
          marks exactly the user-allocated blocks, so after a crash the
          application enumerates its objects ([Nvalloc.iter_allocated],
          the POBJ_FIRST/POBJ_NEXT idiom) and resolves in-flight
          allocations itself. *)

type t = {
  consistency : consistency;
  bit_stripes : int;
      (** Bit stripes of the interleaved slab-bitmap mapping (section 5.1).
          [1] selects the sequential baseline mapping. Default 6. *)
  interleave_tcache : bool;  (** interleaved sub-tcache layout (section 5.1) *)
  interleave_logs : bool;
      (** interleaved mapping of WAL and bookkeeping-log entries *)
  slab_morphing : bool;  (** slab morphing (section 5.2) *)
  morph_su_threshold : float;
      (** Space-utilisation threshold SU below which a slab may morph;
          default 0.20 (section 6.5). *)
  log_bookkeeping : bool;
      (** Log-structured bookkeeping for large allocations (section 5.3);
          when off, extent metadata is updated in place in per-region
          header space, as the Base version and the baselines do. *)
  booklog_gc : bool;  (** run fast/slow GC on the bookkeeping log *)
  booklog_chunks : int;  (** per-arena bookkeeping-log capacity, in 1 KB chunks *)
  wal_entries : int;  (** per-arena WAL ring capacity (multiple of 64) *)
  booklog_slow_gc_threshold : float;
      (** Usage_pmem: fraction of chunks in use that triggers slow GC. *)
  tcache_capacity : int;  (** blocks cached per thread per size class *)
  arenas : int;  (** number of arenas = simulated CPU cores *)
  decay_interval_ns : int;  (** decay tick, 50 ms as in jemalloc *)
  decay_window_ns : int;  (** full smootherstep decay horizon *)
  root_slots : int;  (** persistent root-table entries *)
  batch : bool;
      (** The batched persistence pipeline, on or off as a whole
          (default on):
          - flush coalescing: [Device.flush] calls are absorbed into a
            per-thread pending buffer, deduplicated per cache line, and
            drained in one burst under a single fence at the next
            ordering point;
          - WAL group commit (log-based variant only): up to 8 small-op
            appends share one commit record and one fence triple
            ([Arena.wal_group]);
          - background checkpointing: a workload driver's maintenance
            thread checkpoints any arena whose WAL is at least half full,
            off the hot path (the inline near-full checkpoint still
            guards the ring).
          Off is the synchronous pipeline, one flush + fence per commit
          site: the CLI's [--no-batch], and what eADR devices run. *)
  media_replication : bool;
      (** Maintain a mirrored replica (plus content checksum) of each
          critical metadata record — slab headers, region-table lines,
          WAL/booklog headers, the superblock — on a distinct cache line,
          and repair damaged primaries from it on [Media_error] or
          checksum mismatch. Requires [log_bookkeeping] (slab-header
          verification needs the log's authoritative extent kinds).
          Default off: the checksums are still written (they ride inside
          already-committed lines for free) but nothing verifies or
          replicates. *)
  media_scrub : bool;
      (** Background scrub: [Instance.maintenance] idle slots walk the
          metadata records verifying checksums and pre-emptively
          repairing rot, at most one pass per simulated millisecond.
          Requires [media_replication]. Default off. *)
  slo_targets : (string * float * float) list;
      (** Declared SLO targets for latency attribution, as
          [(op class, target ns, goal)]: [goal] is the fraction of ops
          expected within the target (must be inside (0, 1)), so the
          error budget is [1 - goal] and [nvalloc-cli slo] reports the
          burn rate as violating-fraction / budget. Op classes are the
          attribution root frames ([malloc:small], [malloc:large],
          [free], [recovery]). Purely observational: the allocator never
          reads these. *)
}

val validate : ?dev_size:int -> t -> unit
(** Reject nonsensical configurations (zero arenas, too-small WAL ring,
    empty root table, scrubbing without replication, ...) with a
    descriptive [Invalid_argument] naming the offending field, instead of
    failing deep inside [Arena]/[Wal]. [dev_size], when given, also
    rejects [media_replication] on a device too small to hold the
    replicas. Called by [Nvalloc.create] and [Nvalloc.recover]. *)

val log_default : t
(** NVAlloc-LOG with every optimisation on (stripes = 6, SU = 20%). *)

val gc_default : t
(** NVAlloc-GC with every optimisation on. *)

val ic_default : t
(** NVAlloc-IC (internal collection) with every optimisation on. *)

val base : consistency -> t
(** The Figure 11 "Base" version: no interleaving anywhere, in-place
    bookkeeping, no morphing. *)

val with_interleaved_tcache : t -> t
(** Base + interleaved tcache layout only ("+Interleaved"). *)

val with_log_bookkeeping : t -> t
(** Base + log-structured bookkeeping only ("+Log"). *)
