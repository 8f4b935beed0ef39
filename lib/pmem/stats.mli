(** Counters and time accounting for one allocator instance.

    The paper's evaluation needs three kinds of observability:
    - flush classification counts (Figure 1a: reflush vs regular flush);
    - a trace of the first flush addresses of metadata (Figure 2);
    - execution-time breakdown by category (Figure 11: FlushMeta,
      FlushWAL, Search, Other — we additionally separate the bookkeeping
      log as FlushLog and user payload as FlushData).

    Every count and non-flush time is one {!counter} in one table:
    {!create}, {!reset}, {!to_json} and {!pp_summary} read the table, so
    a new counter is one constructor and one JSON name. *)

type category = Meta | Wal | Log | Data
(** What a flush persists. [Meta] — slab bitmaps / headers / extent
    headers; [Wal] — write-ahead-log entries; [Log] — the log-structured
    bookkeeping log; [Data] — user payload (root pointers, object bodies). *)

type work = Search | Other
(** CPU-side time categories for the breakdown. *)

(** The counters, in {!to_json} order. Times are whole simulated ns. *)
type counter =
  | Flushes  (** Flush operations, reflushes included ({!record_flush}). *)
  | Reflushes
  | Sequential_flushes
  | Random_flushes
  | Fence_ns
  | Read_ns  (** PM media reads. *)
  | Search_ns  (** {!work} [Search]. *)
  | Other_ns  (** {!work} [Other]. *)
  | Fences_saved
      (** Fence charges avoided: a single drain persisted what [n+1]
          synchronous commit sites would each have fenced for. *)
  | Flushes_coalesced
      (** Deferred flushes deduplicated against a line already pending (or
          already persisted by the time its batch drained). *)
  | Group_commits  (** Closed WAL groups. *)
  | Group_commit_entries  (** Appends those groups covered. *)
  | Poison_hits  (** Reads that touched a poisoned line ([Device.Media_error]). *)
  | Media_repairs
      (** Damaged metadata records rewritten from their replica (or
          replicas re-synced from a healthy primary). *)
  | Media_quarantines  (** Metadata regions written off as unrepairable. *)
  | Bitrot_flips  (** Bit flips injected into the persisted image. *)
  | Scrub_passes  (** Completed background scrub passes. *)
  | Extents_coalesced  (** Adjacent free extents merged into one. *)
  | Extent_tree_lookups  (** Balanced-tree searches in the extent index. *)
  | Header_flush_lines
      (** Cache lines dirtied by slab-header commits (one per commit with
          the packed header word). *)

type t

val cat_index : category -> int
(** Stable index 0..3 ([Meta], [Wal], [Log], [Data]) — used by callers
    that keep per-category arrays (telemetry handles, breakdowns). *)

val cat_of_index : int -> category
(** Inverse of {!cat_index}. *)

val cat_name : category -> string
(** Lower-case label: ["meta"], ["wal"], ["log"], ["data"]. *)

val create : unit -> t
(** Zeroed counters and an empty flush-address trace, which records the
    first 1000 metadata flushes (Figure 2's "first 1000 flush
    operations"). *)

val reset : t -> unit
(** Zero every counter, time and the flush trace (buffers included) — a
    reset instance is indistinguishable from a fresh one. *)

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] to [c]; no-op for [n <= 0] (counters only grow). *)

val bump : t -> counter -> unit
(** [add t c 1]. *)

val get : t -> counter -> int

val record_flush :
  t -> category -> addr:int -> reflush:bool -> sequential:bool -> ns:int -> unit
(** One flush: counts it under [Flushes] and one of [Reflushes],
    [Sequential_flushes] and [Random_flushes], adds [ns] to its
    category's flush time, and traces it if it is metadata and the trace
    has room. *)

val flush_ns : t -> category -> int

val ratio : t -> counter -> counter -> float
(** [ratio t a b] is [get t a / get t b], 0 when [b] is 0: the reflush
    ratio is [ratio t Reflushes Flushes], the mean WAL group size
    [ratio t Group_commit_entries Group_commits]. *)

val trace : t -> (category * int) list
(** Flush trace in issue order: category and byte address, truncated to
    the first 1000 metadata-class entries (Meta, Wal and Log; Figure 2
    plots metadata flushes only). *)

val pp_summary : Format.formatter -> t -> unit

val to_json : t -> Telemetry.Json.t
(** Schema ["nvalloc/stats/v4"]: [trace_limit] (always 1000), every
    counter by its JSON name, [reflush_ratio] and the per-category
    [flush_ns] after [random_flushes], [group_commit_size] after
    [group_commit_entries], then the flush trace. *)

val to_json_string : t -> string
