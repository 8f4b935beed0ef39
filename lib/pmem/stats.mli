(** Counters and time accounting for one allocator instance.

    The paper's evaluation needs three kinds of observability:
    - flush classification counts (Figure 1a: reflush vs regular flush);
    - a trace of the first flush addresses of metadata (Figure 2);
    - execution-time breakdown by category (Figure 11: FlushMeta,
      FlushWAL, Search, Other — we additionally separate the bookkeeping
      log as FlushLog and user payload as FlushData). *)

type category = Meta | Wal | Log | Data
(** What a flush persists. [Meta] — slab bitmaps / headers / extent
    headers; [Wal] — write-ahead-log entries; [Log] — the log-structured
    bookkeeping log; [Data] — user payload (root pointers, object bodies). *)

type work = Search | Other
(** CPU-side time categories for the breakdown. *)

type t

val cat_index : category -> int
(** Stable index 0..3 ([Meta], [Wal], [Log], [Data]) — used by callers
    that keep per-category arrays (telemetry handles, breakdowns). *)

val cat_of_index : int -> category
(** Inverse of {!cat_index}. *)

val cat_name : category -> string
(** Lower-case label: ["meta"], ["wal"], ["log"], ["data"]. *)

val create : ?trace_limit:int -> unit -> t
(** [trace_limit] bounds the recorded flush-address trace (default 1000,
    matching Figure 2's "first 1000 flush operations"). [trace_limit:0]
    disables tracing; negative raises [Invalid_argument]. *)

val reset : t -> unit
(** Zero every counter, time and the flush trace (buffers included) — a
    reset instance is indistinguishable from a fresh one. *)

(* Recording (used by Device and by allocators). *)

val record_flush :
  t -> category -> addr:int -> reflush:bool -> sequential:bool -> ns:float -> unit

val record_fence : t -> ns:float -> unit
val record_read : t -> ns:float -> unit
val charge_work : t -> work -> ns:float -> unit

val record_fences_saved : t -> int -> unit
(** [n] fence charges avoided because a single drain persisted what [n+1]
    synchronous commit sites would each have fenced for. No-op for n<=0. *)

val record_flush_coalesced : t -> unit
(** A deferred flush deduplicated against a line already pending (or
    already persisted by the time its batch drained). *)

val record_group_commit : t -> entries:int -> unit
(** One WAL group closed, covering [entries] appends. *)

(* Media-fault model (poisoned lines, bit-rot, repair and scrub). *)

val record_poison_hit : t -> unit
(** A read touched a poisoned cache line and raised [Device.Media_error]. *)

val record_media_repair : t -> unit
(** A damaged metadata record was rewritten from its replica (or its
    replica re-synced from a healthy primary). *)

val record_quarantine : t -> unit
(** A metadata region was written off as unrepairable and withdrawn from
    service. *)

val record_bitrot : t -> int -> unit
(** [n] bit flips were injected into the persisted image. No-op for n<=0. *)

val record_scrub_pass : t -> unit
(** One background scrub pass over the metadata regions completed. *)

(* Metadata layout (packed headers + extent trees). *)

val record_extent_coalesced : t -> unit
(** Two adjacent free extents were merged into one. *)

val record_extent_lookup : t -> unit
(** One balanced-tree search in the extent index (floor/ceiling/best-fit). *)

val record_header_flush_line : t -> unit
(** One cache line dirtied by a slab-header commit (exactly one per
    commit with the packed header word). *)

(* Reporting. *)

val flushes : t -> int
(** Total flush operations (reflushes included). *)

val reflushes : t -> int
val sequential_flushes : t -> int
val random_flushes : t -> int
val fences_saved : t -> int
val flushes_coalesced : t -> int
val group_commits : t -> int
val group_commit_entries : t -> int
val poison_hits : t -> int
val media_repairs : t -> int
val media_quarantines : t -> int
val bitrot_flips : t -> int
val scrub_passes : t -> int
val extents_coalesced : t -> int
val extent_tree_lookups : t -> int
val header_flush_lines : t -> int

val group_commit_size : t -> float
(** Mean appends per closed WAL group; 0 when no group ever closed. *)

val reflush_ratio : t -> float
(** Fraction of flushes that were reflushes; 0 when no flushes occurred. *)

val flush_time : t -> category -> float
val work_time : t -> work -> float

val total_flush_time : t -> float
val trace : t -> (category * int) list
(** Flush trace in issue order: category and byte address, truncated to
    [trace_limit] metadata-class entries (Meta, Wal and Log; Figure 2
    plots metadata flushes only). *)

val pp_summary : Format.formatter -> t -> unit

(** {1 Machine-readable dump} *)

val to_json : t -> Telemetry.Json.t
(** Every counter, time and the recorded flush trace, schema
    ["nvalloc/stats/v4"]. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json t)] reconstructs an
    observationally equal instance. Only ["nvalloc/stats/v4"] parses:
    any other schema, the earlier v1–v3 included, is an
    ["unknown schema"] error, and every counter must be present. *)

val to_json_string : t -> string
val of_json_string : string -> (t, string) result
