(** Persistent heap layout: superblock, region table, root table.

    The heap occupies the whole device:

    {v
    0            superblock (magic, arena count, run-state flag, cksum;
                 guard replica on the page's second cache line)
    4 KB         region table: 4096 slots * 8 B (base and size, 4 KB units)
    36 KB        region-table mirror (guard replica of every line)
    68 KB        region-table checksums: one u16 per line, shared by
                 primary and mirror
    72 KB        root table: root_slots * 8 B (page aligned)
    ...          per-arena WAL regions
    ...          per-arena bookkeeping-log regions
    heap_start   extent space managed through Dax (the "heap files")
    v}

    The guard areas ({!Guard}) are always laid out; their maintenance —
    mirror writes on {!register_region}/{!unregister_region}, superblock
    replica on {!set_state} — is gated on [Config.media_replication], and
    the mirror is persisted {e before} the primary slot commits so a
    repair can only roll a region write forward atomically, never tear
    it. Checksums that share an already-committed line (the superblock's)
    are refreshed unconditionally — they ride for free.

    The run-state flag implements section 4.4's per-heap state: [Running],
    [Shutdown] (set by a clean [nvalloc_exit]) or [Recovering]; finding
    [Running]/[Recovering] at open time means a failure happened and a
    sanity pass (WAL replay or conservative GC) is required.

    The region table persists which 4 MB regions are mapped, so recovery
    can walk the heap without the volatile Dax state. *)

type state = Running | Shutdown | Recovering

type t

val init : ?mutation:Mutation.t -> Pmem.Device.t -> Config.t -> t
(** Format a fresh heap (volatile image; the first fence persists).
    The heap carries [mutation] (default [Off]) for every layer built
    on it. *)

val open_existing : ?mutation:Mutation.t -> Pmem.Device.t -> Config.t -> state * t
(** Rebuild the layout handle from a (post-crash or post-shutdown) image;
    returns the persisted run state as found. [Config] must match the one
    the heap was initialised with (checked against the superblock where
    recorded). The caller ({!Recovery}) is responsible for moving the
    state to [Recovering] and eventually back to [Running]. *)

val device : t -> Pmem.Device.t
val dax : t -> Pmem.Dax.t
val config : t -> Config.t

val mutation : t -> Mutation.t
(** The seeded bug this heap was built with ([Off] outside mutation
    tests). *)

val set_state : t -> Sim.Clock.t -> state -> unit

val root_addr : t -> int -> int
(** Device address of root slot [i]. *)

val root_slots : t -> int
val wal_base : t -> arena:int -> int
val booklog_base : t -> arena:int -> int
val heap_start : t -> int

(** {1 Region table} *)

val register_region : t -> Sim.Clock.t -> addr:int -> size:int -> unit
(** Record a mapped region (one small metadata flush). *)

val unregister_region : t -> Sim.Clock.t -> addr:int -> unit

val regions : t -> (int * int) list
(** Mapped regions [(addr, size)], from the persistent table. *)

val read_regions : Pmem.Device.t -> (int * int) list
(** Static variant for recovery, before a handle exists. *)

(** {1 Media verification}

    Only meaningful for heaps initialised with
    [Config.media_replication]; on other heaps the guard areas hold
    garbage and these must not be called. *)

val sb_guard : Guard.record
val region_guard : int -> Guard.record
(** Guard record of region-table line [i] (0 <= i < {!region_lines}). *)

val region_lines : int

val verify_superblock : Pmem.Device.t -> Sim.Clock.t -> Guard.status
(** Verify/repair the superblock record. Static: recovery runs it before
    [open_existing] reads (possibly poisoned) superblock fields. *)

val verify_regions : Pmem.Device.t -> Sim.Clock.t -> int * int
(** Verify/repair every region-table line; [(repaired, lost)]. *)
