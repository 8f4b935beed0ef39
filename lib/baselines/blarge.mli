(** Baseline large allocator: in-place bookkeeping headers.

    This is the design the paper's section 3.3 profiles: each 4 MB mapped
    region keeps a 16 KB header area of per-extent slots, updated in
    place (one small flush at a random heap location) on every allocation
    and free. Best-fit over a free-extent tree, split/coalesce within a
    region, dedicated regions above 2 MB. Whole regions whose space is
    free are returned to the OS unless the allocator hoards
    ({!Knobs.t.hoard_empty}, Makalu).

    A [wal_write] callback lets the engine attach its per-op log write
    (PMDK redo entries, micro-logs) to every state transition. *)

type t

val create :
  dax:Pmem.Dax.t ->
  region_lock:Sim.Lock.t ->
  persist:bool ->
  hoard:bool ->
  extra_flush:bool ->
  page_headers:bool ->
  light:bool ->
  wal_write:(Sim.Clock.t -> unit) ->
  t
(** [extra_flush] adds a second per-operation header write in the same
    line (an immediate reflush) — Makalu's header maintenance.
    [page_headers] writes a GC block header every 8 KB of a large object
    (Makalu/BDW). [light] skips the per-region summary updates
    (PAllocator's dedicated large allocator). *)

val malloc : t -> Sim.Clock.t -> size:int -> int
val free : t -> Sim.Clock.t -> addr:int -> unit

val live_extents : t -> (int * int) list
(** Activated [(addr, size)] pairs (recovery-cost modelling). *)

val region_count : t -> int
