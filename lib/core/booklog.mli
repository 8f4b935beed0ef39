(** Log-structured bookkeeping for large allocations (section 5.3).

    Instead of updating extent headers in place (small random writes all
    over the heap, section 3.3), NVAlloc appends each virtual-extent-header
    change to a persistent log with a strictly sequential write pattern.

    Layout: one header line (alt bit + two list-head pointers), then an
    array of 1 KB chunks. A chunk's first line holds its header (next
    pointer + active flag); its 15 remaining lines hold 8 B entries — 120
    per chunk. An entry packs 2 type bits (extent / slab / tombstone),
    a 26-bit size and a 36-bit address, both in 4 KB units, exactly the
    encoding the paper describes (written as an OCaml int, so addresses
    stay below 2{^34} units). A tombstone's address field carries the
    entry reference of the normal entry it deletes.

    Volatile vchunks, an array by chunk, mirror per-entry liveness (one
    byte per slot, a 120-byte [Bytes]) and list the tombstones that
    target each chunk; freed chunks are kept on a free list. A vchunk is
    made at its chunk's first grab and reset at each later one, and chunk
    turnover allocates nothing beyond that: grabs, list-head and
    next-pointer commits flush the field's address and length directly,
    the header's guard record is built once per log, and fast GC collects
    into a buffer made at its first run. The VEHs whose entries the log
    holds are recycled by the extent layer (see {!Extent}), which
    rewrites a reused VEH's entry reference at its next activation.

    GC: {e fast GC} frees chunks with no live normal entries and no
    pending tombstones by unlinking them from the persistent list (one
    small flush) — tombstones whose target chunk is retired die with it.
    {e slow GC} rewrites all live entries into a fresh chunk list and
    flips the header's alt bit, reclaiming tombstone space; it returns the
    entry-reference remapping so the extent layer can re-point its VEHs.

    With interleaved mapping (Table 2), consecutive entries go to
    different lines of the chunk, avoiding append reflushes. *)

type t

type entry_ref = int
(** [chunk_index * 128 + logical_slot]. *)

type kind = Extent | Slab_extent

type scanned = { ref_ : entry_ref; kind : kind; addr : int; size : int }

val entries_per_chunk : int
(** 120. *)

val chunk_bytes : int
(** 1024. *)

val region_bytes : chunks:int -> int
(** Header line, chunk array, trailing guard-replica line. *)

val create : ?replicate:bool -> Pmem.Device.t -> base:int -> chunks:int -> interleave:bool -> t
(** Format a fresh log. [replicate] (default false) mirrors the header's
    guarded bytes (alt bit + list heads, checksummed at offset 12) into
    the trailing guard line after every header commit, enabling
    {!verify_guard} repair. *)

val open_existing :
  ?replicate:bool ->
  Pmem.Device.t ->
  Sim.Clock.t ->
  base:int ->
  chunks:int ->
  interleave:bool ->
  t * scanned list
(** Rebuild the volatile state (vchunks, free list, chain links) from a
    post-crash or post-shutdown image, performing the "slow GC on the
    persistent bookkeeping log to clean up its tombstone entries" that
    section 4.4 prescribes: live entries are compacted into a fresh chain
    (crash-safe: the old chain is untouched until the alt-bit flip) and
    returned with their {e new} references. Write latency of the
    compaction is charged to [clock]; the caller additionally charges the
    scan reads via {!scanned_chunks}. *)

val append_normal :
  t -> Sim.Clock.t -> kind -> addr:int -> size:int -> entry_ref
(** Log a live extent ([addr], [size] in bytes, 4 KB-aligned/multiples).
    One entry write + flush (category [Log]). *)

val append_tombstone : t -> Sim.Clock.t -> entry_ref -> unit
(** Log the deletion of a previously appended normal entry. *)

val chunks_in_use : t -> int

val needs_slow_gc : t -> threshold:float -> bool

val fast_gc : t -> Sim.Clock.t -> int
(** Returns the number of chunks freed. *)

val slow_gc : t -> Sim.Clock.t -> (entry_ref * entry_ref) list
(** Rewrites live entries; returns old-to-new reference remappings. *)

val slow_gc_runs : t -> int

val scan : Pmem.Device.t -> base:int -> interleave:bool -> scanned list
(** Decode the live normal entries from the (post-crash) image by walking
    the active chunk list and applying tombstones, in log order.
    [interleave] must match the configuration the log was written with.
    Pure decoding; the caller charges read latency. *)

val scanned_chunks : Pmem.Device.t -> base:int -> int
(** Length of the active chunk list (for charging recovery reads). *)

val guard_record : base:int -> chunks:int -> Guard.record

val verify_guard : Pmem.Device.t -> Sim.Clock.t -> base:int -> chunks:int -> Guard.status
(** Verify/repair the header record. Recovery runs this before {!scan}/
    {!open_existing}, which read header fields and would raise
    [Media_error] on a poisoned line. Only meaningful for logs created
    with [replicate]. *)
