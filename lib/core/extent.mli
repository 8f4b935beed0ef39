(** Large allocator: extents and virtual extent headers (sections 2.2, 4.3).

    One instance lives in every arena. Extents (4 KB-multiple byte ranges
    carved out of 4 MB mapped regions) are described by volatile VEHs in
    one of three states:

    - {e activated}: allocated extents;
    - {e reclaimed}: free extents whose physical memory is still mapped;
    - {e retained}: free extents whose physical pages were released
      (decommitted) but whose address range is still reserved.

    Every index is a {!Support.Rbtree}: the [(addr, 0)] extent tree (the
    paper's "R-tree") answers the floor/ceiling probes that splitting and
    neighbour coalescing need in O(log n); [(size, addr)] trees give
    best-fit; [(free_time, addr)] trees give oldest-first decay without
    list walks; the mapped regions live in a [(base, 0)] tree of {e page
    descriptors}, each counting its
    activated extents so a page whose last live extent dies is detected in
    O(1) and the whole region released back to the OS at the next decay
    tick — reclaimed space coalesces across slab boundaries instead of
    pinning a region per dead slab. A decay pass driven by the
    smootherstep curve (50 ms ticks) moves idle reclaimed extents to
    retained and releases fully-retained regions.

    Each VEH holds its page's descriptor, and its node handles in the
    trees, so unlinking it removes by handle (a stale handle fails an
    assertion) and no operation looks its page up; index work allocates
    nothing. A best-fit allocation splits its extent in place:
    the front keeps its start address, hence its address-tree entry. When
    slow GC rewrites the bookkeeping log, one walk of the address tree
    re-points the activated VEHs' log references.

    VEHs are recycled. Every VEH the layer drops (a neighbour a merge
    absorbs, the extent of a region it unmaps) goes on a per-instance
    stack of spares, and every VEH it needs (a split's remainder, a fresh
    region's data area) comes off it; the stack is an array grown by
    doubling, so extent churn allocates nothing once it has grown.

    {b Ownership and aliasing.} A caller owns the VEH {!malloc} returns
    until it passes it to {!free}; after that the layer may merge it into
    a neighbour, hand it out again from a best fit, or reuse the record
    for another extent, so a caller must not read a VEH it has freed.
    Outside this module only these hold VEHs, all of them Activated:
    - [Nvalloc]'s [large_index], whose entry [on_drop_extent] removes
      inside {!free} before any coalescing;
    - [Arena]'s [slab_vehs], whose entry is removed before {!free};
    - recovery's torn-slab list and the GC variant's unmarked list, each
      freed in turn with no {!malloc} in between;
    - transient [Large_owner] lookups.
    A merged-away or unmapped VEH is never Activated, so none of these
    can hold one that the stack recycles.

    Tree searches and merges feed the device counters
    [extent_tree_lookups] and [extents_coalesced].

    Persistent bookkeeping is pluggable ({!mode}): {e in-place} header
    slots at the head of each region (the design whose random small
    writes Figure 2 exposes — used by the Base configuration and the
    baseline allocators), or the {e log-structured} bookkeeping log of
    section 5.3. Only activated extents are persisted; recovery rebuilds
    free extents from the gaps (section 4.4). *)

type mode = In_place | Logged of Booklog.t

type state = Activated | Reclaimed | Retained

type pagedesc = {
  base : int;  (** region base address *)
  total : int;  (** mapped bytes, header area included *)
  page_data_off : int;  (** first data byte (in-place header area) *)
  dedicated : bool;  (** mapped for one huge object *)
  mutable activated_count : int;  (** live extents on this page *)
}
(** Descriptor of one mapped region ("huge page"), kept in an
    address-ordered tree. *)

type veh = {
  mutable addr : int;
  mutable size : int;
  mutable state : state;
  mutable kind : Booklog.kind;
  mutable log_ref : int;  (** bookkeeping-log entry, -1 when none *)
  mutable free_time : int;
  mutable page : pagedesc;
      (** the owning mapped region's descriptor, held so that no operation
          on the extent looks its page up *)
  mutable addr_node : Support.Rbtree.node;  (** in the address tree *)
  mutable size_node : Support.Rbtree.node;  (** in its free state's trees *)
  mutable time_node : Support.Rbtree.node;
}

type t

val dummy : veh
(** Never live: fills the free slots of VEH indexes. *)

val region_bytes : int
(** Default mapped-region granularity (4 MB). *)

val header_bytes : int
(** In-place mode: bytes reserved at the head of each region for the VEH
    slot table (one u32 slot on an 8 B stride per possible 4 KB extent
    start). *)

val scan_region : Pmem.Device.t -> base:int -> total:int -> Booklog.scanned list
(** In-place mode: the activated extents that the slot table of the
    region at [base] ([total] bytes mapped) records, in address order
    (recovery scans). A slab-sized extent whose header carries the slab
    magic is tagged [Slab_extent], every other one [Extent]. *)

val create :
  Heap.t ->
  mode:mode ->
  region_lock:Sim.Lock.t ->
  on_new_extent:(veh -> unit) ->
  on_drop_extent:(veh -> unit) ->
  t
(** [on_new_extent]/[on_drop_extent] keep the owner's global address
    index in sync (every activated extent announce/retract). *)

val set_telemetry : t -> Telemetry.t option -> unit
(** Attach the device's sink: each charged tree search is then an
    [extent:lookup] region, its name interned here once. [None] (the
    default) records nothing. *)

val malloc : t -> Sim.Clock.t -> size:int -> kind:Booklog.kind -> veh
(** Allocate [size] bytes (rounded up to 4 KB). Requests above 2 MB map a
    dedicated region, as the paper's mmap path does. The caller owns the
    returned VEH until it passes it to {!free}. *)

val free : t -> Sim.Clock.t -> veh -> unit
(** Return an activated extent; coalesces with reclaimed neighbours and
    runs the decay tick. The VEH passes back to the layer, which may
    merge it away and reuse it. *)

val decay_tick : t -> Sim.Clock.t -> unit
(** Run decay if the 50 ms interval elapsed (also called internally). *)

val booklog : t -> Booklog.t option
val activated_bytes : t -> int
val reclaimed_bytes : t -> int
val retained_bytes : t -> int

val page_of_addr : t -> int -> pagedesc option
(** Floor lookup: the mapped region containing the address, if any. *)

val iter_pages : t -> (pagedesc -> unit) -> unit
(** In increasing base-address order. *)

val page_count : t -> int

val restore_region : t -> base:int -> total:int -> unit
(** Recovery hook: re-register a mapped region read back from the
    persistent region table (before restoring its extents), reserving
    its range in the heap's DAX manager ({!Pmem.Dax.reserve}). *)

val restore_extent :
  t -> addr:int -> size:int -> kind:Booklog.kind -> state:state -> log_ref:int -> region:int -> veh
(** Recovery hook: insert a VEH rebuilt from persistent state without
    touching persistent bookkeeping. *)
