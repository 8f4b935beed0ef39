(** Thread-local cache of free blocks with the interleaved layout.

    A tcache holds, per size class, up to [capacity] blocks ready to serve
    allocations without touching the arena (section 2.1). Plain tcaches
    are LIFO; under the interleaved layout (section 5.1, Figure 6) the
    tcache is split into [nsub] sub-tcaches, one per bitmap stripe, each
    holding only blocks whose bitmap bits live in the same cache line. A
    cursor rotates across sub-tcaches on every allocation so that
    consecutive allocations never persist bits of the same cache line.

    Entries carry the block's {e address} (not its index): a slab can
    morph to another size class while blocks of the old class sit in other
    threads' tcaches, and only the address stays meaningful across the
    layout change. The owning vslab rides along so that overflow (a free
    arriving at a full tcache) can return the block without an index
    lookup.

    Each sub-tcache is a stack in two parallel arrays: an [int] array of
    addresses and a [Slab.t] array of owners. They start empty and double
    on first use up to [capacity]; once grown, no operation allocates. *)

type t

val create : capacity:int -> nsub:int -> t
(** [nsub = 1] degenerates to a single LIFO stack. *)

val count : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val push : t -> Slab.t -> int -> bool
(** [push t slab addr] adds the block at [addr] of [slab] to its home
    sub-tcache (the one matching its bitmap line). Returns [false] — and
    does nothing — when full. *)

val pop : t -> int
(** Pops an address from the cursor's sub-tcache and advances the cursor,
    skipping empty sub-tcaches. The tcache must not be empty
    ({!is_empty}). *)

val last_slab : t -> Slab.t
(** The owner of the block the last {!pop} returned. Valid until the next
    {!push}. *)

val drain : t -> ('a -> 'b -> Slab.t -> int -> unit) -> 'a -> 'b -> unit
(** [drain t f a b] removes every block, calling [f a b slab addr] on
    each: sub-tcaches from last to first, each oldest block first. [f]
    must not push into [t]; taking [a] and [b] apart lets it be a
    top-level function, so a drain builds no closure. *)
