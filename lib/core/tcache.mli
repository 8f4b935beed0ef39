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
    lookup. *)

type entry = { slab : Slab.t; addr : int }
type t

val create : class_idx:int -> capacity:int -> nsub:int -> t
(** [nsub = 1] degenerates to a single LIFO list. *)

val class_idx : t -> int
val count : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val push : t -> entry -> bool
(** Adds to the block's home sub-tcache (the one matching its bitmap
    line). Returns [false] — and does nothing — when full. *)

val pop : t -> entry
(** Pops from the cursor's sub-tcache and advances the cursor, skipping
    empty sub-tcaches. The tcache must not be empty ({!is_empty}). *)

val drain : t -> entry list
(** Remove and return everything (used at thread exit / shutdown). *)
