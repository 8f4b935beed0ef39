(** Size classes for small allocations.

    Small requests (<= 16 KB, section 4.2) are served from slabs segregated
    by size class. The table follows the jemalloc spacing the paper builds
    on: 16 B steps up to 128 B, then four classes per power-of-two
    doubling, ending at 16 KB. *)

val count : int
(** Number of classes. *)

val max_small : int
(** Largest slab-served request size (16 KB). *)

val size_of : int -> int
(** [size_of c] is the block size of class [c]; raises on bad index. *)

val of_size : int -> int
(** [of_size n] is the smallest class whose blocks fit [n] bytes, or [-1]
    when [n > max_small] (a large allocation) or [n <= 0]. Like the other
    lookups on the allocation path it returns [-1] for "none" instead of
    an option, so a call allocates nothing. *)
