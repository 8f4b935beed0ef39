(** FPTree (Oukid et al., SIGMOD'16), the paper's real-world application
    (section 6.3): a hybrid persistent B+tree keeping inner nodes in
    DRAM and leaf nodes in persistent memory.

    Layout follows the paper's setup: 64 entries per node; leaves store
    one byte of fingerprint per entry, a validity bitmap, a next-leaf
    pointer, 8 B keys, and 8 B value slots. Values are {e pointers to
    128 B key-value pair objects} obtained from the allocator under test
    — every insert is a [malloc_to] whose destination is the leaf's value
    slot, every delete a [free_from], so the tree exercises exactly the
    allocator paths the paper compares.

    Concurrency is leaf-grained (one simulated lock per leaf), matching
    FPTree's selective-locking design closely enough for the scaling
    curves. Leaf merging on underflow is elided (the evaluation's 50/50
    insert/delete mix keeps occupancy stable); leaves are anchored in the
    instance's root table so the heap stays leak-free. *)

type t

val create : Alloc_api.Instance.t -> max_leaves:int -> t
(** Uses root-table slots [0, max_leaves) to anchor leaves. *)

val insert : t -> tid:int -> key:int -> unit
(** Inserts [key] with a 128 B payload; overwrites an existing key's
    payload reference (the old payload is freed). Keys must be > 0. *)

val delete : t -> tid:int -> key:int -> bool
(** Removes the key and frees its payload; [false] if absent. *)

val mem : t -> tid:int -> key:int -> bool
val cardinal : t -> int
val leaf_count : t -> int

val check_consistent : t -> (unit, string) result
(** Volatile mirror vs persistent leaf images (test support). *)
