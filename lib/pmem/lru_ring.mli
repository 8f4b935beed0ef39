(** Fixed-capacity move-to-front LRU of ints over a ring buffer.

    Used by {!Device} for the per-thread reflush-distance window and the
    recent-XPLine window. Observationally equivalent to an array-shift
    LRU (same distances, same eviction order) but a miss — the common
    case — inserts in O(1) by moving the head instead of shifting the
    whole window. Allocation-free after {!create}. *)

type t

val create : int -> t
(** [create capacity]. A capacity of 0 yields a ring on which {!touch}
    always misses and records nothing. *)

val touch : t -> int -> int
(** [touch t v] returns the LRU distance of [v] before the touch
    ([0] = most recently touched, [-1] = not in the window) and moves [v]
    to the front, evicting the least-recent entry if the ring is full. *)

val touch_seq : t -> int -> bool
(** Does the pre-touch window contain [v] or [v - 1]? Applies {!touch}'s
    update in the same scan: the per-flush XPLine sequentiality check. *)

val to_list : t -> int list
(** Window contents, most recent first (tests/debugging). *)

val reset : t -> unit
