(** Dirty-line bitmap of a simulated device.

    One bit per 64 B cache line, in bitmaps of 512 ints (too large for
    the minor heap) that each cover 1 MiB of device, whatever {!Store}'s
    granule; absent bitmaps share one empty sentinel. Replaces the
    former [(int, unit) Hashtbl.t] dirty set: mark/test/clear are O(1)
    bit operations, the dirty count is maintained incrementally, and
    whole-device sweeps ({!iter}) skip clean regions word-at-a-time. *)

type t

val create : size:int -> t
(** [size] is the device capacity in bytes (multiple of the cache-line
    size); lines are indexed [0 .. size/64 - 1]. *)

val mark : t -> int -> unit
(** Set one line dirty. *)

val mark_range : t -> first:int -> last:int -> unit
(** Set lines [first..last] (inclusive) dirty, word-at-a-time. *)

val test : t -> int -> bool
val clear : t -> int -> unit

val count : t -> int
(** Number of dirty lines; O(1). *)

val iter : t -> (int -> unit) -> unit
(** Visit every dirty line in ascending order. The callback may {!clear}
    the line it is given (each bitmap word is snapshotted before its
    bits are dispatched); it must not mark new lines. *)

val reset : t -> unit
(** Drop all dirty bits (crash path). *)
