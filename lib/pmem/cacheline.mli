(** Address arithmetic for the simulated memory hierarchy.

    Addresses are plain [int] byte offsets into the device. A CPU cache
    line is 64 B; the Optane media access granularity (XPLine) is 256 B —
    writes falling in the same XPLine as the previous write are treated as
    sequential by the device's latency model. Both sizes are
    {!Device.line_shift} and {!Device.xpline_shift}, re-exported here. *)

val size : int
(** Cache line size in bytes (64). *)

val index : int -> int
(** [index addr] is the cache-line number containing byte [addr]. *)

val span : int -> int -> (int * int)
(** [span addr len] is the inclusive range [(first_line, last_line)] of
    cache lines touched by the byte range [addr, addr+len). [len] must be
    positive. *)

val xpline : int -> int
(** [xpline addr] is the XPLine number containing byte [addr]. *)
