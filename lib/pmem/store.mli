(** Lazily materialised byte store.

    A memory image of the device in 16 KiB granules ({!chunk_bytes}),
    each zero-filled on its first write; until then its slot holds one
    shared empty sentinel and it reads as zeros. A store costs its slot
    array, O(size / granule) words, and its resident size follows the
    granules written — the harness creates hundreds of devices.

    The granule is a multiple of the cache-line size, so line-granular
    operations never straddle granules; word accessors handle the (rare)
    straddling byte ranges with a slow path. *)

type t

val chunk_bytes : int
val create : size:int -> t
val size : t -> int
val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit

val get_int : t -> int -> int
(** An 8-byte word as an int, without allocating; asserts it fits 63 bits. *)

val set_int : t -> int -> int -> unit
(** Store an int as an 8-byte word (sign-extended), without allocating. *)

val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit
val fill : t -> int -> int -> char -> unit

val copy_line : src:t -> dst:t -> int -> unit
(** [copy_line ~src ~dst line] copies one 64 B cache line. *)

val allocated_chunks : t -> int
(** Number of granules materialised so far (observability: [fill] with
    ['\000'] must never allocate one — see the regression test). *)
