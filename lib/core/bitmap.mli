(** Persistent slab bitmaps with sequential or interleaved bit mapping.

    Section 5.1: a slab's bitmap has one bit per block. With the baseline
    {e sequential} mapping, consecutive blocks map to consecutive bits, so
    consecutive allocations flush the same cache line over and over (a
    reflush). The {e interleaved} mapping divides the bitmap into [S] bit
    stripes, one cache line each, and maps block [b] to stripe [b mod S] —
    consecutive allocations then flush different lines.

    A layout is positioned at a base device address; callers flush the
    line returned by {!line_addr} after mutating a bit. *)

type mapping =
  | Sequential
  | Interleaved of int  (** stripe (cache-line) count *)

type t = {
  base : int;  (** device address of the bitmap region *)
  nbits : int;  (** number of blocks *)
  lines : int;  (** cache lines occupied *)
  mapping : mapping;
  bytes_a : int Pstruct.arr;  (** the bitmap bytes as a typed u8 array *)
}

val bits_per_line : int
(** 512 = 64 B * 8. *)

val lines_for : nbits:int -> mapping:mapping -> int
(** Cache lines needed to host [nbits] bits under [mapping]. Interleaving
    uses [max stripes (ceil nbits/512)] lines so that a stripe never
    overflows its line. *)

val make : base:int -> nbits:int -> mapping:mapping -> t
val bytes : t -> int
(** Size of the bitmap region ([lines * 64]). *)

val bit_location : t -> int -> int * int
(** [bit_location t b] is [(line, index_in_line)] of block [b]'s bit. *)

val line_of : t -> int -> int
(** [fst (bit_location t b)], without the tuple. *)

val line_addr : t -> int -> int
(** Device address of the cache line holding block [b]'s bit (the flush
    target after {!set}/{!clear}). *)

val bit_span : t -> int -> Pstruct.span
(** The cache-line span holding block [b]'s bit, for flushing or for
    declaring it as a commit dependency. *)

val set : Pmem.Device.t -> t -> int -> unit
val clear : Pmem.Device.t -> t -> int -> unit
val get : Pmem.Device.t -> t -> int -> bool
val clear_all : Pmem.Device.t -> t -> unit
val popcount : Pmem.Device.t -> t -> int
(** Number of set bits (allocated blocks). *)

val iter_set : Pmem.Device.t -> t -> (int -> unit) -> unit
(** Apply to every block index whose bit is set. *)
