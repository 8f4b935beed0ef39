(** Typed persistent layouts.

    Every persistent structure in the allocator used to be hand-rolled
    offset arithmetic over raw {!Pmem.Device} accessors — nothing stated
    which bytes form a field, which fields belong to one commit, or what
    must be persisted before a commit point. This module is the thin
    typed layer that fixes that (in the spirit of FliT): a layout is
    declared once — field name, offset, width — and yields typed
    getters/setters, spans for flushing, a {!commit} combinator that
    declares its persist-ordering dependencies to the device checker, and
    pretty-printing of any live struct.

    Layouts are built imperatively at module-initialisation time and then
    {!seal}ed; overlapping fields and fields escaping the sealed size are
    rejected with [Invalid_argument] at declaration time, so a bad layout
    fails at program start, not at first access. *)

type span = { addr : int; len : int }
(** A byte range of the device — the unit of flushing and of ordering
    dependencies. *)

val span_of : addr:int -> len:int -> span

(** Field types. [Int] is a 63-bit OCaml int stored as a little-endian
    int64; [Bytes n] is a raw [n]-byte field. *)
type _ ty =
  | U8 : int ty
  | U16 : int ty
  | U32 : int ty
  | I64 : int64 ty
  | Int : int ty
  | Bytes : int -> bytes ty

type layout
type 'a field
type 'a arr

(** {1 Declaring layouts} *)

val layout : string -> layout
(** A fresh, empty, unsealed layout; the name appears in error messages
    and {!pp} output. *)

val field : layout -> string -> off:int -> 'a ty -> 'a field
(** Declare a field. Raises [Invalid_argument] if the layout is sealed,
    the offset is negative, or the field overlaps one already declared. *)

val array : layout -> string -> off:int -> ?stride:int -> count:int -> 'a ty -> 'a arr
(** Declare an array of [count] elements at [off], [stride] bytes apart
    (default: the element width). Reserves [off, off + stride*count);
    same rejection rules as {!field}. *)

val u8 : layout -> string -> off:int -> int field
val u16 : layout -> string -> off:int -> int field
val u32 : layout -> string -> off:int -> int field
val i64 : layout -> string -> off:int -> int64 field
val int_ : layout -> string -> off:int -> int field
val bytes_ : layout -> string -> off:int -> len:int -> bytes field

val seal : layout -> size:int -> unit
(** Freeze the layout at [size] bytes. Raises [Invalid_argument] if
    already sealed or any declared field extends past [size]. *)

(** {1 Typed access}

    A struct instance is a [base] address on a device; fields address
    [base + off]. *)

val get : Pmem.Device.t -> base:int -> 'a field -> 'a
val set : Pmem.Device.t -> base:int -> 'a field -> 'a -> unit

val get_elt : Pmem.Device.t -> base:int -> 'a arr -> int -> 'a
val set_elt : Pmem.Device.t -> base:int -> 'a arr -> int -> 'a -> unit
(** Element access; an index outside [0, count) raises
    [Invalid_argument]. *)

(** {1 Spans} *)

val span : base:int -> 'a field -> span
val elt_span : base:int -> 'a arr -> int -> span

(** {1 Persistence} *)

val flush_span : Pmem.Device.t -> Sim.Clock.t -> Pmem.Stats.category -> span -> unit
(** Plain {!Pmem.Device.flush} of the span (not a commit point). *)

val commit :
  ?deps:(string * span) list ->
  Pmem.Device.t ->
  Sim.Clock.t ->
  Pmem.Stats.category ->
  span ->
  unit
(** Flush+fence the span as a {e commit point}: each [dep] (a label and a
    span that the protocol persisted — or should have persisted — before
    this commit) is declared to the device's persist-ordering checker via
    {!Pmem.Device.depends_on}, then the span retires through
    {!Pmem.Device.commit_flush}, which validates the dependencies when
    check mode is on. With check mode off this is exactly {!flush_span}. *)

(** {1 Debugging} *)

val pp : Pmem.Device.t -> base:int -> Format.formatter -> layout -> unit
(** Print every declared field of the live struct at [base], in offset
    order; arrays print up to their first 8 elements. *)
