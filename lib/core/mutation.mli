(** Seeded protocol bugs for mutation testing.

    A mutation is chosen once, when {!Nvalloc.create} or
    {!Nvalloc.recover} builds a heap; the heap carries it, and every
    layer that can be broken reads it from there. The checkers prove
    their teeth by catching each case: a gate that passes under a
    mutation is a gate that cannot see that protocol. Never set outside
    a test harness. *)

type t =
  | Off  (** the correct allocator *)
  | Wal_flush
      (** skip the WAL append flush: the refill WAL-before-bitmap
          ordering bug *)
  | Wal_record
      (** group commits "forget" their commit record: effects persist
          while replay discards the group *)
  | Scrub
      (** scrub passes bless a damaged primary instead of repairing it
          from the replica *)
  | Header
      (** every slab-header read mis-decodes the size-class field
          (lowest bit flipped), as a mispacked shift would *)

val all : t list
(** Every case, [Off] first. *)

val to_string : t -> string
(** CLI name: [none], [wal-flush], [wal-record], [scrub], [header]. *)
