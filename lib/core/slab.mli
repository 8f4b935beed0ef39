(** Slabs: 64 KB containers of fixed-size blocks (sections 2.1, 4.2, 5.2).

    Each slab has a {e persistent header} — everything needed to rebuild
    state after a crash — and a {e volatile} descriptor ([t], the paper's
    vslab) for fast free-block search.

    The persistent header is one {e packed 64-bit word} (plus its
    checksum), so that every header commit dirties exactly one cache
    line and every header update is a single 8-byte store — crash-atomic
    under the torn-store model, no torn multi-field headers to repair:

    {v
    bit 0              16      24    26         34          44     50         63
        +--------------+-------+-----+----------+-----------+------+----------+-+
        | magic 0x51AB | class | flg | old_class| index_cnt | arena| free_hint|0|
        |    16 bits   |   8   |  2  |    8     |    10     |  6   |    13    | |
        +--------------+-------+-----+----------+-----------+------+----------+-+
    v}

    - [class] is the size-class index; [data_offset] is {e derived} from
      it via {!layout_of_class} and no longer stored.
    - [flg]/[old_class]/[index_cnt] are the morphing fields (section
      5.2); the index table records the live blocks of the previous size
      class while the slab hosts two classes at once. [old_class] =
      [0xFF] ([Header.no_class]) when the slab is not morphing.
    - [arena] is the owning arena index (recovery placement).
    - [free_hint] is an {e advisory} free-block count, refreshed only
      inside header commits and recomputed by recovery — never read on
      the hot path, so no extra header dirtying per alloc/free.
    - bit 63 stays zero, making the word a lossless OCaml int.

    Persistent layout of a slab (offsets from the slab base):
    {v
    0     packed header word (8 B)   cksum:u16 (offset 8)
    64    index_table     (512 entries * 2 B, fixed position)
    1088  guard replica   (mirrored copy of bytes 0..9, one cache line)
    1152  bitmap          (bitmap_lines * 64 B, cache-line aligned)
    data_offset  blocks
    v}

    [cksum] guards the packed word ({!Guard}): it is refreshed inside
    every header commit (same cache line, so it persists for free), and —
    when [Config.media_replication] is on — mirrored together with the
    word into the guard-replica line so a poisoned or rotten header can
    be repaired instead of losing the slab.

    The index table sits at a fixed offset {e before} the bitmap so that a
    morph's step-2 index writes can never clobber the old bitmap, which
    the crash-undo path may still need while the flag is 1.

    An index-table entry packs the old-class block index (low 12 bits) and
    an allocated bit (bit 15). Mutators in this module only touch the
    volatile image; callers flush the returned/selected lines, so that the
    flush pattern (the thing the paper measures) is decided by the
    allocator paths in {!Arena}. *)

val slab_bytes : int
(** 64 KB. *)

val index_capacity : int
(** Maximum index-table entries (bound on live old-class blocks a morph
    candidate may carry); 512. *)

val magic : int

type layout = {
  class_idx : int;
  block_size : int;
  nblocks : int;
  bitmap_lines : int;
  index_off : int;  (** slab-relative offset of the index table *)
  data_off : int;  (** slab-relative offset of block 0 *)
}

val layout_of_class : class_idx:int -> mapping:Bitmap.mapping -> layout
(** Computed to a fixpoint: enlarging the header shrinks the block count,
    which can shrink the bitmap again. *)

(** Volatile descriptor (the vslab). *)
type t = {
  addr : int;  (** slab base address in the device *)
  arena : int;  (** owning arena index *)
  mutable layout : layout;
  mutable bitmap : Bitmap.t;
  mutable free_count : int;
  mutable avail : int array;
      (** volatile free-block bitset (1 = available), kept via
          {!free_put}/{!free_take_first}; agrees bit-for-bit with the
          complement of the persistent bitmap on non-morphing slabs
          outside the internal-collection variant *)
  mutable tcached : int;
      (** blocks sitting in tcaches while unmarked in the bitmap
          (internal-collection variant); such a slab must not morph *)
  mutable freelist_node : t Support.Dlist.node option;
      (** membership in the arena's per-class slab freelist *)
  mutable lru_node : t Support.Dlist.node option;  (** membership in the LRU *)
  mutable morph : morph option;
  mutable dying : bool;  (** being returned to the large allocator *)
  mutable quarantined : bool;
      (** header unrepairable: withdrawn from freelists and the LRU,
          blocks written off, frees dropped (see [Nvalloc]) *)
}

(** Volatile morphing state of a slab_in. *)
and morph = {
  old_class : int;
  old_block_size : int;
  old_data_off : int;
  mutable cnt_slab : int;  (** live old-class blocks (paper's cnt_slab) *)
  cnt_block : int array;  (** per new block: overlapping live old blocks *)
  old_live : (int, int) Hashtbl.t;  (** old block index -> index-table slot *)
}

(** {1 Creation and header access} *)

val dummy : t
(** Never live: fills the free slots of indexes and tcaches over vslabs. *)

val format :
  Pmem.Device.t -> addr:int -> arena:int -> mapping:Bitmap.mapping -> layout -> t
(** Write a fresh persistent header (volatile image only; caller flushes
    header and bitmap lines) and build its vslab. [layout] must have been
    computed with the same [mapping]. *)

val header_addr : t -> int
(** Address of the header line (the packed word). *)

val bitmap_addr : t -> int
val index_entry_addr : t -> int -> int
(** Address of index-table slot [i]. *)

val read_index_entry : Pmem.Device.t -> int -> int -> int
val write_index_entry : Pmem.Device.t -> int -> int -> int -> unit
(** Typed index-table access by slab base address (volatile image only;
    callers flush/commit). *)

val index_entry_span : int -> int -> Pstruct.span
(** Span of index-table slot [i] of the slab based at the given address
    (flush target / commit dependency). *)

val header_commit_span : int -> Pstruct.span
(** The header unit the morph protocol commits: the packed word plus its
    checksum (the first 16 bytes of the slab — always one cache line). *)

val guard_record : int -> Guard.record
(** The header's guard record (checksum at offset 8, replica line at
    offset 1088) for the slab based at the given address. Every header
    write site refreshes the checksum before committing; replication and
    repair are driven by [Arena]/[Nvalloc]. *)

val read_class : ?mutation:Mutation.t -> Pmem.Device.t -> int -> int
(** [read_class dev addr] reads the size class from a slab header.
    Under [Mutation.Header] the packed-word {e decoder} flips the lowest
    bit of the class field (as a mispacked shift would), so every header
    read disagrees with the volatile layout — caught by
    [Nvalloc.integrity_walk] and the lib/check runner. *)

val is_slab_header : Pmem.Device.t -> int -> bool
(** Magic check, used by recovery when scanning extents. *)

(** Raw persistent-header field access by slab base address, for the
    morphing state machine and recovery (which has no vslab yet). Each
    write is a read-modify-write of the packed word in the volatile
    image only; callers flush. *)
module Header : sig
  val write_class : Pmem.Device.t -> int -> int -> unit
  val read_flag : Pmem.Device.t -> int -> int
  val write_flag : Pmem.Device.t -> int -> int -> unit
  val read_old_class : Pmem.Device.t -> int -> int
  (** [no_class] when the slab is not (and was not) morphing. *)

  val write_old_class : Pmem.Device.t -> int -> int -> unit
  val read_index_count : Pmem.Device.t -> int -> int
  val write_index_count : Pmem.Device.t -> int -> int -> unit
  val read_arena : Pmem.Device.t -> int -> int
  val write_arena : Pmem.Device.t -> int -> int -> unit
  val read_free_hint : Pmem.Device.t -> int -> int
  val write_free_hint : Pmem.Device.t -> int -> int -> unit
  val no_class : int
end

(** {1 Blocks} *)

val block_addr : t -> int -> int
val block_index : t -> int -> int
(** Inverse of {!block_addr}; asserts alignment to the block grid. *)

val old_block_addr : t -> morph -> int -> int
(** [old_block_addr t m b] is the address of old-class block [b] of the
    morphing slab [t]. *)

val contains_new_block : t -> int -> bool
(** Whether the address lies on the current-class block grid. *)

val usable : t -> int -> bool
(** Block [b] can be handed out: bit clear and (when morphing) not
    overlapped by live old-class blocks. *)

val occupancy_ratio : t -> float
(** Allocated blocks / total blocks (the paper's Ratio_occupy). Counts
    morph-pinned blocks as allocated. *)

(** {1 Volatile free set} *)

val free_mem : t -> int -> bool
(** Block [b] is in the free set. *)

val free_put : t -> int -> unit
(** Add block [b] to the free set (asserts it is absent);
    increments [free_count]. *)

val free_take_first : t -> int
(** Claim and return the lowest-index free block (word-scan first-fit),
    [-1] when the free set is empty. *)

val iter_free : t -> (int -> unit) -> unit
(** Apply to every free block index, ascending. *)

val recompute_free : Pmem.Device.t -> t -> unit
(** Rebuild the free set (and [free_count]) from the persistent bitmap
    and the morph pins: free = bit clear and {!usable}. Allocates a fresh
    bitset sized to the current layout — call after a morph swaps the
    layout or after recovery rebuilds the bitmap. *)

(** {1 Morphing support} *)

val pack_index_entry : block:int -> allocated:bool -> int
val unpack_index_entry : int -> int * bool
val old_block_index : morph -> int -> int
(** [old_block_index m off] is the old-class block index for a
    slab-relative byte offset [off], provided it lies on the old block
    grid and that block is live; [-1] otherwise. Lookups on the
    allocation path return [-1] for "none", never an option, so they
    allocate nothing. *)

val first_overlap : t -> morph -> int -> int
val last_overlap : t -> morph -> int -> int
(** [first_overlap t m old_b] to [last_overlap t m old_b] is the
    inclusive range of current-class block indices overlapped by
    old-class block [old_b] (clamped to valid blocks; empty when the
    last is below the first). Two ints, so no tuple is built. *)

(** {1 Recovery} *)

val recover :
  ?mutation:Mutation.t ->
  Pmem.Device.t -> addr:int -> arena:int -> mapping:Bitmap.mapping -> t * bool
(** Rebuild a vslab from its persistent header (section 4.4). If the
    header's flag shows a morph was torn by a crash, the transformation is
    undone first: flag 1 resets the copied old-class fields; flag 2
    additionally restores the class field and rebuilds the old bitmap
    from the index table. Returns [(vslab, undone)]; when [undone] the
    caller must flush the whole header+bitmap area. Morphing state
    (old_live, cnt_slab, cnt_block) is reconstructed from the index
    table for slabs still hosting two classes, with the old data offset
    re-derived from [old_class] via {!layout_of_class}. [mutation] reaches
    the class decode (see {!read_class}). *)
