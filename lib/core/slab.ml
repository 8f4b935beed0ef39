let slab_bytes = 65536
let index_capacity = 512
let magic = 0x51AB
let fixed_header = 64
let no_class = 0xFF

type layout = {
  class_idx : int;
  block_size : int;
  nblocks : int;
  bitmap_lines : int;
  index_off : int;
  data_off : int;
}

let align64 n = (n + 63) land lnot 63

(* The index table sits at a fixed offset before the bitmap so that a
   morph's step-2 index writes can never clobber the old bitmap, which the
   crash-undo path may still need while the flag is 1. The header's guard
   replica (a mirrored copy of the packed word plus checksum, see
   {!Guard}) gets its own cache line between the index table and the
   bitmap: damage to the header line and to its replica are independent
   faults. *)
let index_off = fixed_header
let replica_off = fixed_header + (index_capacity * 2)
let bitmap_off = replica_off + Pmem.Cacheline.size

let layout_of_class ~class_idx ~mapping =
  let block_size = Size_class.size_of class_idx in
  let rec fix nblocks =
    let lines = Bitmap.lines_for ~nbits:nblocks ~mapping in
    let data_off = align64 (bitmap_off + (lines * Pmem.Cacheline.size)) in
    let nblocks' = (slab_bytes - data_off) / block_size in
    if nblocks' = nblocks then
      { class_idx; block_size; nblocks; bitmap_lines = lines; index_off; data_off }
    else fix nblocks'
  in
  let l = fix ((slab_bytes - bitmap_off) / block_size) in
  assert (l.nblocks > 0);
  l

type t = {
  addr : int;
  arena : int;
  mutable layout : layout;
  mutable bitmap : Bitmap.t;
  mutable free_count : int;
  mutable avail : int array;
  mutable tcached : int; (* blocks popped to tcaches while unmarked (IC variant) *)
  mutable freelist_node : t Support.Dlist.node option;
  mutable lru_node : t Support.Dlist.node option;
  mutable morph : morph option;
  mutable dying : bool;
  mutable quarantined : bool;
}

and morph = {
  old_class : int;
  old_block_size : int;
  old_data_off : int;
  mutable cnt_slab : int;
  cnt_block : int array;
  old_live : (int, int) Hashtbl.t;
}

(* --- packed persistent header --------------------------------------------

   Every header field lives in one 64-bit word (see the .mli bit diagram):

     0..15  magic        16..23 size class    24..25 morph flag
     26..33 old class    34..43 index count   44..49 arena
     50..62 free hint    63     always 0

   so a header commit dirties a single cache line, an aligned 8-byte
   store is crash-atomic under the torn-store model, and bit 63 staying
   zero makes the word a lossless OCaml int. [free hint] is advisory
   (refreshed only inside header commits, recomputed by recovery). *)

module Hdr = struct
  let l = Pstruct.layout "slab.header"
  let word = Pstruct.i64 l "packed" ~off:0
  let cksum = Pstruct.u16 l "cksum" ~off:8
  let () = Pstruct.seal l ~size:fixed_header
end

let shift_magic = 0
and shift_class = 16
and shift_flag = 24
and shift_old_class = 26
and shift_index_count = 34
and shift_arena = 44
and shift_free_hint = 50

let mask_magic = 0xFFFF
and mask_class = 0xFF
and mask_flag = 0x3
and mask_old_class = 0xFF
and mask_index_count = 0x3FF
and mask_arena = 0x3F
and mask_free_hint = 0x1FFF

let () = assert (Size_class.count < no_class)

let get_bits w ~shift ~mask = (w lsr shift) land mask

let set_bits w ~shift ~mask v =
  assert (v land lnot mask = 0);
  w land lnot (mask lsl shift) lor (v lsl shift)

let read_word dev addr = Int64.to_int (Pstruct.get dev ~base:addr Hdr.word)
let write_word dev addr w = Pstruct.set dev ~base:addr Hdr.word (Int64.of_int w)

(* [Mutation.Header] mis-decodes the class field by flipping its lowest
   bit, as a mispacked shift would. Read-side only, so the persistent
   image stays intact and the defect is purely a decoder bug for the
   walkers to catch. *)
let word_class ~mutation w =
  let c = get_bits w ~shift:shift_class ~mask:mask_class in
  match mutation with Mutation.Header -> c lxor 1 | _ -> c

(* Guarded bytes: the packed word; checksum at offset 8. *)
let guarded_len = 8

let guard_record addr =
  {
    Guard.primary = addr;
    len = guarded_len;
    p_ck = addr + guarded_len;
    replica = addr + replica_off;
    r_ck = addr + replica_off + guarded_len;
    cat = Pmem.Stats.Meta;
  }

let _ = Hdr.cksum

(* The index table: packed u16 entries at a fixed offset. *)
module Index = struct
  let l = Pstruct.layout "slab.index"
  let entries = Pstruct.array l "entries" ~off:0 ~count:index_capacity Pstruct.U16
  let () = Pstruct.seal l ~size:(index_capacity * 2)
end

let header_addr t = t.addr
let bitmap_addr t = t.addr + bitmap_off
let index_entry_addr t i = t.addr + t.layout.index_off + (2 * i)
let read_index_entry dev addr i = Pstruct.get_elt dev ~base:(addr + index_off) Index.entries i
let write_index_entry dev addr i v = Pstruct.set_elt dev ~base:(addr + index_off) Index.entries i v
let index_entry_span addr i = Pstruct.elt_span ~base:(addr + index_off) Index.entries i

(* The span the morph protocol commits when it flushes "the header": the
   packed word and its checksum, well inside the slab's first line. *)
let header_commit_span addr = Pstruct.span_of ~addr ~len:16

let read_class ?(mutation = Mutation.Off) dev addr = word_class ~mutation (read_word dev addr)
let is_slab_header dev addr = get_bits (read_word dev addr) ~shift:shift_magic ~mask:mask_magic = magic

module Header = struct
  let rmw dev addr ~shift ~mask v = write_word dev addr (set_bits (read_word dev addr) ~shift ~mask v)
  let write_class dev addr v = rmw dev addr ~shift:shift_class ~mask:mask_class v
  let read_flag dev addr = get_bits (read_word dev addr) ~shift:shift_flag ~mask:mask_flag
  let write_flag dev addr v = rmw dev addr ~shift:shift_flag ~mask:mask_flag v
  let read_old_class dev addr = get_bits (read_word dev addr) ~shift:shift_old_class ~mask:mask_old_class
  let write_old_class dev addr v = rmw dev addr ~shift:shift_old_class ~mask:mask_old_class v
  let read_index_count dev addr =
    get_bits (read_word dev addr) ~shift:shift_index_count ~mask:mask_index_count
  let write_index_count dev addr v = rmw dev addr ~shift:shift_index_count ~mask:mask_index_count v
  let read_arena dev addr = get_bits (read_word dev addr) ~shift:shift_arena ~mask:mask_arena
  let write_arena dev addr v = rmw dev addr ~shift:shift_arena ~mask:mask_arena v
  let read_free_hint dev addr =
    get_bits (read_word dev addr) ~shift:shift_free_hint ~mask:mask_free_hint
  let write_free_hint dev addr v = rmw dev addr ~shift:shift_free_hint ~mask:mask_free_hint v
  let no_class = no_class
end

(* --- volatile free-block bitset ------------------------------------------

   One bit per block, 1 = available to hand out: O(1) membership, no
   duplicates by construction, and first-fit is a word scan. Refill takes
   every block here. Outside morphs and internal collection the set is
   exactly the persistent bitmap's clear bits, so first-fit picks the
   block a bitmap scan would, without reading the device. *)

let avail_bits = 32

let avail_words n = (n + avail_bits - 1) / avail_bits

let free_mem t b = t.avail.(b / avail_bits) land (1 lsl (b mod avail_bits)) <> 0

let free_put t b =
  assert (not (free_mem t b));
  t.avail.(b / avail_bits) <- t.avail.(b / avail_bits) lor (1 lsl (b mod avail_bits));
  t.free_count <- t.free_count + 1

let free_claim t b =
  assert (free_mem t b);
  t.avail.(b / avail_bits) <- t.avail.(b / avail_bits) land lnot (1 lsl (b mod avail_bits));
  t.free_count <- t.free_count - 1

let free_take_first t =
  let n = Array.length t.avail in
  let i = ref 0 in
  while !i < n && t.avail.(!i) = 0 do
    incr i
  done;
  if !i >= n then -1
  else begin
    let w = t.avail.(!i) in
    let j = ref 0 in
    while w land (1 lsl !j) = 0 do
      incr j
    done;
    let b = (!i * avail_bits) + !j in
    free_claim t b;
    b
  end

let iter_free t f =
  for b = 0 to t.layout.nblocks - 1 do
    if free_mem t b then f b
  done

let usable t b =
  match t.morph with
  | None -> true
  | Some m -> m.cnt_block.(b) = 0

(* Recompute the free set from the persistent bitmap and the morph pins.
   A pinned block's bit is normally set, but a crash inside an old-block
   release can leave it already cleared (bits are cleared before the
   index-entry commit); such a block must stay out of the free set — the
   release will add it when it re-runs and the pin drops. *)
let recompute_free dev t =
  t.avail <- Array.make (avail_words t.layout.nblocks) 0;
  t.free_count <- 0;
  for b = 0 to t.layout.nblocks - 1 do
    if (not (Bitmap.get dev t.bitmap b)) && usable t b then free_put t b
  done

let dummy =
  let mapping = Bitmap.Sequential in
  { addr = -1; arena = -1; layout = layout_of_class ~class_idx:0 ~mapping;
    bitmap = Bitmap.make ~base:0 ~nbits:1 ~mapping; free_count = 0; avail = [||]; tcached = 0;
    freelist_node = None; lru_node = None; morph = None; dying = false; quarantined = false }

let format dev ~addr ~arena ~mapping layout =
  assert (addr mod 4096 = 0);
  assert (arena land lnot mask_arena = 0);
  assert (layout.nblocks land lnot mask_free_hint = 0);
  let w = magic in
  let w = set_bits w ~shift:shift_class ~mask:mask_class layout.class_idx in
  let w = set_bits w ~shift:shift_old_class ~mask:mask_old_class no_class in
  let w = set_bits w ~shift:shift_arena ~mask:mask_arena arena in
  let w = set_bits w ~shift:shift_free_hint ~mask:mask_free_hint layout.nblocks in
  write_word dev addr w;
  Guard.refresh dev (guard_record addr);
  Pmem.Device.fill dev (addr + bitmap_off) (layout.bitmap_lines * Pmem.Cacheline.size) '\000';
  let bitmap = Bitmap.make ~base:(addr + bitmap_off) ~nbits:layout.nblocks ~mapping in
  assert (bitmap.Bitmap.lines = layout.bitmap_lines);
  let avail = Array.make (avail_words layout.nblocks) 0 in
  let t =
    {
      addr;
      arena;
      layout;
      bitmap;
      free_count = 0;
      avail;
      tcached = 0;
      freelist_node = None;
      lru_node = None;
      morph = None;
      dying = false;
      quarantined = false;
    }
  in
  for b = 0 to layout.nblocks - 1 do
    free_put t b
  done;
  t

let block_addr t b = t.addr + t.layout.data_off + (b * t.layout.block_size)
let old_block_addr t m b = t.addr + m.old_data_off + (b * m.old_block_size)

let block_index t addr =
  let off = addr - t.addr - t.layout.data_off in
  assert (off >= 0 && off mod t.layout.block_size = 0);
  let b = off / t.layout.block_size in
  assert (b < t.layout.nblocks);
  b

let contains_new_block t addr =
  let off = addr - t.addr - t.layout.data_off in
  off >= 0
  && off mod t.layout.block_size = 0
  && off / t.layout.block_size < t.layout.nblocks

let occupancy_ratio t =
  let total = t.layout.nblocks in
  float_of_int (total - t.free_count) /. float_of_int total

let pack_index_entry ~block ~allocated =
  assert (block >= 0 && block < 4096);
  block lor (if allocated then 0x8000 else 0)

let unpack_index_entry e = (e land 0x0FFF, e land 0x8000 <> 0)

let old_block_index m addr_off =
  (* [addr_off] is the slab-relative offset of the freed address. *)
  let off = addr_off - m.old_data_off in
  if off < 0 || off mod m.old_block_size <> 0 then -1
  else
    let b = off / m.old_block_size in
    if Hashtbl.mem m.old_live b then b else -1

let first_overlap t m old_b =
  let start = m.old_data_off + (old_b * m.old_block_size) - t.layout.data_off in
  if start <= 0 then 0 else start / t.layout.block_size

let last_overlap t m old_b =
  let stop = m.old_data_off + ((old_b + 1) * m.old_block_size) - t.layout.data_off in
  min (t.layout.nblocks - 1) (if stop <= 0 then -1 else (stop - 1) / t.layout.block_size)

(* --- recovery -------------------------------------------------------------- *)

let rebuild_vslab ~mutation dev ~addr ~arena ~mapping =
  let class_idx = read_class ~mutation dev addr in
  let layout = layout_of_class ~class_idx ~mapping in
  (* The persisted arena index may disagree with the caller's placement
     (older images, or recovery rebalancing slabs round-robin); the caller
     wins and the word is rewritten so the persistent image matches. The
     word is crash-atomic, so a crash before this persists just means the
     next recovery repeats the fix. *)
  if Header.read_arena dev addr <> arena then begin
    Header.write_arena dev addr (arena land mask_arena);
    Guard.refresh dev (guard_record addr)
  end;
  let bitmap = Bitmap.make ~base:(addr + bitmap_off) ~nbits:layout.nblocks ~mapping in
  let s =
    {
      addr;
      arena;
      layout;
      bitmap;
      free_count = 0;
      avail = Array.make (avail_words layout.nblocks) 0;
      tcached = 0;
      freelist_node = None;
      lru_node = None;
      morph = None;
      dying = false;
      quarantined = false;
    }
  in
  (* Morphing state survives in the index table while old-class blocks are
     still live. *)
  let old_class = Header.read_old_class dev addr in
  let index_count = Header.read_index_count dev addr in
  if old_class <> no_class && index_count > 0 then begin
    let old_layout = layout_of_class ~class_idx:old_class ~mapping in
    let old_live = Hashtbl.create 16 in
    let cnt_block = Array.make layout.nblocks 0 in
    let m =
      {
        old_class;
        old_block_size = old_layout.block_size;
        old_data_off = old_layout.data_off;
        cnt_slab = 0;
        cnt_block;
        old_live;
      }
    in
    for slot = 0 to index_count - 1 do
      let b, allocated = unpack_index_entry (read_index_entry dev addr slot) in
      if allocated then begin
        Hashtbl.replace old_live b slot;
        m.cnt_slab <- m.cnt_slab + 1;
        for j = first_overlap s m b to last_overlap s m b do
          cnt_block.(j) <- cnt_block.(j) + 1
        done
      end
    done;
    if m.cnt_slab > 0 then s.morph <- Some m
  end;
  recompute_free dev s;
  s

let undo_morph dev ~addr ~mapping =
  let flag = Header.read_flag dev addr in
  assert (flag = 1 || flag = 2);
  if flag = 2 then begin
    (* The new class field and bitmap may be partially written: restore
       the old class and rebuild its bitmap from the index table. *)
    let old_class = Header.read_old_class dev addr in
    let old_layout = layout_of_class ~class_idx:old_class ~mapping in
    Header.write_class dev addr old_class;
    let bitmap = Bitmap.make ~base:(addr + bitmap_off) ~nbits:old_layout.nblocks ~mapping in
    Pmem.Device.fill dev (addr + bitmap_off) (Bitmap.bytes bitmap) '\000';
    let index_count = Header.read_index_count dev addr in
    for slot = 0 to index_count - 1 do
      let b, allocated = unpack_index_entry (read_index_entry dev addr slot) in
      if allocated then Bitmap.set dev bitmap b
    done
  end;
  Header.write_old_class dev addr no_class;
  Header.write_index_count dev addr 0;
  Header.write_flag dev addr 0;
  (* The stale hint may exceed the restored class's block count; zero is
     always in range and recovery recomputes the real free set anyway. *)
  Header.write_free_hint dev addr 0;
  Guard.refresh dev (guard_record addr)

let recover ?(mutation = Mutation.Off) dev ~addr ~arena ~mapping =
  let flag = Header.read_flag dev addr in
  let undone = flag = 1 || flag = 2 in
  if undone then undo_morph dev ~addr ~mapping;
  (rebuild_vslab ~mutation dev ~addr ~arena ~mapping, undone)
