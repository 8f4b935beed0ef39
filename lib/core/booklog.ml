module Int_rb = Support.Rbtree.Make (Int)

type entry_ref = int
type kind = Extent | Slab_extent
type scanned = { ref_ : entry_ref; kind : kind; addr : int; size : int }

let chunk_bytes = 1024
let chunk_lines = chunk_bytes / Pmem.Cacheline.size (* 16 *)
let entry_lines = chunk_lines - 1 (* line 0 is the chunk header *)
let entries_per_line = Pmem.Cacheline.size / 8 (* 8 *)
let entries_per_chunk = entry_lines * entries_per_line (* 120 *)
let ref_stride = 128
let none = -1

type vchunk = {
  idx : int;
  valid : bool array;
  mutable live : int;  (** live normal entries *)
  mutable tombs : int;  (** tombstones not yet retired *)
  mutable next_slot : int;
}

type t = {
  dev : Pmem.Device.t;
  base : int;
  nchunks : int;
  interleave : bool;
  vchunks : vchunk Int_rb.t;
  mutable free : int list;
  mutable next_unused : int;
  mutable head : int;
  mutable tail : int;
  list_prev : int array;
  list_next : int array;
  tomb_index : (int, entry_ref list) Hashtbl.t;
  mutable alt : int;
  mutable fast_runs : int;
  mutable slow_runs : int;
  replicate : bool; (* maintain the header's guard replica (media model) *)
}

(* Header line, chunk array, one trailing guard-replica line. *)
let region_bytes ~chunks = Pmem.Cacheline.size + (chunks * chunk_bytes) + Pmem.Cacheline.size
let chunk_base t c = t.base + Pmem.Cacheline.size + (c * chunk_bytes)

(* --- persistent header / chunk layouts --------------------------------- *)

(* Region header line: the alt bit selects which of the two list-head
   pointers is current (pointers are chunk index + 1; 0 = empty list). *)
module Hdr = struct
  let l = Pstruct.layout "booklog.header"
  let alt = Pstruct.u8 l "alt" ~off:0
  let ptrs = Pstruct.array l "ptr" ~off:4 ~count:2 Pstruct.U32
  let cksum = Pstruct.u16 l "cksum" ~off:12
  let () = Pstruct.seal l ~size:Pmem.Cacheline.size
end

let _ = Hdr.cksum

(* Media guard over the header's guarded bytes (alt bit + both list-head
   pointers, bytes 0..11): checksum at offset 12 on the same line
   (refreshed inside every header commit for free), replica on the
   region's trailing line. A replica lagging by one header commit rolls
   the alt flip or a list-head update back to its pre-commit state —
   exactly a crash-before-commit image, which the scan/compaction path
   already handles (the old chain stays intact until the flip). *)
let guard_record ~base ~chunks =
  {
    Guard.primary = base;
    len = 12;
    p_ck = base + 12;
    replica = base + Pmem.Cacheline.size + (chunks * chunk_bytes);
    r_ck = base + Pmem.Cacheline.size + (chunks * chunk_bytes) + 12;
    cat = Pmem.Stats.Log;
  }

(* A chunk: header line (next pointer + active flag), then 15 lines of
   packed 8 B entries. *)
module Chunk = struct
  let l = Pstruct.layout "booklog.chunk"
  let next = Pstruct.u32 l "next" ~off:0
  let active = Pstruct.u8 l "active" ~off:4

  let entries =
    Pstruct.array l "entries" ~off:Pmem.Cacheline.size ~count:entries_per_chunk Pstruct.I64

  let () = Pstruct.seal l ~size:chunk_bytes
end

let guard t = guard_record ~base:t.base ~chunks:t.nchunks

let commit_header t clock span =
  Guard.refresh t.dev (guard t);
  Pstruct.commit t.dev clock Pmem.Stats.Log span;
  if t.replicate then Guard.write_replica t.dev clock (guard t)

let write_list_head t clock head =
  Pstruct.set_elt t.dev ~base:t.base Hdr.ptrs t.alt (head + 1);
  commit_header t clock
    (Pstruct.union (Pstruct.span ~base:t.base Hdr.alt) (Pstruct.arr_span ~base:t.base Hdr.ptrs))

let write_chunk_next t clock c next =
  let base = chunk_base t c in
  Pstruct.set t.dev ~base Chunk.next (next + 1);
  Pstruct.commit t.dev clock Pmem.Stats.Log (Pstruct.span ~base Chunk.next)

(* --- entry encoding ----------------------------------------------------- *)

let code_extent = 1
let code_slab = 2
let code_tomb = 3

let encode ~code ~size4k ~payload =
  assert (size4k >= 0 && size4k < 1 lsl 26);
  assert (payload >= 0 && payload < 1 lsl 36);
  Int64.logor
    (Int64.of_int code)
    (Int64.logor
       (Int64.shift_left (Int64.of_int size4k) 2)
       (Int64.shift_left (Int64.of_int payload) 28))

let decode v =
  let code = Int64.to_int (Int64.logand v 3L) in
  let size4k = Int64.to_int (Int64.logand (Int64.shift_right_logical v 2) 0x3FFFFFFL) in
  let payload = Int64.to_int (Int64.shift_right_logical v 28) in
  (code, size4k, payload)

(* Logical slot -> byte offset within the chunk. Interleaving rotates
   consecutive entries across the chunk's 15 entry lines. *)
let slot_offset ~interleave s =
  assert (s >= 0 && s < entries_per_chunk);
  let line, pos =
    if interleave then (1 + (s mod entry_lines), s / entry_lines)
    else (1 + (s / entries_per_line), s mod entries_per_line)
  in
  (line * Pmem.Cacheline.size) + (pos * 8)

(* Physical entry index within the chunk's entry array. *)
let slot_index ~interleave s = (slot_offset ~interleave s - Pmem.Cacheline.size) / 8

(* --- construction ------------------------------------------------------- *)

let create ?(replicate = false) dev ~base ~chunks ~interleave =
  Pstruct.set dev ~base Hdr.alt 0;
  Pstruct.set_elt dev ~base Hdr.ptrs 0 0;
  Pstruct.set_elt dev ~base Hdr.ptrs 1 0;
  Guard.refresh dev (guard_record ~base ~chunks);
  if replicate then begin
    let r = guard_record ~base ~chunks in
    (* Volatile-only here; the caller persists the whole init image. *)
    Pmem.Device.blit dev ~src:r.Guard.primary ~dst:r.Guard.replica ~len:(r.Guard.len + 2)
  end;
  {
    dev;
    base;
    nchunks = chunks;
    interleave;
    vchunks = Int_rb.create ();
    free = [];
    next_unused = 0;
    head = none;
    tail = none;
    list_prev = Array.make chunks none;
    list_next = Array.make chunks none;
    tomb_index = Hashtbl.create 64;
    alt = 0;
    fast_runs = 0;
    slow_runs = 0;
    replicate;
  }

let chunks_in_use t = Int_rb.cardinal t.vchunks
let capacity_chunks t = t.nchunks
let fast_gc_runs t = t.fast_runs
let slow_gc_runs t = t.slow_runs

let needs_slow_gc t ~threshold =
  float_of_int (chunks_in_use t) >= threshold *. float_of_int t.nchunks

(* --- chunk allocation --------------------------------------------------- *)

exception Full

let grab_chunk t clock =
  let reused, idx =
    match t.free with
    | c :: rest ->
        t.free <- rest;
        (true, c)
    | [] ->
        if t.next_unused >= t.nchunks then raise Full
        else begin
          let c = t.next_unused in
          t.next_unused <- c + 1;
          (false, c)
        end
  in
  let base = chunk_base t idx in
  if reused then begin
    (* Stale entries from the previous life of the chunk must not be
       replayable: zero the whole chunk. Sequential writes, cheap. *)
    Pmem.Device.fill t.dev base chunk_bytes '\000';
    Pstruct.flush_span t.dev clock Pmem.Stats.Log (Pstruct.layout_span ~base Chunk.l)
  end;
  Pstruct.set t.dev ~base Chunk.next 0;
  Pstruct.set t.dev ~base Chunk.active 1;
  Pstruct.flush_span t.dev clock Pmem.Stats.Log
    (Pstruct.union (Pstruct.span ~base Chunk.next) (Pstruct.span ~base Chunk.active));
  let vc = { idx; valid = Array.make entries_per_chunk false; live = 0; tombs = 0; next_slot = 0 } in
  Int_rb.insert t.vchunks idx vc;
  vc

let link_tail t clock (vc : vchunk) =
  if t.tail = none then begin
    t.head <- vc.idx;
    t.tail <- vc.idx;
    write_list_head t clock vc.idx
  end
  else begin
    t.list_next.(t.tail) <- vc.idx;
    t.list_prev.(vc.idx) <- t.tail;
    write_chunk_next t clock t.tail vc.idx;
    t.tail <- vc.idx
  end

let rec tail_vchunk t clock =
  if t.tail <> none then
    match Int_rb.find_opt t.vchunks t.tail with
    | Some vc when vc.next_slot < entries_per_chunk -> vc
    | _ ->
        let vc = grab_chunk t clock in
        link_tail t clock vc;
        vc
  else begin
    let vc = grab_chunk t clock in
    link_tail t clock vc;
    tail_vchunk t clock
  end

(* --- appends ------------------------------------------------------------ *)

let append_raw t clock ~code ~size4k ~payload =
  let vc = tail_vchunk t clock in
  let s = vc.next_slot in
  vc.next_slot <- s + 1;
  let base = chunk_base t vc.idx in
  let phys = slot_index ~interleave:t.interleave s in
  Pstruct.set_elt t.dev ~base Chunk.entries phys (encode ~code ~size4k ~payload);
  Pstruct.flush_span t.dev clock Pmem.Stats.Log (Pstruct.elt_span ~base Chunk.entries phys);
  (vc, s)

let append_normal t clock kind ~addr ~size =
  assert (addr mod 4096 = 0 && size mod 4096 = 0);
  let code = match kind with Extent -> code_extent | Slab_extent -> code_slab in
  let vc, s = append_raw t clock ~code ~size4k:(size / 4096) ~payload:(addr / 4096) in
  vc.valid.(s) <- true;
  vc.live <- vc.live + 1;
  (vc.idx * ref_stride) + s

let retire_tombstones_for t retired_chunk =
  match Hashtbl.find_opt t.tomb_index retired_chunk with
  | None -> ()
  | Some refs ->
      Hashtbl.remove t.tomb_index retired_chunk;
      List.iter
        (fun r ->
          let c = r / ref_stride in
          match Int_rb.find_opt t.vchunks c with
          | Some vc -> vc.tombs <- vc.tombs - 1
          | None -> ())
        refs

let unlink_chunk t clock idx =
  let prev = t.list_prev.(idx) and next = t.list_next.(idx) in
  if prev = none then begin
    t.head <- next;
    write_list_head t clock next
  end
  else begin
    t.list_next.(prev) <- next;
    write_chunk_next t clock prev next
  end;
  if next <> none then t.list_prev.(next) <- prev;
  if t.tail = idx then t.tail <- prev;
  t.list_prev.(idx) <- none;
  t.list_next.(idx) <- none

let fast_gc t clock =
  t.fast_runs <- t.fast_runs + 1;
  let freed = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    let victims =
      Int_rb.fold
        (fun idx vc acc ->
          (* The tail keeps receiving appends; never retire it. *)
          if vc.live = 0 && vc.tombs = 0 && idx <> t.tail then idx :: acc else acc)
        t.vchunks []
    in
    List.iter
      (fun idx ->
        unlink_chunk t clock idx;
        Int_rb.remove t.vchunks idx;
        t.free <- idx :: t.free;
        retire_tombstones_for t idx;
        incr freed;
        progress := true)
      victims
  done;
  !freed

let append_tombstone t clock ref_ =
  let target_chunk = ref_ / ref_stride and target_slot = ref_ mod ref_stride in
  let vc, s = append_raw t clock ~code:code_tomb ~size4k:0 ~payload:ref_ in
  vc.tombs <- vc.tombs + 1;
  let self_ref = (vc.idx * ref_stride) + s in
  (match Int_rb.find_opt t.vchunks target_chunk with
  | Some target ->
      assert target.valid.(target_slot);
      target.valid.(target_slot) <- false;
      target.live <- target.live - 1
  | None -> assert false);
  Hashtbl.replace t.tomb_index target_chunk
    (self_ref :: Option.value ~default:[] (Hashtbl.find_opt t.tomb_index target_chunk))

let decode_kind = function
  | c when c = code_extent -> Some Extent
  | c when c = code_slab -> Some Slab_extent
  | _ -> None

let slow_gc t clock =
  t.slow_runs <- t.slow_runs + 1;
  (* Collect live entries in list order. *)
  let live = ref [] in
  let c = ref t.head in
  while !c <> none do
    (match Int_rb.find_opt t.vchunks !c with
    | Some vc ->
        for s = 0 to vc.next_slot - 1 do
          if vc.valid.(s) then begin
            let v =
              Pstruct.get_elt t.dev ~base:(chunk_base t vc.idx) Chunk.entries
                (slot_index ~interleave:t.interleave s)
            in
            let code, size4k, payload = decode v in
            assert (code = code_extent || code = code_slab);
            live := ((vc.idx * ref_stride) + s, code, size4k, payload) :: !live
          end
        done
    | None -> assert false);
    c := t.list_next.(!c)
  done;
  let live = List.rev !live in
  let old_chunks = Int_rb.fold (fun idx _ acc -> idx :: acc) t.vchunks [] in
  (* Build the new list on fresh chunks. *)
  let old_vchunks = Int_rb.to_list t.vchunks in
  List.iter (fun (idx, _) -> Int_rb.remove t.vchunks idx) old_vchunks;
  t.head <- none;
  t.tail <- none;
  t.alt <- 1 - t.alt;
  Hashtbl.reset t.tomb_index;
  let remap = ref [] in
  List.iter
    (fun (old_ref, code, size4k, payload) ->
      let vc, s = append_raw t clock ~code ~size4k ~payload in
      vc.valid.(s) <- true;
      vc.live <- vc.live + 1;
      remap := (old_ref, (vc.idx * ref_stride) + s) :: !remap)
    live;
  (* Publish the new list by flipping the alt bit, then recycle. *)
  Pstruct.set t.dev ~base:t.base Hdr.alt t.alt;
  commit_header t clock (Pstruct.span ~base:t.base Hdr.alt);
  t.free <- old_chunks @ t.free;
  Array.fill t.list_prev 0 t.nchunks none;
  Array.fill t.list_next 0 t.nchunks none;
  (* Rebuild volatile list links of the new chain from the entries just
     appended: link order was set by link_tail during appends, so only
     prev/next of the new chunks need restoring. *)
  let rec relink prev c =
    if c <> none then begin
      t.list_prev.(c) <- prev;
      let next = Pstruct.get t.dev ~base:(chunk_base t c) Chunk.next - 1 in
      if prev <> none then t.list_next.(prev) <- c;
      relink c next
    end
  in
  relink none t.head;
  List.rev !remap

(* --- recovery-time decoding --------------------------------------------- *)

let scan dev ~base ~interleave =
  let alt = Pstruct.get dev ~base Hdr.alt in
  let head = Pstruct.get_elt dev ~base Hdr.ptrs alt - 1 in
  let normals : (entry_ref, scanned) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let c = ref head in
  while !c <> none do
    let cb = base + Pmem.Cacheline.size + (!c * chunk_bytes) in
    for s = 0 to entries_per_chunk - 1 do
      let v = Pstruct.get_elt dev ~base:cb Chunk.entries (slot_index ~interleave s) in
      if v <> 0L then begin
        let code, size4k, payload = decode v in
        let ref_ = (!c * ref_stride) + s in
        if code = code_tomb then Hashtbl.remove normals payload
        else
          match decode_kind code with
          | Some kind ->
              Hashtbl.replace normals ref_
                { ref_; kind; addr = payload * 4096; size = size4k * 4096 };
              order := ref_ :: !order
          | None -> ()
      end
    done;
    c := Pstruct.get dev ~base:cb Chunk.next - 1
  done;
  List.filter_map (Hashtbl.find_opt normals) (List.rev !order)

let scanned_chunks dev ~base =
  let alt = Pstruct.get dev ~base Hdr.alt in
  let head = Pstruct.get_elt dev ~base Hdr.ptrs alt - 1 in
  let n = ref 0 in
  let c = ref head in
  while !c <> none do
    incr n;
    let cb = base + Pmem.Cacheline.size + (!c * chunk_bytes) in
    c := Pstruct.get dev ~base:cb Chunk.next - 1
  done;
  !n

(* --- recovery reopen ------------------------------------------------------ *)

let open_existing ?(replicate = false) dev clock ~base ~chunks ~interleave =
  let alt = Pstruct.get dev ~base Hdr.alt in
  (* Chunks of the old chain: excluded from the fresh free pool so that a
     crash during compaction leaves the old chain fully replayable. *)
  let in_old = Array.make chunks false in
  let c = ref (Pstruct.get_elt dev ~base Hdr.ptrs alt - 1) in
  while !c <> none do
    in_old.(!c) <- true;
    c := Pstruct.get dev ~base:(base + Pmem.Cacheline.size + (!c * chunk_bytes)) Chunk.next - 1
  done;
  let live = scan dev ~base ~interleave in
  let t =
    {
      dev;
      base;
      nchunks = chunks;
      interleave;
      vchunks = Int_rb.create ();
      free = List.filter (fun i -> not in_old.(i)) (List.init chunks (fun i -> i));
      next_unused = chunks;
      head = none;
      tail = none;
      list_prev = Array.make chunks none;
      list_next = Array.make chunks none;
      tomb_index = Hashtbl.create 64;
      alt = 1 - alt;
      fast_runs = 0;
      slow_runs = 0;
      replicate;
    }
  in
  (* Compact the live entries into the new chain (section 4.4's slow GC on
     the bookkeeping log), then publish it with the alt-bit flip. *)
  let live' =
    List.map
      (fun s ->
        let new_ref = append_normal t clock s.kind ~addr:s.addr ~size:s.size in
        { s with ref_ = new_ref })
      live
  in
  Pstruct.set t.dev ~base:t.base Hdr.alt t.alt;
  commit_header t clock (Pstruct.span ~base:t.base Hdr.alt);
  (* The old chain is now garbage: hand its chunks to the free pool. *)
  for i = 0 to chunks - 1 do
    if in_old.(i) then t.free <- i :: t.free
  done;
  (t, live')

let verify_guard dev clock ~base ~chunks =
  Guard.verify_repair dev clock (guard_record ~base ~chunks)
