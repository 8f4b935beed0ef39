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

(* One record per chunk, made at its first grab and reset at each one. *)
type vchunk = {
  idx : int;
  valid : Bytes.t;  (** one byte per slot, non-zero while its entry is live *)
  mutable in_use : bool;
  mutable live : int;  (** live normal entries *)
  mutable tombs : int;  (** tombstones not yet retired *)
  mutable next_slot : int;
  tomb_refs : int array;  (** the tombstones that target this chunk *)
  mutable ntomb_refs : int;
}

let unused_chunk =
  { idx = -1; valid = Bytes.empty; in_use = false; live = 0; tombs = 0; next_slot = 0;
    tomb_refs = [||]; ntomb_refs = 0 }

type t = {
  dev : Pmem.Device.t;
  base : int;
  nchunks : int;
  interleave : bool;
  vchunks : vchunk array; (* by chunk index; [unused_chunk] until first use *)
  mutable used_chunks : int;
  mutable free : int list;
  mutable next_unused : int;
  mutable head : int;
  mutable tail : int;
  list_prev : int array;
  list_next : int array;
  mutable alt : int;
  mutable slow_runs : int;
  replicate : bool; (* maintain the header's guard replica (media model) *)
  guard : Guard.record; (* [guard_record] of this log, built once *)
  mutable victims : int array; (* fast GC's chunk buffer, made at its first run *)
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

  (* Commit lengths from the header's start: the alt byte alone, or the
     alt byte through both list heads (the guarded bytes). *)
  let alt_len = 1
  let heads_len = 12
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
    len = Hdr.heads_len;
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
    Pstruct.array l "entries" ~off:Pmem.Cacheline.size ~count:entries_per_chunk Pstruct.Int

  let () = Pstruct.seal l ~size:chunk_bytes

  (* Flush lengths from the chunk's start: the next pointer alone, or it
     and the active flag. *)
  let next_len = 4
  let header_len = 5
end

(* Header commits flush [len] bytes from the header's start. *)
let commit_header t clock ~len =
  Guard.refresh t.dev t.guard;
  Pmem.Device.commit_flush t.dev clock Pmem.Stats.Log ~addr:t.base ~len;
  if t.replicate then Guard.write_replica t.dev clock t.guard

let write_list_head t clock head =
  Pstruct.set_elt t.dev ~base:t.base Hdr.ptrs t.alt (head + 1);
  commit_header t clock ~len:Hdr.heads_len

let write_chunk_next t clock c next =
  let base = chunk_base t c in
  Pstruct.set t.dev ~base Chunk.next (next + 1);
  Pmem.Device.commit_flush t.dev clock Pmem.Stats.Log ~addr:base ~len:Chunk.next_len

(* --- entry encoding ----------------------------------------------------- *)

let code_extent = 1
let code_slab = 2
let code_tomb = 3

(* Entries are written as OCaml ints. The payload field is 36 bits on
   media; asserting 34 keeps the word a non-negative int, stored with the
   same bits as the int64 it stands for. *)
let encode ~code ~size4k ~payload =
  assert (size4k >= 0 && size4k < 1 lsl 26);
  assert (payload >= 0 && payload < 1 lsl 34);
  code lor (size4k lsl 2) lor (payload lsl 28)

let decode v = (v land 3, (v lsr 2) land 0x3FFFFFF, v lsr 28)

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
  let guard = guard_record ~base ~chunks in
  Pstruct.set dev ~base Hdr.alt 0;
  Pstruct.set_elt dev ~base Hdr.ptrs 0 0;
  Pstruct.set_elt dev ~base Hdr.ptrs 1 0;
  Guard.refresh dev guard;
  if replicate then
    (* Volatile-only here; the caller persists the whole init image. *)
    Pmem.Device.blit dev ~src:guard.Guard.primary ~dst:guard.Guard.replica
      ~len:(guard.Guard.len + 2);
  {
    dev;
    base;
    nchunks = chunks;
    interleave;
    vchunks = Array.make chunks unused_chunk;
    used_chunks = 0;
    free = [];
    next_unused = 0;
    head = none;
    tail = none;
    list_prev = Array.make chunks none;
    list_next = Array.make chunks none;
    alt = 0;
    slow_runs = 0;
    replicate;
    guard;
    victims = [||];
  }

let chunks_in_use t = t.used_chunks
let slow_gc_runs t = t.slow_runs

let needs_slow_gc t ~threshold =
  float_of_int (chunks_in_use t) >= threshold *. float_of_int t.nchunks

(* --- chunk allocation --------------------------------------------------- *)

exception Full

let grab_chunk t clock =
  let idx =
    match t.free with
    | c :: rest ->
        t.free <- rest;
        (* Stale entries from the previous life of the chunk must not be
           replayable: zero the whole chunk. Sequential writes, cheap. *)
        let base = chunk_base t c in
        Pmem.Device.fill t.dev base chunk_bytes '\000';
        Pmem.Device.flush t.dev clock Pmem.Stats.Log ~addr:base ~len:chunk_bytes;
        c
    | [] ->
        if t.next_unused >= t.nchunks then raise Full;
        let c = t.next_unused in
        t.next_unused <- c + 1;
        c
  in
  let base = chunk_base t idx in
  Pstruct.set t.dev ~base Chunk.next 0;
  Pstruct.set t.dev ~base Chunk.active 1;
  Pmem.Device.flush t.dev clock Pmem.Stats.Log ~addr:base ~len:Chunk.header_len;
  if t.vchunks.(idx) == unused_chunk then
    t.vchunks.(idx) <-
      { unused_chunk with idx; valid = Bytes.make entries_per_chunk '\000';
        tomb_refs = Array.make entries_per_chunk 0 };
  let vc = t.vchunks.(idx) in
  Bytes.fill vc.valid 0 entries_per_chunk '\000';
  vc.in_use <- true;
  vc.live <- 0;
  vc.tombs <- 0;
  vc.next_slot <- 0;
  vc.ntomb_refs <- 0;
  t.used_chunks <- t.used_chunks + 1;
  vc

let release_chunk t vc =
  vc.in_use <- false;
  t.used_chunks <- t.used_chunks - 1

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

let tail_vchunk t clock =
  let vc = if t.tail = none then unused_chunk else t.vchunks.(t.tail) in
  if vc.in_use && vc.next_slot < entries_per_chunk then vc
  else begin
    let vc = grab_chunk t clock in
    link_tail t clock vc;
    vc
  end

(* --- appends ------------------------------------------------------------ *)

(* Write one entry at the tail; returns its reference. *)
let append_raw t clock ~code ~size4k ~payload =
  let vc = tail_vchunk t clock in
  let s = vc.next_slot in
  vc.next_slot <- s + 1;
  let base = chunk_base t vc.idx in
  Pstruct.set_elt t.dev ~base Chunk.entries (slot_index ~interleave:t.interleave s)
    (encode ~code ~size4k ~payload);
  Pmem.Device.flush t.dev clock Pmem.Stats.Log ~addr:(base + slot_offset ~interleave:t.interleave s)
    ~len:8;
  (vc.idx * ref_stride) + s

let vchunk_of t r = t.vchunks.(r / ref_stride)

(* The normal entry just appended at [r] is live. *)
let mark_live t r =
  let vc = vchunk_of t r in
  Bytes.set vc.valid (r mod ref_stride) '\001';
  vc.live <- vc.live + 1

let append_normal t clock kind ~addr ~size =
  assert (addr mod 4096 = 0 && size mod 4096 = 0);
  let code = match kind with Extent -> code_extent | Slab_extent -> code_slab in
  let r = append_raw t clock ~code ~size4k:(size / 4096) ~payload:(addr / 4096) in
  mark_live t r;
  r

let retire_tombstones_for t retired =
  for i = 0 to retired.ntomb_refs - 1 do
    let vc = vchunk_of t retired.tomb_refs.(i) in
    if vc.in_use then vc.tombs <- vc.tombs - 1
  done;
  retired.ntomb_refs <- 0

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

(* Store in [t.victims], in increasing index order from chunk [i], the
   chunks fast GC may retire: in use, with nothing live and no pending
   tombstone. The tail keeps receiving appends; never retire it. Returns
   the count, [n] plus those found. *)
let rec collect_victims t i n =
  if i = t.nchunks then n
  else
    let vc = t.vchunks.(i) in
    if vc.in_use && vc.live = 0 && vc.tombs = 0 && i <> t.tail then begin
      t.victims.(n) <- i;
      collect_victims t (i + 1) (n + 1)
    end
    else collect_victims t (i + 1) n

(* Rounds until one finds nothing: retiring a chunk retires the
   tombstones that target it, which may free more. Each round retires in
   decreasing index order. *)
let rec fast_gc_rounds t clock freed =
  let n = collect_victims t 0 0 in
  for j = n - 1 downto 0 do
    let vc = t.vchunks.(t.victims.(j)) in
    unlink_chunk t clock vc.idx;
    release_chunk t vc;
    t.free <- vc.idx :: t.free;
    retire_tombstones_for t vc
  done;
  if n = 0 then freed else fast_gc_rounds t clock (freed + n)

let fast_gc t clock =
  if Array.length t.victims = 0 then t.victims <- Array.make t.nchunks 0;
  fast_gc_rounds t clock 0

let append_tombstone t clock ref_ =
  let target = vchunk_of t ref_ and target_slot = ref_ mod ref_stride in
  let self_ref = append_raw t clock ~code:code_tomb ~size4k:0 ~payload:ref_ in
  let vc = vchunk_of t self_ref in
  vc.tombs <- vc.tombs + 1;
  assert (target.in_use && Bytes.get target.valid target_slot <> '\000');
  Bytes.set target.valid target_slot '\000';
  target.live <- target.live - 1;
  target.tomb_refs.(target.ntomb_refs) <- self_ref;
  target.ntomb_refs <- target.ntomb_refs + 1

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
    let vc = t.vchunks.(!c) in
    assert vc.in_use;
    for s = 0 to vc.next_slot - 1 do
      if Bytes.get vc.valid s <> '\000' then begin
        let v =
          Pstruct.get_elt t.dev ~base:(chunk_base t vc.idx) Chunk.entries
            (slot_index ~interleave:t.interleave s)
        in
        let code, size4k, payload = decode v in
        assert (code = code_extent || code = code_slab);
        live := ((vc.idx * ref_stride) + s, code, size4k, payload) :: !live
      end
    done;
    c := t.list_next.(!c)
  done;
  let live = List.rev !live in
  (* Retire every chunk (the list keeps decreasing index order), then
     build the new list on fresh chunks. *)
  let old_chunks = ref [] in
  Array.iter
    (fun vc ->
      if vc.in_use then begin
        old_chunks := vc.idx :: !old_chunks;
        release_chunk t vc
      end)
    t.vchunks;
  t.head <- none;
  t.tail <- none;
  t.alt <- 1 - t.alt;
  let remap = ref [] in
  List.iter
    (fun (old_ref, code, size4k, payload) ->
      let r = append_raw t clock ~code ~size4k ~payload in
      mark_live t r;
      remap := (old_ref, r) :: !remap)
    live;
  (* Publish the new list by flipping the alt bit, then recycle. *)
  Pstruct.set t.dev ~base:t.base Hdr.alt t.alt;
  commit_header t clock ~len:Hdr.alt_len;
  t.free <- !old_chunks @ t.free;
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
      if v <> 0 then begin
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
      vchunks = Array.make chunks unused_chunk;
      used_chunks = 0;
      free = List.filter (fun i -> not in_old.(i)) (List.init chunks (fun i -> i));
      next_unused = chunks;
      head = none;
      tail = none;
      list_prev = Array.make chunks none;
      list_next = Array.make chunks none;
      alt = 1 - alt;
      slow_runs = 0;
      replicate;
      guard = guard_record ~base ~chunks;
      victims = [||];
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
  commit_header t clock ~len:Hdr.alt_len;
  (* The old chain is now garbage: hand its chunks to the free pool. *)
  for i = 0 to chunks - 1 do
    if in_old.(i) then t.free <- i :: t.free
  done;
  (t, live')

let verify_guard dev clock ~base ~chunks =
  Guard.verify_repair dev clock (guard_record ~base ~chunks)
