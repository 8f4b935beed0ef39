type kind = Alloc | Free | Refill | Large_alloc | Large_free

let entry_bytes = 16
let entries_per_line = Pmem.Cacheline.size / entry_bytes (* 4 *)
let frame_lines = 16
let frame_entries = frame_lines * entries_per_line (* 64 *)

type t = {
  dev : Pmem.Device.t;
  base : int;
  nentries : int;
  interleave : bool;
  mutable epoch : int; (* 1..255, skipping 0 = never-written *)
  mutable next : int; (* next logical slot *)
  mutable seq : int;
  mutable ready : bool; (* false between [adopt] and [seal] *)
  skip_flush : bool; (* [Mutation.Wal_flush]: the seeded ordering bug *)
  (* Group commit: up to [group_n] appends share one commit record (the
     epoch-tagged watermark in the header) and one fence triple. 0 =
     synchronous (every append flushes and every commit retires inline). *)
  group_n : int;
  mutable gcount : int; (* appends in the open group *)
  (* The open group in preallocated arrays, doubled when outgrown: the
     offsets of its entries still to persist in phase A
     ([gents.(0 .. gnents-1)], each [entry_bytes] long), and its deferred
     metadata commits in arrival order as parallel arrays ([neffects]
     of them). A deferred commit's span flushes in phase C, after the
     entries (phase A) and the commit record (phase B) are durable; its
     declared dependencies are kept only in check mode. *)
  mutable gents : int array;
  mutable gnents : int;
  mutable ecat : Pmem.Stats.category array;
  mutable eaddr : int array;
  mutable elen : int array;
  mutable edeps : (string * Pstruct.span) list array;
  mutable neffects : int;
  skip_record : bool; (* [Mutation.Wal_record]: the seeded commit-record bug *)
  replicate : bool; (* maintain the header's guard replica (media model) *)
  guard : Guard.record; (* [guard_record] of this log, built once *)
}

(* One leading header line, the entry area, one trailing guard-replica
   line (a mirrored copy of the guarded header bytes, see {!Guard}). *)
let region_bytes ~entries =
  assert (entries > 0 && entries mod frame_entries = 0);
  Pmem.Cacheline.size + (entries * entry_bytes) + Pmem.Cacheline.size

let kind_code = function
  | Alloc -> 1
  | Free -> 2
  | Refill -> 3
  | Large_alloc -> 4
  | Large_free -> 5

let kind_of_code = function
  | 1 -> Some Alloc
  | 2 -> Some Free
  | 3 -> Some Refill
  | 4 -> Some Large_alloc
  | 5 -> Some Large_free
  | _ -> None

(* 16-bit entry checksum over every payload field. The entry spans two
   8-byte words of one cache line ([kind epoch ck seq | addr dest]); ADR
   only guarantees 8-byte atomicity, so a crash mid-flush can persist one
   word of a new entry next to the other word's stale content from a
   previous life of the slot. The checksum lives in the first word and
   covers the second, so any torn combination fails validation and replay
   treats the entry as never written — exactly the "operation had not
   completed" semantics the WAL protocol needs. *)
let mix h v =
  let h = (h lxor v) * 0x01000193 land 0x3FFFFFFF in
  h lxor (h lsr 15)

let checksum ~kind ~epoch ~seq ~addr ~dest =
  mix (mix (mix (mix (mix 0x9E37 kind) epoch) seq) addr) dest land 0xFFFF

(* Logical slot [n] -> byte offset of its entry (relative to the entry
   area). Interleaving spreads the 64 entries of a frame across its 16
   lines: consecutive appends land in consecutive lines. *)
(* Header line and packed entry layout. The epoch byte and the group-
   commit record (watermark) share the header's first 8-byte word, so one
   ADR-atomic persist always carries a mutually consistent (epoch,
   watermark) pair — neither can tear away from the other. [gc_epoch] = 0
   marks a synchronous log (no grouping; replay accepts the whole valid
   window); nonzero, the watermark [gc_seq] bounds the committed prefix:
   replay accepts an entry iff its seq is below the watermark of the
   current epoch. *)
module Hdr = struct
  let l = Pstruct.layout "wal.header"
  let epoch = Pstruct.u8 l "epoch" ~off:0
  let gc_epoch = Pstruct.u8 l "gc_epoch" ~off:1
  let gc_ck = Pstruct.u16 l "gc_ck" ~off:2
  let gc_seq = Pstruct.u32 l "gc_seq" ~off:4
  let cksum = Pstruct.u16 l "cksum" ~off:8
  let () = Pstruct.seal l ~size:Pmem.Cacheline.size
end

let _ = Hdr.cksum

(* Media guard over the header's first word (epoch + watermark): content
   checksum at offset 8 (same line — refreshed inside every header
   commit for free), replica on the region's trailing line. Repairing a
   torn or poisoned header from a replica that trails by one update
   re-creates a state the crash model already covers: the watermark (or
   epoch) rolls back to just before the damaged commit, whose entries
   replay as the open-group / pre-checkpoint window. *)
let guard_record ~base ~entries =
  {
    Guard.primary = base;
    len = 8;
    p_ck = base + 8;
    replica = base + Pmem.Cacheline.size + (entries * entry_bytes);
    r_ck = base + Pmem.Cacheline.size + (entries * entry_bytes) + 8;
    cat = Pmem.Stats.Wal;
  }

(* The watermark word is 8-byte-atomic under ADR, so this checksum guards
   nothing in the simulated failure model — it is defence in depth against
   a stale word from a previous format of the region. *)
let gc_checksum ~epoch ~seq = checksum ~kind:0x6C ~epoch ~seq ~addr:0 ~dest:0

module Entry = struct
  let l = Pstruct.layout "wal.entry"
  let kind = Pstruct.u8 l "kind" ~off:0
  let epoch = Pstruct.u8 l "epoch" ~off:1
  let ck = Pstruct.u16 l "ck" ~off:2
  let seq = Pstruct.u32 l "seq" ~off:4
  let addr = Pstruct.u32 l "addr" ~off:8
  let dest = Pstruct.u32 l "dest" ~off:12
  let () = Pstruct.seal l ~size:entry_bytes
end

let slot_offset t n =
  let phys =
    if not t.interleave then n
    else
      let frame = n / frame_entries and k = n mod frame_entries in
      let line = k mod frame_lines and pos = k / frame_lines in
      (frame * frame_entries) + (line * entries_per_line) + pos
  in
  Pmem.Cacheline.size + (phys * entry_bytes)

(* Every header write goes through here: a log that is (or has become)
   synchronous must zero the group-commit record, or a stale watermark
   from a grouped life of the region would discard the sync entries of
   this one. In grouped mode the watermark rides along with the epoch —
   set to the current seq, so entries of the (new) epoch stay uncommitted
   until their group closes. *)
let write_header t =
  Pstruct.set t.dev ~base:t.base Hdr.epoch t.epoch;
  if t.group_n > 0 then begin
    Pstruct.set t.dev ~base:t.base Hdr.gc_epoch t.epoch;
    Pstruct.set t.dev ~base:t.base Hdr.gc_ck (gc_checksum ~epoch:t.epoch ~seq:t.seq);
    Pstruct.set t.dev ~base:t.base Hdr.gc_seq t.seq
  end
  else begin
    Pstruct.set t.dev ~base:t.base Hdr.gc_epoch 0;
    Pstruct.set t.dev ~base:t.base Hdr.gc_ck 0;
    Pstruct.set t.dev ~base:t.base Hdr.gc_seq 0
  end;
  Guard.refresh t.dev t.guard

let write_replica t clock = if t.replicate then Guard.write_replica t.dev clock t.guard

(* The volatile handle; [create] formats the region, [adopt] reads it. *)
let make ~group ~replicate ~mutation dev ~base ~entries ~interleave ~epoch ~ready =
  assert (entries mod frame_entries = 0);
  assert (group >= 0);
  let cap = max 1 group in
  {
    dev;
    base;
    nentries = entries;
    interleave;
    epoch;
    next = 0;
    seq = 0;
    ready;
    skip_flush = mutation = Mutation.Wal_flush;
    group_n = group;
    gcount = 0;
    gents = Array.make cap 0;
    gnents = 0;
    ecat = Array.make (2 * cap) Pmem.Stats.Meta;
    eaddr = Array.make (2 * cap) 0;
    elen = Array.make (2 * cap) 0;
    edeps = Array.make (2 * cap) [];
    neffects = 0;
    skip_record = mutation = Mutation.Wal_record;
    replicate;
    guard = guard_record ~base ~entries;
  }

let create ?(group = 0) ?(replicate = false) ?(mutation = Mutation.Off) dev ~base ~entries
    ~interleave =
  let t = make ~group ~replicate ~mutation dev ~base ~entries ~interleave ~epoch:1 ~ready:true in
  (* Entry epochs are all 0 (the device zero-fills), hence invalid. *)
  write_header t;
  if replicate then begin
    (* Volatile-only here; the caller persists the whole init image. *)
    let r = t.guard in
    Pmem.Device.blit dev ~src:r.Guard.primary ~dst:r.Guard.replica ~len:(r.Guard.len + 2)
  end;
  t

let entries t = t.nentries
let used t = t.next
let near_full t = t.next >= t.nentries
let is_ready t = t.ready
let group_commit t = t.group_n
let open_group t = t.gcount

(* Double an array of the open group, keeping its first [n] elements. *)
let grow a n fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 n;
  b

(* Returns the entry's base offset. Allocation-free, grouped or not: the
   open group records the offset in its preallocated array. *)
let append_off t clock kind ~addr ~dest =
  assert t.ready;
  assert (not (near_full t));
  let off = t.base + slot_offset t t.next in
  let code = kind_code kind in
  Pstruct.set t.dev ~base:off Entry.kind code;
  Pstruct.set t.dev ~base:off Entry.epoch t.epoch;
  Pstruct.set t.dev ~base:off Entry.ck
    (checksum ~kind:code ~epoch:t.epoch ~seq:t.seq ~addr ~dest);
  Pstruct.set t.dev ~base:off Entry.seq t.seq;
  Pstruct.set t.dev ~base:off Entry.addr addr;
  Pstruct.set t.dev ~base:off Entry.dest dest;
  if t.group_n = 0 then begin
    if not t.skip_flush then Pmem.Device.flush t.dev clock Pmem.Stats.Wal ~addr:off ~len:entry_bytes
    else
      (* The broken-protocol hook must compose with coalescing: a skipped
         flush must also leave the thread's pending buffer, or the next
         fence would quietly persist it and the fuzz scenario would lose
         its teeth. (Dropping the line may drop pending sibling entries
         too — strictly more broken, which is the point of the hook.) *)
      Pmem.Device.unpend t.dev clock ~addr:off ~len:entry_bytes
  end
  else begin
    t.gcount <- t.gcount + 1;
    if not t.skip_flush then begin
      Pmem.Device.flush_weak t.dev clock Pmem.Stats.Wal ~addr:off ~len:entry_bytes;
      if t.gnents = Array.length t.gents then t.gents <- grow t.gents t.gnents 0;
      t.gents.(t.gnents) <- off;
      t.gnents <- t.gnents + 1
    end
    else
      (* The hook is fixed per log, so the open group never holds an
         entry phase A could use to re-persist the suppressed line. *)
      Pmem.Device.unpend t.dev clock ~addr:off ~len:entry_bytes
  end;
  t.next <- t.next + 1;
  t.seq <- t.seq + 1;
  off

let append t clock kind ~addr ~dest = ignore (append_off t clock kind ~addr ~dest)

(* Close the open group. Three fences cover what would have been 2N:
   phase A persists the group's entries; phase B persists the commit
   record (the watermark — one atomic header-word write that marks every
   entry below it committed); phase C retires the deferred metadata
   commits those entries order (validating their declared deps, which
   phase A made durable). A crash before B loses the whole group (replay
   stops at the old watermark: the allocator never published the ops'
   effects, so no pointer dangles); a crash after B replays it. *)
let flush_group t clock =
  if t.group_n > 0 && (t.gcount > 0 || t.neffects > 0) then begin
    (* The whole three-phase close is one region, so its flushes and
       fences separate from the op that happened to trip the group
       boundary. *)
    (match Pmem.Device.telemetry t.dev with
    | None -> ()
    | Some s ->
        Telemetry.enter s ~tid:(Sim.Clock.id clock) ~name:(Telemetry.intern s "wal:group_commit")
          ~ts:(Sim.Clock.ns clock));
    for i = 0 to t.gnents - 1 do
      if t.skip_record then
        (* Broken-protocol hook: the commit record forgets its contract.
           Phase A is dropped — the group's entries leave the pending
           buffer unflushed — while the watermark still advances and
           phase C still retires the effects. A crash now finds effects
           durable under a commit record with no entries behind it: no
           undo evidence, which the recovery sanity pass cannot heal.
           This is the observable endpoint of writing the record before
           the entries are durable — the ordering the three-phase close
           exists to enforce. *)
        Pmem.Device.unpend t.dev clock ~addr:t.gents.(i) ~len:entry_bytes
      else Pmem.Device.flush_weak t.dev clock Pmem.Stats.Wal ~addr:t.gents.(i) ~len:entry_bytes
    done;
    Pmem.Device.fence t.dev clock;
    if t.gcount > 0 then begin
      Pstruct.set t.dev ~base:t.base Hdr.gc_epoch t.epoch;
      Pstruct.set t.dev ~base:t.base Hdr.gc_ck (gc_checksum ~epoch:t.epoch ~seq:t.seq);
      Pstruct.set t.dev ~base:t.base Hdr.gc_seq t.seq;
      Guard.refresh t.dev t.guard;
      Pmem.Device.flush_weak t.dev clock Pmem.Stats.Wal ~addr:t.base ~len:8;
      write_replica t clock;
      Pmem.Device.fence t.dev clock;
      Pmem.Device.note_group_commit t.dev clock ~entries:t.gcount
    end;
    if t.neffects > 0 then begin
      for i = 0 to t.neffects - 1 do
        (* Deps exist in check mode only: elsewhere no closure is built. *)
        if t.edeps.(i) != [] then
          List.iter
            (fun (note, (s : Pstruct.span)) ->
              Pmem.Device.depends_on ~note t.dev clock ~addr:s.addr ~len:s.len)
            t.edeps.(i);
        t.edeps.(i) <- [];
        Pmem.Device.commit_flush_weak t.dev clock t.ecat.(i) ~addr:t.eaddr.(i)
          ~len:t.elen.(i)
      done;
      Pmem.Device.fence t.dev clock
    end;
    t.gcount <- 0;
    t.gnents <- 0;
    t.neffects <- 0;
    match Pmem.Device.telemetry t.dev with
    | None -> ()
    | Some s -> Telemetry.leave s ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock)
  end

(* A metadata commit ordered after a grouped entry: queue it for the
   group's phase C instead of retiring it inline. With grouping off (or
   before [seal] re-enables the log — recovery replays effects through
   the same code paths) this is exactly [Pstruct.commit]. *)
let defer_commit t clock cat ~deps ~addr ~len =
  if t.group_n = 0 || not t.ready then
    Pstruct.commit ~deps t.dev clock cat (Pstruct.span_of ~addr ~len)
  else begin
    let n = t.neffects in
    if n = Array.length t.eaddr then begin
      t.ecat <- grow t.ecat n Pmem.Stats.Meta;
      t.eaddr <- grow t.eaddr n 0;
      t.elen <- grow t.elen n 0;
      t.edeps <- grow t.edeps n []
    end;
    t.ecat.(n) <- cat;
    t.eaddr.(n) <- addr;
    t.elen.(n) <- len;
    t.edeps.(n) <- deps;
    t.neffects <- n + 1;
    if t.gcount >= t.group_n then flush_group t clock
  end

let checkpoint t clock =
  assert t.ready;
  (* The open group belongs to the dying epoch: close it first, so ops
     already acknowledged to callers stay recoverable right up to the
     epoch bump that obsoletes them. *)
  flush_group t clock;
  t.epoch <- (if t.epoch >= 255 then 1 else t.epoch + 1);
  t.next <- 0;
  write_header t;
  Pmem.Device.commit_flush t.dev clock Pmem.Stats.Meta ~addr:t.base ~len:8;
  write_replica t clock

let adopt ?(group = 0) ?(replicate = false) ?(mutation = Mutation.Off) dev ~base ~entries
    ~interleave =
  make ~group ~replicate ~mutation dev ~base ~entries ~interleave
    ~epoch:(Pstruct.get dev ~base Hdr.epoch) ~ready:false

let seal t clock =
  assert (not t.ready);
  t.epoch <- (if t.epoch >= 255 then 1 else t.epoch + 1);
  t.next <- 0;
  t.seq <- 0;
  t.ready <- true;
  write_header t;
  Pmem.Device.commit_flush t.dev clock Pmem.Stats.Meta ~addr:t.base ~len:8;
  write_replica t clock

let reopen ?group ?replicate dev clock ~base ~entries ~interleave =
  let t = adopt ?group ?replicate dev ~base ~entries ~interleave in
  seal t clock;
  t

let verify_guard dev clock ~base ~entries =
  Guard.verify_repair dev clock (guard_record ~base ~entries)

type replayed = { kind : kind; seq : int; addr : int; dest : int }

let replay_full dev ~base ~entries =
  let epoch = Pstruct.get dev ~base Hdr.epoch in
  (* Group-commit watermark: [gc_epoch] = 0 marks a synchronous log —
     every entry was durable before its effects, accept the whole valid
     window. Nonzero, only entries the commit record covers (seq below
     the current epoch's watermark) are committed; a watermark from
     another epoch, or one failing its checksum, covers nothing. Valid
     entries at or beyond the watermark belonged to the open group at the
     crash: their ops never committed, but their metadata effects may
     have leaked to the media through shared-line flushes, so recovery
     needs them as undo evidence — they come back separately. *)
  let limit =
    let gc_epoch = Pstruct.get dev ~base Hdr.gc_epoch in
    if gc_epoch = 0 then max_int
    else
      let gc_seq = Pstruct.get dev ~base Hdr.gc_seq in
      if
        gc_epoch = epoch
        && Pstruct.get dev ~base Hdr.gc_ck = gc_checksum ~epoch:gc_epoch ~seq:gc_seq
      then gc_seq
      else 0
  in
  let acc = ref [] in
  let dropped = ref [] in
  let torn = ref 0 in
  for phys = 0 to entries - 1 do
    let off = base + Pmem.Cacheline.size + (phys * entry_bytes) in
    if Pstruct.get dev ~base:off Entry.epoch = epoch then begin
      let code = Pstruct.get dev ~base:off Entry.kind in
      match kind_of_code code with
      | Some kind ->
          let seq = Pstruct.get dev ~base:off Entry.seq in
          let addr = Pstruct.get dev ~base:off Entry.addr in
          let dest = Pstruct.get dev ~base:off Entry.dest in
          if Pstruct.get dev ~base:off Entry.ck = checksum ~kind:code ~epoch ~seq ~addr ~dest
          then begin
            if seq < limit then acc := { kind; seq; addr; dest } :: !acc
            else dropped := { kind; seq; addr; dest } :: !dropped
          end
          else incr torn
      | None -> ()
    end
  done;
  let by_seq = List.sort (fun a b -> compare a.seq b.seq) in
  (by_seq !acc, by_seq !dropped, !torn)

let replay_torn dev ~base ~entries =
  let committed, _, torn = replay_full dev ~base ~entries in
  (committed, torn)

let replay dev ~base ~entries = fst (replay_torn dev ~base ~entries)
