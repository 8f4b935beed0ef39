type t = {
  heap : Heap.t;
  dev : Pmem.Device.t;
  config : Config.t;
  idx : int;
  lock : Sim.Lock.t;
  large : Extent.t;
  wal : Wal.t;
  freelists : Slab.t Support.Dlist.t array;
  lru : Slab.t Support.Dlist.t;
  slab_vehs : (int, Extent.veh) Hashtbl.t; (* slab base -> its extent *)
  all_slabs : (int, Slab.t) Hashtbl.t; (* slab base -> vslab *)
  mutable thread_tcaches : Tcache.t array; (* every registered thread's, newest first *)
  (* All arenas of the owning heap (self included), indexed by arena
     index. Tcache entries can hold foreign-arena blocks (a cross-arena
     free pushes into the freeing thread's tcache), and a drain must
     return each block through the slab's owning arena — its freelists,
     LRU and extent allocator — not the draining one. *)
  mutable peers : t array;
  mutable dropped_frees : int;
      (* frees into quarantined slabs, swallowed (graceful degradation) *)
  layouts : Slab.layout array; (* per class, under this config's mapping *)
  mapping : Bitmap.mapping;
  on_slab_created : Slab.t -> unit;
  on_slab_destroyed : Slab.t -> unit;
  (* Telemetry sink and its region/arg-key ids, interned at attach; None
     (the default) costs one compare per instrumented region. Emission
     never charges clocks. *)
  mutable telem : atelem option;
}

and atelem = {
  tsink : Telemetry.t;
  tn_refill : int;
  tn_morph : int;
  tn_checkpoint : int;
  tn_wal_append : int;
  ta_class : int;
  ta_old_class : int;
  ta_live : int;
}

let mapping_of_config (cfg : Config.t) =
  if cfg.Config.bit_stripes <= 1 then Bitmap.Sequential
  else Bitmap.Interleaved cfg.Config.bit_stripes

let set_telemetry t sink =
  Sim.Lock.set_telemetry t.lock sink;
  Wal.set_telemetry t.wal sink;
  Extent.set_telemetry t.large sink;
  t.telem <-
    Option.map
      (fun s ->
        {
          tsink = s;
          tn_refill = Telemetry.intern s "refill";
          tn_morph = Telemetry.intern s "morph";
          tn_checkpoint = Telemetry.intern s "wal:checkpoint";
          tn_wal_append = Telemetry.intern s "wal:append";
          ta_class = Telemetry.intern s "class";
          ta_old_class = Telemetry.intern s "old_class";
          ta_live = Telemetry.intern s "live";
        })
      sink

(* Only the log-based variant groups small-op appends; GC/IC write so
   few WAL entries (Large_* only) that grouping would just delay extent
   commits for nothing. A ring is a multiple of 64 entries, so a group
   always fits well inside it. *)
let wal_group_size = 8

let wal_group config =
  if config.Config.batch && config.Config.consistency = Config.Log_based then wal_group_size
  else 0

(* The one builder: around [logs] when recovery reopened them, else
   around freshly formatted ones. *)
let create ?logs heap ~index ~region_lock ~on_slab_created ~on_slab_destroyed
    ~on_extent_created ~on_extent_dropped =
  let config = Heap.config heap in
  let booklog, wal =
    match logs with
    | Some logs -> logs
    | None ->
        ( (if config.Config.log_bookkeeping then
             Some
               (Booklog.create (Heap.device heap)
                  ~replicate:config.Config.media_replication
                  ~base:(Heap.booklog_base heap ~arena:index)
                  ~chunks:config.Config.booklog_chunks ~interleave:config.Config.interleave_logs)
           else None),
          Wal.create (Heap.device heap) ~group:(wal_group config)
            ~replicate:config.Config.media_replication ~mutation:(Heap.mutation heap)
            ~base:(Heap.wal_base heap ~arena:index) ~entries:config.Config.wal_entries
            ~interleave:config.Config.interleave_logs )
  in
  let mapping = mapping_of_config config in
  let mode =
    match booklog with Some log -> Extent.Logged log | None -> Extent.In_place
  in
  let large =
    Extent.create heap ~mode ~region_lock
      ~on_new_extent:(fun v -> on_extent_created v index)
      ~on_drop_extent:(fun v -> on_extent_dropped v index)
  in
  {
    heap;
    dev = Heap.device heap;
    config;
    idx = index;
    lock = Sim.Lock.create ();
    large;
    wal;
    freelists = Array.init Size_class.count (fun _ -> Support.Dlist.create ());
    lru = Support.Dlist.create ();
    slab_vehs = Hashtbl.create 64;
    all_slabs = Hashtbl.create 64;
    thread_tcaches = [||];
    peers = [||];
    dropped_frees = 0;
    layouts = Array.init Size_class.count (fun c -> Slab.layout_of_class ~class_idx:c ~mapping);
    mapping;
    on_slab_created;
    on_slab_destroyed;
    telem = None;
  }

let index t = t.idx
let lock t = t.lock
let wal t = t.wal
let large t = t.large
let is_log t = t.config.Config.consistency = Config.Log_based
let is_ic t = t.config.Config.consistency = Config.Internal_collection
let is_gc t = t.config.Config.consistency = Config.Gc_based

(* Whether small-allocator metadata (bits, index entries) is flushed:
   LOG and IC persist it eagerly; GC rebuilds it post-crash. *)
let flushes_small_meta t = t.config.Config.consistency <> Config.Gc_based
let register_tcaches t tcaches = t.thread_tcaches <- Array.append tcaches t.thread_tcaches

(* --- slab plumbing ------------------------------------------------------- *)

(* Freelist membership is tracked by node presence, not inferred from the
   free count: a WAL checkpoint can fire from inside [refill_tcache] (the
   Refill append hits the high-water mark) and drain a tcache block back
   into the very slab being refilled, while that slab sits at
   [free_count = 0] but is still linked — the refill loop unlinks it only
   after its inner loop ends. *)
let freelist_add t s =
  if s.Slab.freelist_node = None then
    s.Slab.freelist_node <-
      Some (Support.Dlist.push_back t.freelists.(s.Slab.layout.Slab.class_idx) s)

let freelist_remove t s =
  match s.Slab.freelist_node with
  | Some node ->
      Support.Dlist.remove t.freelists.(s.Slab.layout.Slab.class_idx) node;
      s.Slab.freelist_node <- None
  | None -> ()

let lru_remove t s =
  match s.Slab.lru_node with
  | Some node ->
      Support.Dlist.remove t.lru node;
      s.Slab.lru_node <- None
  | None -> ()

(* A slab already at the back stays put: the same list, no allocation. *)
let lru_touch t s =
  match s.Slab.lru_node with
  | Some node when Support.Dlist.is_last t.lru node -> ()
  | _ ->
      lru_remove t s;
      s.Slab.lru_node <- Some (Support.Dlist.push_back t.lru s)

let flush_meta t clock ~addr ~len =
  Pmem.Device.flush t.dev clock Pmem.Stats.Meta ~addr ~len

let replicate_meta t = t.config.Config.media_replication

(* Commit a slab's fixed header fields: refresh the guard checksum (same
   line — free), commit, then mirror into the slab's guard-replica line
   when replication is on. Every header-mutating protocol step funnels
   through here so a poisoned or rotten header line stays repairable. *)
let commit_slab_header ?deps t clock addr =
  (* Refresh the advisory free hint here — and only here — so the header
     line is dirtied once per protocol step, never per alloc/free. *)
  (match Hashtbl.find_opt t.all_slabs addr with
  | Some s -> Slab.Header.write_free_hint t.dev addr s.Slab.free_count
  | None -> ());
  let r = Slab.guard_record addr in
  Guard.refresh t.dev r;
  (* The packed-word payoff, asserted: the commit unit (word + checksum)
     sits in a single cache line at the line-aligned slab base. *)
  assert (addr land (Pmem.Cacheline.size - 1) = 0);
  Pmem.Stats.bump (Pmem.Device.stats t.dev) Header_flush_lines;
  Pstruct.commit t.dev clock Pmem.Stats.Meta ?deps (Slab.header_commit_span addr);
  if replicate_meta t then Guard.write_replica t.dev clock r

let new_slab t clock class_idx =
  let veh = Extent.malloc t.large clock ~size:Slab.slab_bytes ~kind:Booklog.Slab_extent in
  let layout = t.layouts.(class_idx) in
  let s = Slab.format t.dev ~addr:veh.Extent.addr ~arena:t.idx ~mapping:t.mapping layout in
  if replicate_meta t then begin
    (* Birth the replica valid; its dirty line persists with the header
       flush below. *)
    let r = Slab.guard_record s.Slab.addr in
    Pmem.Device.blit t.dev ~src:r.Guard.primary ~dst:r.Guard.replica ~len:(r.Guard.len + 2)
  end;
  (* Persist the fresh header and (zeroed) bitmap in both variants:
     recovery derives block sizes from slab headers. *)
  flush_meta t clock ~addr:(Slab.header_addr s) ~len:Slab.slab_bytes
    (* only dirty lines (header + bitmap) actually flush *);
  Hashtbl.replace t.slab_vehs s.Slab.addr veh;
  Hashtbl.replace t.all_slabs s.Slab.addr s;
  freelist_add t s;
  lru_touch t s;
  t.on_slab_created s;
  s

let destroy_slab t clock s =
  assert (s.Slab.free_count = s.Slab.layout.Slab.nblocks && s.Slab.morph = None);
  (* The frees that emptied this slab may still be provisional (open WAL
     group). The extent-free tombstone below commits synchronously, so
     close the group first: a crash must never roll back those frees —
     leaving their blocks user-live — after the backing extent is gone. *)
  Wal.flush_group t.wal clock;
  s.Slab.dying <- true;
  freelist_remove t s;
  lru_remove t s;
  t.on_slab_destroyed s;
  let veh = Hashtbl.find t.slab_vehs s.Slab.addr in
  Hashtbl.remove t.slab_vehs s.Slab.addr;
  Hashtbl.remove t.all_slabs s.Slab.addr;
  Extent.free t.large clock veh

(* Destroy an empty slab unless it is the last one cached for its class. *)
let maybe_destroy_empty t clock s =
  if
    (not s.Slab.dying)
    && s.Slab.morph = None
    && s.Slab.free_count = s.Slab.layout.Slab.nblocks
    && Support.Dlist.length t.freelists.(s.Slab.layout.Slab.class_idx) > 1
  then destroy_slab t clock s

(* --- slab morphing (section 5.2) ----------------------------------------- *)

let live_old_blocks t s =
  let acc = ref [] in
  Bitmap.iter_set t.dev s.Slab.bitmap (fun b -> acc := b :: !acc);
  List.rev !acc

let morph_candidate_ok t s ~target_layout =
  let open Slab in
  s.morph = None && (not s.dying)
  && s.tcached = 0
  && s.layout.class_idx <> target_layout.class_idx
  && occupancy_ratio s < t.config.Config.morph_su_threshold
  && s.layout.nblocks - s.free_count <= index_capacity
  &&
  (* No live old block may overlap the new header area, and every live
     old block index must fit the 12-bit index-entry encoding. *)
  List.for_all
    (fun b ->
      s.layout.data_off + (b * s.layout.block_size) >= target_layout.data_off && b < 4096)
    (live_old_blocks t s)

(* Three-step flag-guarded metadata transformation. Header flushes hit the
   same line repeatedly: this is the morphing cost the paper quantifies at
   ~4.5%. *)
let transform_slab t clock s target_class =
  (* The survivor snapshot below reads the volatile bitmap, which may
     reflect frees whose WAL entries still sit in the open group. The
     morph record commits synchronously; close the group first so a crash
     cannot roll those frees back after a record that presumed them. *)
  Wal.flush_group t.wal clock;
  (match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.enter e.tsink ~tid:(Sim.Clock.id clock) ~name:e.tn_morph ~ts:(Sim.Clock.ns clock));
  let open Slab in
  let dev = t.dev in
  let addr = s.addr in
  let old_layout = s.layout in
  let new_layout = t.layouts.(target_class) in
  let live = live_old_blocks t s in
  let nlive = List.length live in
  (* Step 1: preserve the old class identity (the old data offset is
     derived from the class at recovery, not stored). *)
  Header.write_old_class dev addr old_layout.class_idx;
  Header.write_flag dev addr 1;
  commit_slab_header t clock addr;
  (* Step 2: record the live old blocks in the index table. *)
  List.iteri
    (fun slot b -> write_index_entry dev addr slot (pack_index_entry ~block:b ~allocated:true))
    live;
  let index_span =
    Pstruct.span_of ~addr:(index_entry_addr s 0) ~len:(2 * max 1 nlive)
  in
  if nlive > 0 then Pstruct.flush_span dev clock Pmem.Stats.Meta index_span;
  Header.write_index_count dev addr nlive;
  Header.write_flag dev addr 2;
  (* Flag 2 asserts the index table is complete: that is an ordering
     dependency. *)
  commit_slab_header t clock addr
    ~deps:(if nlive > 0 then [ ("index:record", index_span) ] else []);
  (* Step 3: install the new class: header field and rebuilt bitmap. *)
  Header.write_class dev addr target_class;
  (* With no surviving old blocks the morph completes right here, so
     retire the old-class identity the way release_old_block would at
     cnt_slab = 0 (same header commit line; index_count is already 0). *)
  if nlive = 0 then Header.write_old_class dev addr Header.no_class;
  let new_bitmap = Bitmap.make ~base:(bitmap_addr s) ~nbits:new_layout.nblocks ~mapping:t.mapping in
  Pmem.Device.fill dev (bitmap_addr s) (new_layout.bitmap_lines * Pmem.Cacheline.size) '\000';
  let cnt_block = Array.make new_layout.nblocks 0 in
  let old_live = Hashtbl.create 16 in
  s.layout <- new_layout;
  s.bitmap <- new_bitmap;
  List.iteri
    (fun slot b ->
      Hashtbl.replace old_live b slot;
      let m_stub =
        { old_class = old_layout.class_idx; old_block_size = old_layout.block_size;
          old_data_off = old_layout.data_off; cnt_slab = 0; cnt_block; old_live }
      in
      for j = first_overlap s m_stub b to last_overlap s m_stub b do
        if cnt_block.(j) = 0 then Bitmap.set dev new_bitmap j;
        cnt_block.(j) <- cnt_block.(j) + 1
      done)
    live;
  let bitmap_span =
    Pstruct.span_of ~addr:(bitmap_addr s)
      ~len:(new_layout.bitmap_lines * Pmem.Cacheline.size)
  in
  Pstruct.flush_span dev clock Pmem.Stats.Meta bitmap_span;
  (* Volatile state first, so the flag-0 commit records an in-range free
     hint for the new layout. *)
  let morph =
    {
      old_class = old_layout.class_idx;
      old_block_size = old_layout.block_size;
      old_data_off = old_layout.data_off;
      cnt_slab = nlive;
      cnt_block;
      old_live;
    }
  in
  s.morph <- (if nlive > 0 then Some morph else None);
  Slab.recompute_free dev s;
  Header.write_flag dev addr 0;
  (* Flag 0 asserts the new class's bitmap is in place. *)
  commit_slab_header t clock addr ~deps:[ ("bitmap:rebuilt", bitmap_span) ];
  match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.leave2 e.tsink ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock)
        ~k1:e.ta_old_class ~v1:old_layout.class_idx ~k2:e.ta_live ~v2:nlive

let try_morph t clock target_class =
  if not t.config.Config.slab_morphing then None
  else begin
    let target_layout = t.layouts.(target_class) in
    (* LRU scan, head (coldest) first. *)
    let found = ref None in
    let scanned = ref 0 in
    Support.Dlist.iter
      (fun s ->
        incr scanned;
        if !found = None && morph_candidate_ok t s ~target_layout then found := Some s)
      t.lru;
    Pmem.Device.charge_work t.dev clock Pmem.Stats.Search
      ~ns:(max 1 !scanned * 25);
    match !found with
    | None -> None
    | Some s ->
        freelist_remove t s;
        lru_remove t s;
        transform_slab t clock s target_class;
        freelist_add t s;
        (* A slab that finished morphing with no surviving old blocks is a
           regular slab again and may morph later. *)
        if s.Slab.morph = None then lru_touch t s;
        Some s
  end

(* Return one block straight to its slab (tcache overflow, drains). In the
   internal-collection variant tcache-resident blocks were never marked, so
   there is no bit to clear. *)
let return_block t clock s b =
  if is_gc t && Slab.free_mem s b then
    (* GC resurrection aliasing: a pre-crash free whose root-clear never
       persisted is revived by the conservative mark even though its space
       was already reused and republished — the post-crash caller then
       frees the same slot through both publications. Makalu's free is a
       mark and inherently idempotent, so absorb the duplicate. The other
       variants keep the hard double-free assert: their frees are logged
       (LOG) or eagerly unmarked (IC), so a duplicate there is a bug. *)
    Pmem.Device.dram_op t.dev clock
  else begin
  if not (is_ic t) then begin
    Bitmap.clear t.dev s.Slab.bitmap b;
    if is_log t then begin
      (* The bit-clear must not persist before the Free/Refill entry that
         moved this block into the tcache — under group commit that entry
         may still sit in the open group, and any commit point would drain
         a plain (pending) flush past it. Ride the group's close instead;
         a crash then rolls back entry and bit-clear together. *)
      let addr = Bitmap.line_addr s.Slab.bitmap b in
      if Wal.group_commit t.wal > 0 && Wal.is_ready t.wal then
        Wal.defer_commit t.wal clock Pmem.Stats.Meta ~deps:[] ~addr ~len:1
      else flush_meta t clock ~addr ~len:1
    end
  end;
  if s.Slab.free_count = 0 then freelist_add t s;
  Slab.free_put s b;
  maybe_destroy_empty t clock s
  end

(* The old-class block of a morphing slab that [addr] names, or -1. *)
let old_block s addr =
  match s.Slab.morph with
  | Some m -> Slab.old_block_index m (addr - s.Slab.addr)
  | None -> -1

(* Release of a block_before: resolved against the index table, bypassing
   the tcache (section 5.2, "Block release"). *)
let release_old_block t clock s old_b =
  let m = Option.get s.Slab.morph in
  let slot = Hashtbl.find m.Slab.old_live old_b in
  (* Derived state first, commit last: the overlap bits exist only to pin
     new-grid blocks while this old block lives, and recovery rebuilds the
     pins from the index table. Clearing the index entry first would let a
     crash strand set bits that the rebuilt morph no longer pins — misread
     by WAL replay as user-live new-class blocks (found by the crash-plan
     fuzzer, crash-during-recovery case). *)
  let cleared = ref [] in
  for j = Slab.first_overlap s m old_b to Slab.last_overlap s m old_b do
    m.Slab.cnt_block.(j) <- m.Slab.cnt_block.(j) - 1;
    if m.Slab.cnt_block.(j) = 0 then begin
      Bitmap.clear t.dev s.Slab.bitmap j;
      if flushes_small_meta t then begin
        flush_meta t clock ~addr:(Bitmap.line_addr s.Slab.bitmap j) ~len:Pmem.Cacheline.size;
        (* Only the persist-ordering checker reads deps. *)
        if Pmem.Device.check_mode t.dev then
          cleared := ("bitmap:unpin", Bitmap.bit_span s.Slab.bitmap j) :: !cleared
      end;
      (* The pinned slot may already sit in the free set after a crash in
         the GC variant: resurrection aliasing (see return_block) can mark
         both an old block and the new-grid block it pins, and the new
         block's free lands first. *)
      if not (is_gc t && Slab.free_mem s j) then begin
        if s.Slab.free_count = 0 then freelist_add t s;
        Slab.free_put s j
      end
    end
  done;
  Slab.write_index_entry t.dev s.Slab.addr slot
    (Slab.pack_index_entry ~block:old_b ~allocated:false);
  if flushes_small_meta t then
    if !cleared == [] then
      Pmem.Device.commit_flush t.dev clock Pmem.Stats.Meta ~addr:(Slab.index_entry_addr s slot)
        ~len:2
    else
      Pstruct.commit t.dev clock Pmem.Stats.Meta ~deps:!cleared
        (Slab.index_entry_span s.Slab.addr slot);
  Hashtbl.remove m.Slab.old_live old_b;
  m.Slab.cnt_slab <- m.Slab.cnt_slab - 1;
  if m.Slab.cnt_slab = 0 then begin
    (* slab_in becomes a regular slab_after and rejoins the LRU. *)
    Slab.Header.write_old_class t.dev s.Slab.addr Slab.Header.no_class;
    Slab.Header.write_index_count t.dev s.Slab.addr 0;
    let deps =
      if flushes_small_meta t then
        [ ("index:release", Slab.index_entry_span s.Slab.addr slot) ]
      else []
    in
    commit_slab_header t clock s.Slab.addr ~deps;
    s.Slab.morph <- None;
    lru_touch t s;
    maybe_destroy_empty t clock s
  end

(* Return a tcache entry to its slab, resolving whether the address is an
   old-class block of a morphing slab or a current-class block. *)
let return_entry t clock s addr =
  if s.Slab.quarantined then begin
    (* Graceful degradation: the slab's header is unrepairable and its
       capacity written off — swallow the free (the block's line may be
       damaged too) and count it. *)
    t.dropped_frees <- t.dropped_frees + 1;
    Pmem.Device.dram_op t.dev clock
  end
  else begin
  if is_ic t then s.Slab.tcached <- s.Slab.tcached - 1;
  let old_b = old_block s addr in
  if old_b >= 0 then release_old_block t clock s old_b
  else return_block t clock s (Slab.block_index s addr)
  end

(* --- WAL ------------------------------------------------------------------ *)

let set_peers t arenas = t.peers <- arenas

(* Top-level, so a drain builds no closure. *)
let return_drained t clock s addr =
  if s.Slab.arena = t.idx || Array.length t.peers = 0 then return_entry t clock s addr
  else begin
    (* Foreign-arena block: return it under its home arena's lock so
       freelist membership and empty-slab destruction act on the arena
       that actually owns the slab's extent. *)
    let home = t.peers.(s.Slab.arena) in
    Sim.Lock.acquire home.lock clock;
    return_entry home clock s addr;
    Sim.Lock.release home.lock clock
  end

let drain_all_tcaches t clock =
  for i = 0 to Array.length t.thread_tcaches - 1 do
    Tcache.drain t.thread_tcaches.(i) return_drained t clock
  done

(* Caller holds [t.lock]. *)
let checkpoint_locked t clock =
  let t0 = Sim.Clock.ns clock in
  (match t.telem with
  | None -> ()
  | Some e -> Telemetry.enter e.tsink ~tid:(Sim.Clock.id clock) ~name:e.tn_checkpoint ~ts:t0);
  drain_all_tcaches t clock;
  Wal.checkpoint t.wal clock;
  match t.telem with
  | None -> ()
  | Some e -> (
      Telemetry.leave e.tsink ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock);
      (* Checkpoints stall whoever pays for them (an allocating thread
         inline, or the maintenance daemon): annotate the SLO timeline. *)
      match Telemetry.attribution e.tsink with
      | None -> ()
      | Some a -> Telemetry.Attr.note_event a ~ts:t0 ~name:"wal:checkpoint")

let checkpoint_if_needed t clock =
  if Wal.near_full t.wal then begin
    Sim.Lock.acquire t.lock clock;
    (* Re-check under the lock; another thread may have checkpointed. *)
    if Wal.near_full t.wal then checkpoint_locked t clock;
    Sim.Lock.release t.lock clock
  end

(* One background-maintenance poll: checkpoint once the ring is half
   full, taking the drain + epoch bump off the allocating threads' hot
   path (the near-full inline checkpoint above remains as the hard
   backstop). Returns whether a checkpoint ran. *)
let over_async_fraction t =
  t.config.Config.batch && Wal.is_ready t.wal && 2 * Wal.used t.wal >= Wal.entries t.wal

let async_checkpoint_tick t clock =
  if over_async_fraction t then begin
    Sim.Lock.acquire t.lock clock;
    (* Re-check under the lock; another thread may have checkpointed. *)
    let ran = over_async_fraction t in
    if ran then checkpoint_locked t clock;
    Sim.Lock.release t.lock clock;
    ran
  end
  else false

(* Append a WAL entry; Large_* entries are logged in both variants
   (Table 2), small-allocation entries only by NVAlloc-LOG. Returns the
   entry's span (when one was appended) so the caller can declare it as a
   dependency of the metadata commit it covers. *)
let log_op t clock kind ~addr ~dest =
  let wanted =
    match kind with
    | Wal.Large_alloc | Wal.Large_free -> true
    | Wal.Alloc | Wal.Free | Wal.Refill -> is_log t
  in
  if wanted then begin
    checkpoint_if_needed t clock;
    (match t.telem with
    | None -> ()
    | Some e ->
        Telemetry.enter e.tsink ~tid:(Sim.Clock.id clock) ~name:e.tn_wal_append
          ~ts:(Sim.Clock.ns clock));
    (* Slot reservation is a CAS, not a lock. *)
    Pmem.Device.dram_op t.dev clock;
    let off = Wal.append_off t.wal clock kind ~addr ~dest in
    (* Extent metadata commits follow a Large_* entry synchronously and
       depend on it: close the open group now so the entry (and any small
       ops sharing the group) is durable before they retire. *)
    (match kind with
    | Wal.Large_alloc | Wal.Large_free -> Wal.flush_group t.wal clock
    | Wal.Alloc | Wal.Free | Wal.Refill -> ());
    (match t.telem with
    | None -> ()
    | Some e -> Telemetry.leave e.tsink ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock));
    off
  end
  else -1

let wal_dep t kind off =
  if off < 0 || not (Pmem.Device.check_mode t.dev) then []
  else
    let name =
      match kind with
      | Wal.Alloc -> "wal:Alloc"
      | Wal.Free -> "wal:Free"
      | Wal.Refill -> "wal:Refill"
      | Wal.Large_alloc -> "wal:Large_alloc"
      | Wal.Large_free -> "wal:Large_free"
    in
    [ (name, Pstruct.span_of ~addr:off ~len:Wal.entry_bytes) ]

(* --- small allocation ------------------------------------------------------ *)

let take_slab_with_space t clock class_idx =
  let fl = t.freelists.(class_idx) in
  if not (Support.Dlist.is_empty fl) then Support.Dlist.front fl
  else
    match try_morph t clock class_idx with
    | Some s -> s
    | None -> new_slab t clock class_idx

let refill_tcache t clock tc class_idx =
  (match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.enter e.tsink ~tid:(Sim.Clock.id clock) ~name:e.tn_refill ~ts:(Sim.Clock.ns clock));
  (while not (Tcache.is_full tc) do
    let s = take_slab_with_space t clock class_idx in
    lru_touch t s;
    let continue_slab = ref true in
    while (not (Tcache.is_full tc)) && !continue_slab do
      (* The lowest block of the volatile free set: outside morphs and
         internal collection, the lowest clear bit of the persistent
         bitmap (the integrity walk checks that the two sets agree),
         found without reading the device. *)
      let b = Slab.free_take_first s in
      if b < 0 then begin
        freelist_remove t s;
        continue_slab := false
      end
      else begin
          if is_ic t then
            (* Internal collection: the bit is set only when the block is
               handed to the user, so the bitmap enumerates exactly the
               user's objects. *)
            s.Slab.tcached <- s.Slab.tcached + 1
          else begin
            (* WAL before effect: the Refill entry must be persistent
               before the bit is. A crash in between leaves a valid entry
               for a clear bit, which replay ignores; the reverse order
               would leave a set bit with no entry — read as user-live by
               recovery — leaking the block (found by the crash-plan
               fuzzer). The bit flush is the commit point and declares the
               entry as its dependency. *)
            let wal_off =
              if is_log t then log_op t clock Wal.Refill ~addr:(Slab.block_addr s b) ~dest:0
              else -1
            in
            Bitmap.set t.dev s.Slab.bitmap b;
            if is_log t then
              (* With group commit the bit's persist rides the group's
                 phase C — after the Refill entry and its commit record —
                 instead of paying its own fence here. *)
              Wal.defer_commit t.wal clock Pmem.Stats.Meta
                ~deps:(wal_dep t Wal.Refill wal_off)
                ~addr:(Bitmap.line_addr s.Slab.bitmap b) ~len:Pmem.Cacheline.size
          end;
          let pushed = Tcache.push tc s (Slab.block_addr s b) in
          assert pushed
      end
    done;
    if s.Slab.free_count = 0 then freelist_remove t s
  done);
  match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.leave2 e.tsink ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock) ~k1:e.ta_class
        ~v1:class_idx ~k2:(-1) ~v2:0

let ic_mark t clock s addr =
  s.Slab.tcached <- s.Slab.tcached - 1;
  let b = Slab.block_index s addr in
  Bitmap.set t.dev s.Slab.bitmap b;
  flush_meta t clock ~addr:(Bitmap.line_addr s.Slab.bitmap b) ~len:1

(* No [with_lock] on the small path either: its closures would allocate. *)
let alloc_small t clock ~tcaches ~class_idx =
  let tc = tcaches.(class_idx) in
  let addr =
    if Tcache.is_empty tc then begin
      Sim.Lock.acquire t.lock clock;
      refill_tcache t clock tc class_idx;
      Sim.Lock.release t.lock clock;
      Tcache.pop tc
    end
    else begin
      let addr = Tcache.pop tc in
      Pmem.Device.dram_op t.dev clock;
      addr
    end
  in
  if is_ic t then ic_mark t clock (Tcache.last_slab tc) addr;
  addr

let free_small t clock ~tcaches s ~addr ~dest =
  let old_b = old_block s addr in
  if old_b >= 0 then begin
    Sim.Lock.acquire t.lock clock;
    release_old_block t clock s old_b;
    Sim.Lock.release t.lock clock;
    -1
  end
  else
    let b = Slab.block_index s addr (* validates the grid *) in
    let wal_off = log_op t clock Wal.Free ~addr ~dest in
    if is_ic t then begin
      (* Internal collection: unmark eagerly so the persistent bitmap
         never claims a freed object. *)
      Bitmap.clear t.dev s.Slab.bitmap b;
      flush_meta t clock ~addr:(Bitmap.line_addr s.Slab.bitmap b) ~len:1
    end;
    let tc = tcaches.(s.Slab.layout.Slab.class_idx) in
    Pmem.Device.dram_op t.dev clock;
    if Tcache.push tc s addr then begin
      if is_ic t then s.Slab.tcached <- s.Slab.tcached + 1
    end
    else begin
      (* Full tcache: bypass it and return the block to its slab. *)
      Sim.Lock.acquire t.lock clock;
      return_block t clock s b;
      Sim.Lock.release t.lock clock
    end;
    wal_off

(* --- large allocation ------------------------------------------------------ *)

(* No [with_lock]: its closure would allocate on every call. *)
let malloc_large t clock ~size =
  Sim.Lock.acquire t.lock clock;
  let veh = Extent.malloc t.large clock ~size ~kind:Booklog.Extent in
  Sim.Lock.release t.lock clock;
  veh

let free_large t clock veh =
  Sim.Lock.acquire t.lock clock;
  Extent.free t.large clock veh;
  Sim.Lock.release t.lock clock

(* --- recovery / observability ----------------------------------------------- *)

let restore_slab t veh s =
  Hashtbl.replace t.slab_vehs veh.Extent.addr veh;
  Hashtbl.replace t.all_slabs s.Slab.addr s;
  if s.Slab.free_count > 0 then freelist_add t s;
  if s.Slab.morph = None then lru_touch t s

(* [f] takes the base too, so no closure is built per arena. *)
let iter_slabs t f = if Hashtbl.length t.all_slabs > 0 then Hashtbl.iter f t.all_slabs

(* GC-variant recovery: the persisted bitmap is stale in both directions
   (bits are never flushed at runtime), so rebuild it wholesale from the
   conservative-GC mark set. Returns the number of stale-allocated blocks
   released. *)
let recover_rebuild_slab t clock s ~live =
  let open Slab in
  let layout = s.layout in
  let released = ref 0 in
  for b = layout.nblocks - 1 downto 0 do
    let pinned = not (usable s b) in
    let want = pinned || live b in
    let had = Bitmap.get t.dev s.bitmap b in
    if had && (not want) then incr released;
    if had <> want then
      if want then Bitmap.set t.dev s.bitmap b else Bitmap.clear t.dev s.bitmap b
  done;
  Slab.recompute_free t.dev s;
  flush_meta t clock ~addr:(bitmap_addr s)
    ~len:(layout.bitmap_lines * Pmem.Cacheline.size);
  (match s.freelist_node with
  | Some _ when s.free_count = 0 -> freelist_remove t s
  | None when s.free_count > 0 && not s.dying -> freelist_add t s
  | Some _ | None -> ());
  maybe_destroy_empty t clock s;
  !released

let live_small_blocks t =
  Hashtbl.fold
    (fun _ s acc -> acc + (s.Slab.layout.Slab.nblocks - s.Slab.free_count))
    t.all_slabs 0

(* --- media quarantine ------------------------------------------------------ *)

(* Withdraw a slab whose header is unrepairable: capacity leaves the
   freelists and the LRU (no future allocations or morphs), the vslab
   leaves [all_slabs] (walks and recovery sweeps skip it), but the
   backing extent stays activated so the address range is never reissued
   while damaged. Frees targeting it are swallowed in [return_entry]. *)
let quarantine_slab t s =
  assert (not s.Slab.dying);
  s.Slab.quarantined <- true;
  freelist_remove t s;
  lru_remove t s;
  Hashtbl.remove t.all_slabs s.Slab.addr;
  Pmem.Stats.bump (Pmem.Device.stats t.dev) Media_quarantines

let dropped_frees t = t.dropped_frees
let find_slab t addr = Hashtbl.find_opt t.all_slabs addr
