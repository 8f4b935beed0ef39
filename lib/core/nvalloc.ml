module Rbtree = Support.Rbtree

type owner = Small_owner of Slab.t | Large_owner of Extent.veh * int

type t = {
  heap : Heap.t;
  dev : Pmem.Device.t;
  config : Config.t;
  mutable arenas : Arena.t array;
  (* The owner index: slabs keyed (addr, 0), large extents (addr, arena);
     addresses are unique, so the second component only names the arena. *)
  slab_index : Slab.t Rbtree.t;
  large_index : Extent.veh Rbtree.t;
  owner_lock : Sim.Lock.t;
  region_lock : Sim.Lock.t;
  arena_threads : int array;
  mutable next_thread : int;
  mutable closed : bool;
  (* Media-fault state: address ranges written off at recovery time
     (no vslab exists for them), runtime-quarantined vslabs (withdrawn
     from their arena but still owning their range), frees swallowed
     into recovery-quarantined ranges, and scrub pacing. *)
  mutable quarantined_ranges : (int * int) list;
  mutable quarantined_vslabs : Slab.t list;
  mutable media_dropped_frees : int;
  mutable next_scrub : int;
  (* Telemetry emission state, pre-interned at attach; None (the default)
     costs one compare per malloc/free. Emission never charges clocks. *)
  mutable telem : ntelem option;
}

and ntelem = {
  tsink : Telemetry.t;
  tn_op_small : int; (* root regions *)
  tn_op_large : int;
  tn_op_free : int;
  ta_size : int;
  ta_addr : int;
  tn_class_slabs : int array; (* snapshot counters, per size class *)
  tn_class_occupancy : int array;
  ts_nslabs : int array; (* snapshot scratch: per class, then free/full/partial *)
  ts_occ : float array; (* snapshot scratch: occupancy sums per class *)
}

type thread = { id : int; clock : Sim.Clock.t; arena : int; tcaches : Tcache.t array }

type recovery_report = {
  found_state : Heap.state;
  wal_entries_replayed : int;
  torn_wal_skipped : int;
  wal_entries_undone : int;
  torn_slab_creations : int;
  leaked_blocks_reclaimed : int;
  leaked_extents_reclaimed : int;
  gc_blocks_marked : int;
  booklog_entries : int;
  media_repairs : int;
  quarantined_slabs : int;
  quarantined_bytes : int;
}

let pp_recovery_report ppf r =
  Format.fprintf ppf
    "state=%s wal_replayed=%d wal_torn_skipped=%d wal_undone=%d torn_slabs=%d \
     leaked_blocks=%d leaked_extents=%d gc_marked=%d booklog_entries=%d media_repaired=%d \
     quarantined=%d quarantined_bytes=%d"
    (match r.found_state with
    | Heap.Running -> "running"
    | Heap.Shutdown -> "shutdown"
    | Heap.Recovering -> "recovering")
    r.wal_entries_replayed r.torn_wal_skipped r.wal_entries_undone r.torn_slab_creations
    r.leaked_blocks_reclaimed r.leaked_extents_reclaimed r.gc_blocks_marked
    r.booklog_entries r.media_repairs r.quarantined_slabs r.quarantined_bytes

(* --- owner index --------------------------------------------------------- *)

let slab_insert t s = ignore (Rbtree.insert t.slab_index s.Slab.addr 0 s : Rbtree.node)

(* The node of the slab / large extent holding [addr], or none. *)
let slab_node t addr =
  let n = Rbtree.find_last_leq t.slab_index addr 0 in
  if n <> Rbtree.none && addr < Rbtree.key1 t.slab_index n + Slab.slab_bytes then n else Rbtree.none

let large_node t addr =
  let n = Rbtree.find_last_leq t.large_index addr max_int in
  let v = Rbtree.value t.large_index n in
  if addr < v.Extent.addr + v.Extent.size then n else Rbtree.none

(* One search of the owner index: both trees, charged as one. *)
let charge_owner_search t clock =
  let n = Rbtree.cardinal t.slab_index + Rbtree.cardinal t.large_index in
  Pmem.Device.charge_work t.dev clock Pmem.Stats.Search ~ns:(Rbtree.search_steps n * 25)

(* The owner of [addr], uncharged; [free_from] uses the node queries instead. *)
let owner_find t addr =
  let sn = slab_node t addr in
  if sn <> Rbtree.none then Some (Small_owner (Rbtree.value t.slab_index sn))
  else
    let ln = large_node t addr in
    if ln = Rbtree.none then None
    else Some (Large_owner (Rbtree.value t.large_index ln, Rbtree.key2 t.large_index ln))

let owner_lookup t clock addr =
  charge_owner_search t clock;
  owner_find t addr

let callbacks t =
  let on_slab_created s = slab_insert t s in
  let on_slab_destroyed s = Rbtree.remove t.slab_index s.Slab.addr 0 in
  let on_extent_created v arena =
    if v.Extent.kind = Booklog.Extent then
      ignore (Rbtree.insert t.large_index v.Extent.addr arena v : Rbtree.node)
  in
  let on_extent_dropped v arena =
    if v.Extent.kind = Booklog.Extent then Rbtree.remove t.large_index v.Extent.addr arena
  in
  (on_slab_created, on_slab_destroyed, on_extent_created, on_extent_dropped)

(* --- construction ---------------------------------------------------------- *)

(* eADR makes the batched pipeline meaningless and the group-commit
   watermark wrong: flushes are free, and a crash preserves the CPU
   caches — so an open group's effects always persist, while the stale
   watermark would discard its entries on replay. Force the synchronous
   pipeline, like NVAlloc's pmem_has_auto_flush() path disables the
   interleaved mapping (section 6.7). *)
let effective_config config dev =
  if Pmem.Device.is_eadr dev then { config with Config.batch = false } else config

(* The one constructor of [t]: [arena] builds arena [index] around the
   owner-index callbacks — [Arena.create] on a fresh heap,
   [Arena.of_recovered] on a recovered one. *)
let make heap arena =
  let config = Heap.config heap in
  let t =
    {
      heap;
      dev = Heap.device heap;
      config;
      arenas = [||];
      slab_index = Rbtree.create ~dummy:Slab.dummy;
      large_index = Rbtree.create ~dummy:Extent.dummy;
      owner_lock = Sim.Lock.create ();
      region_lock = Sim.Lock.create ();
      arena_threads = Array.make config.Config.arenas 0;
      next_thread = 0;
      closed = false;
      quarantined_ranges = [];
      quarantined_vslabs = [];
      media_dropped_frees = 0;
      next_scrub = 0;
      telem = None;
    }
  in
  let on_slab_created, on_slab_destroyed, on_extent_created, on_extent_dropped = callbacks t in
  t.arenas <-
    Array.init config.Config.arenas (fun index ->
        arena ~index ~region_lock:t.region_lock ~on_slab_created ~on_slab_destroyed
          ~on_extent_created ~on_extent_dropped);
  Array.iter (fun a -> Arena.set_peers a t.arenas) t.arenas;
  t

let create ?(config = Config.log_default) ?mutation dev clock =
  Config.validate ~dev_size:(Pmem.Device.size dev) config;
  let config = effective_config config dev in
  Pmem.Device.set_batching dev config.Config.batch;
  let heap = Heap.init ?mutation dev config in
  let t = make heap (Arena.create heap) in
  (* Persist the freshly formatted metadata (superblock, WAL and
     bookkeeping-log headers): initialisation must survive a crash that
     happens before the first operation flushes anything nearby. *)
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  Heap.set_state heap clock Heap.Running;
  t

let config t = t.config
let device t = t.dev
let heap t = t.heap

let set_telemetry t sink =
  (* One sink serves the whole stack: device flushes/fences, arena
     refills/morphs/WAL traffic, and the malloc/free wrappers here all
     emit into the same per-thread rings. *)
  Pmem.Device.set_telemetry t.dev sink;
  Array.iter (fun a -> Arena.set_telemetry a sink) t.arenas;
  Sim.Lock.set_telemetry t.owner_lock sink;
  Sim.Lock.set_telemetry t.region_lock sink;
  t.telem <-
    Option.map
      (fun s ->
        {
          tsink = s;
          tn_op_small = Telemetry.intern s "malloc:small";
          tn_op_large = Telemetry.intern s "malloc:large";
          tn_op_free = Telemetry.intern s "free";
          ta_size = Telemetry.intern s "size";
          ta_addr = Telemetry.intern s "addr";
          tn_class_slabs =
            Array.init Size_class.count (fun c ->
                Telemetry.intern s (Printf.sprintf "slabs:c%d" c));
          tn_class_occupancy =
            Array.init Size_class.count (fun c ->
                Telemetry.intern s (Printf.sprintf "occupancy:c%d" c));
          ts_nslabs = Array.make (Size_class.count + 3) 0;
          ts_occ = Array.make Size_class.count 0.0;
        })
      sink

let root_addr t i = Heap.root_addr t.heap i
let root_slots t = Heap.root_slots t.heap
let arenas t = t.arenas

let thread t clock =
  (* Least-loaded arena, as in section 4.2. *)
  let best = ref 0 in
  Array.iteri (fun i n -> if n < t.arena_threads.(!best) then best := i) t.arena_threads;
  let arena = !best in
  t.arena_threads.(arena) <- t.arena_threads.(arena) + 1;
  let nsub =
    if t.config.Config.interleave_tcache then max 2 t.config.Config.bit_stripes else 1
  in
  let tcaches =
    Array.init Size_class.count (fun _ ->
        Tcache.create ~capacity:t.config.Config.tcache_capacity ~nsub)
  in
  Arena.register_tcaches t.arenas.(arena) tcaches;
  let th = { id = t.next_thread; clock; arena; tcaches } in
  t.next_thread <- t.next_thread + 1;
  th


(* --- media faults: demand repair and quarantine ------------------------------

   The device models two media failure modes: poisoned lines (reads
   raise [Media_error]; content scrambled in both images) and at-rest
   bit-rot (persisted image only — surfaces at crash promotion or under
   a scrub). Every critical metadata record carries a {!Guard} checksum
   plus replica, so damage is repaired in place; a slab whose header
   loses both copies is quarantined: capacity withdrawn, live blocks
   written off, allocation continues degraded. *)

let cl = Pmem.Cacheline.size
let media_on t = t.config.Config.media_replication

let in_quarantine t addr =
  List.exists (fun (base, len) -> addr >= base && addr < base + len) t.quarantined_ranges
  || List.exists
       (fun s -> addr >= s.Slab.addr && addr < s.Slab.addr + Slab.slab_bytes)
       t.quarantined_vslabs

let quarantined_slabs t =
  List.length t.quarantined_ranges + List.length t.quarantined_vslabs

let quarantined_bytes t =
  List.fold_left (fun acc (_, len) -> acc + len) 0 t.quarantined_ranges
  + (List.length t.quarantined_vslabs * Slab.slab_bytes)

(* Repair-path telemetry interns per emission: these paths run a handful
   of times per workload, not per operation. *)
let media_span t clock name t0 =
  match Pmem.Device.telemetry t.dev with
  | None -> ()
  | Some s ->
      Telemetry.span s ~tid:(Sim.Clock.id clock) ~name:(Telemetry.intern s name) ~ts:t0
        ~dur:(Sim.Clock.ns clock - t0);
      (* Media degradations annotate the SLO timeline. *)
      (match Telemetry.attribution s with
      | None -> ()
      | Some a -> Telemetry.Attr.note_event a ~ts:t0 ~name)

let quarantine_runtime t clock s =
  let t0 = Sim.Clock.ns clock in
  Arena.quarantine_slab t.arenas.(s.Slab.arena) s;
  (* The owner-index entry stays: the range is still the allocator's,
     and frees into it must be swallowed, never rejected. *)
  t.quarantined_vslabs <- s :: t.quarantined_vslabs;
  media_span t clock "media:quarantine" t0

let record_covers_line (r : Guard.record) line =
  let within addr len = len > 0 && line >= addr / cl && line <= (addr + len - 1) / cl in
  within r.Guard.primary r.Guard.len
  || within r.Guard.replica r.Guard.len
  || within r.Guard.p_ck 2 || within r.Guard.r_ck 2

(* The fixed guarded records, in the order every walk takes them: the
   superblock, the region-table lines (with [~regions:true]), then each
   arena's WAL and bookkeeping-log headers. Slab headers come after,
   from the owner index or [iter_slabs]. *)
let iter_fixed_guards ?(regions = false) t f =
  f Heap.sb_guard;
  if regions then
    for l = 0 to Heap.region_lines - 1 do
      f (Heap.region_guard l)
    done;
  for i = 0 to Array.length t.arenas - 1 do
    f (Wal.guard_record ~base:(Heap.wal_base t.heap ~arena:i) ~entries:t.config.Config.wal_entries);
    if t.config.Config.log_bookkeeping then
      f
        (Booklog.guard_record
           ~base:(Heap.booklog_base t.heap ~arena:i)
           ~chunks:t.config.Config.booklog_chunks)
  done

(* Map a damaged line to the guard record covering it: fixed metadata
   first, then slab headers through the owner index. [None] means the
   line holds block data or unguarded bulk (WAL entries, log chunks,
   bitmaps): nothing to repair from, the caller keeps the error. *)
let guard_of_line t line =
  let found = ref None in
  let try_r ?slab r =
    if !found = None && record_covers_line r line then found := Some (r, slab)
  in
  iter_fixed_guards ~regions:true t try_r;
  (if !found = None then
     match owner_find t (line * cl) with
     | Some (Small_owner s) -> try_r ~slab:s (Slab.guard_record s.Slab.addr)
     | _ -> ());
  !found

(* Bounded-retry policy: repair attempts per damaged record before it is
   quarantined (capacity withdrawn, allocation continues degraded). *)
let media_max_repair = 3

(* Demand repair, run before an operation touches the heap: map every
   poisoned line to its guard record and heal it from the replica —
   bounded attempts per record ([media_max_repair]), quarantine when a
   slab header loses both copies. Lines in already-quarantined ranges
   stay poisoned: nothing will read them again. *)
let handle_poison t clock =
  List.iter
    (fun line ->
      if Pmem.Device.is_poisoned t.dev ~line && not (in_quarantine t (line * cl)) then
        match guard_of_line t line with
        | None -> ()
        | Some (r, slab) ->
            let t0 = Sim.Clock.ns clock in
            let sink = Pmem.Device.telemetry t.dev in
            (match sink with
            | None -> ()
            | Some s ->
                Telemetry.enter s ~tid:(Sim.Clock.id clock)
                  ~name:(Telemetry.intern s "guard:verify") ~ts:t0);
            let status = ref Guard.Lost in
            let attempts = ref 0 in
            while !attempts < media_max_repair && !status = Guard.Lost do
              incr attempts;
              status := Guard.verify_repair t.dev clock r
            done;
            (match sink with
            | None -> ()
            | Some s -> Telemetry.leave s ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock));
            (match !status with
            | Guard.Clean | Guard.Repaired -> media_span t clock "media:repair" t0
            | Guard.Lost -> (
                match slab with
                | Some s when not s.Slab.quarantined -> quarantine_runtime t clock s
                | _ -> ())))
    (Pmem.Device.poisoned_lines t.dev)

(* The per-operation gate: one integer compare when the device is
   healthy. *)
let media_gate t clock =
  if media_on t && Pmem.Device.poisoned_count t.dev > 0 then handle_poison t clock

(* --- allocation ------------------------------------------------------------- *)

(* A user-visible pointer slot (a root slot or a word inside an allocated
   object): the only persistent word the allocator writes outside its own
   metadata. *)
module Ptr = struct
  let l = Pstruct.layout "nvalloc.ptr"
  let v = Pstruct.int_ l "ptr" ~off:0
  let () = Pstruct.seal l ~size:8
end

(* Publishing (and retracting) a pointer is a commit point: the WAL entry
   covering the operation must already be persistent. With no deps (check
   mode off) the commit builds no span. *)
let publish ~deps t clock ~dest ~addr =
  Pstruct.set t.dev ~base:dest Ptr.v addr;
  if deps == [] then Pmem.Device.commit_flush t.dev clock Pmem.Stats.Data ~addr:dest ~len:8
  else Pstruct.commit ~deps t.dev clock Pmem.Stats.Data (Pstruct.span ~base:dest Ptr.v)

(* A small op's publish. An op whose entry sits in an open commit group
   ([wal_off >= 0]) rides the group's close — the watermark then commits
   entry and pointer together, so a crash mid-group loses the whole
   operation rather than publishing a pointer whose entry replay
   discards. A morph release logs no entry and commits inline. *)
let publish_small t clock arena kind ~wal_off ~dest ~addr =
  let deps = Arena.wal_dep arena kind wal_off in
  if wal_off < 0 then publish ~deps t clock ~dest ~addr
  else begin
    Pstruct.set t.dev ~base:dest Ptr.v addr;
    Wal.defer_commit (Arena.wal arena) clock Pmem.Stats.Data ~deps ~addr:dest ~len:8
  end

let malloc_to t th ~size ~dest =
  assert (not t.closed);
  assert (size > 0);
  let clock = th.clock in
  media_gate t clock;
  let t0 = Sim.Clock.ns clock in
  let class_idx = Size_class.of_size size in
  let arena = t.arenas.(th.arena) in
  (match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.enter_root e.tsink ~tid:(Sim.Clock.id clock)
        ~name:(if class_idx >= 0 then e.tn_op_small else e.tn_op_large)
        ~ts:t0);
  let addr =
    if class_idx >= 0 then begin
      let addr = Arena.alloc_small arena clock ~tcaches:th.tcaches ~class_idx in
      let wal_off = Arena.log_op arena clock Wal.Alloc ~addr ~dest in
      publish_small t clock arena Wal.Alloc ~wal_off ~dest ~addr;
      addr
    end
    else begin
      let veh = Arena.malloc_large arena clock ~size in
      let addr = veh.Extent.addr in
      let wal_off = Arena.log_op arena clock Wal.Large_alloc ~addr ~dest in
      (* [log_op] closed the group behind a Large_* entry: commit inline. *)
      publish ~deps:(Arena.wal_dep arena Wal.Large_alloc wal_off) t clock ~dest ~addr;
      addr
    end
  in
  (match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.leave2 e.tsink ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock) ~k1:e.ta_size
        ~v1:size ~k2:e.ta_addr ~v2:addr);
  addr

let read_ptr t ~dest = Pstruct.get t.dev ~base:dest Ptr.v

(* The exact wording is part of the API: the baselines raise the same
   message, so harnesses can treat "free of an unpublished slot" uniformly
   across every allocator (see Alloc_api.Instance.free). *)
let err_free_unpublished = "free: destination slot holds no published address"

let free_from t th ~dest =
  assert (not t.closed);
  let clock = th.clock in
  media_gate t clock;
  let t0 = Sim.Clock.ns clock in
  let addr = read_ptr t ~dest in
  if addr <= 0 then invalid_arg err_free_unpublished;
  (* One root region for both small and large frees: the owner is
     unknown until the lookup, which itself belongs inside the region. *)
  (match t.telem with
  | None -> ()
  | Some e -> Telemetry.enter_root e.tsink ~tid:(Sim.Clock.id clock) ~name:e.tn_op_free ~ts:t0);
  if media_on t && in_quarantine t addr then begin
    (* Graceful degradation: the block's home metadata is written off —
       its capacity already left the heap, so the free is swallowed and
       only the publication retracted, keeping the image consistent. *)
    t.media_dropped_frees <- t.media_dropped_frees + 1;
    publish ~deps:[] t clock ~dest ~addr:0
  end
  else begin
    (* Internal collection retracts the reference before unmarking the
       block: a crash in between leaves an orphan the application resolves
       via iter_allocated, never a published pointer to a freed block. The
       logged variants keep the reverse order and let WAL replay clear the
       dangling destination. *)
    if t.config.Config.consistency = Config.Internal_collection then
      publish ~deps:[] t clock ~dest ~addr:0;
    charge_owner_search t clock;
    let sn = slab_node t addr in
    if sn <> Rbtree.none then begin
      let slab = Rbtree.value t.slab_index sn in
      let arena = t.arenas.(slab.Slab.arena) in
      let wal_off = Arena.free_small arena clock ~tcaches:th.tcaches slab ~addr ~dest in
      publish_small t clock arena Wal.Free ~wal_off ~dest ~addr:0
    end
    else begin
      let ln = large_node t addr in
      if ln = Rbtree.none then invalid_arg "Nvalloc.free_from: address not owned by the allocator";
      let veh = Rbtree.value t.large_index ln in
      assert (veh.Extent.addr = addr);
      let arena = t.arenas.(Rbtree.key2 t.large_index ln) in
      let wal_off = Arena.log_op arena clock Wal.Large_free ~addr ~dest in
      Arena.free_large arena clock veh;
      publish ~deps:(Arena.wal_dep arena Wal.Large_free wal_off) t clock ~dest ~addr:0
    end
  end;
  match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.leave2 e.tsink ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock) ~k1:e.ta_addr
        ~v1:addr ~k2:(-1) ~v2:0

let exit_ t clock =
  assert (not t.closed);
  Array.iter
    (fun arena ->
      Sim.Lock.with_lock (Arena.lock arena) clock (fun () ->
          Arena.drain_all_tcaches arena clock;
          Wal.checkpoint (Arena.wal arena) clock))
    t.arenas;
  (* Persist every remaining volatile line (NVAlloc-GC's bitmaps, free
     extent bookkeeping, ...). *)
  Pmem.Device.flush_all t.dev clock Pmem.Stats.Meta;
  Heap.set_state t.heap clock Heap.Shutdown;
  t.closed <- true

(* --- observability ------------------------------------------------------------ *)

let mapped_bytes t = Pmem.Dax.mapped_bytes (Heap.dax t.heap)
let peak_mapped_bytes t = Pmem.Dax.peak_mapped_bytes (Heap.dax t.heap)
let reset_peak t = Pmem.Dax.reset_peak (Heap.dax t.heap)
let stats t = Pmem.Device.stats t.dev

type owner_info = { base : int; size : int; is_slab : bool }

let info_of_owner = function
  | Small_owner s -> { base = s.Slab.addr; size = Slab.slab_bytes; is_slab = true }
  | Large_owner (v, _) -> { base = v.Extent.addr; size = v.Extent.size; is_slab = false }

let owner_of_addr t addr =
  match owner_find t addr with
  | Some o -> Some (info_of_owner o)
  | None ->
      (* Recovery-quarantined ranges have no index entry (no vslab was
         built) but remain the allocator's: queries must keep reporting
         them so callers free (and get swallowed) instead of erroring. *)
      List.find_map
        (fun (base, size) ->
          if addr >= base && addr < base + size then Some { base; size; is_slab = true }
          else None)
        t.quarantined_ranges

(* Both trees' bindings, merged in address order. *)
let owners t =
  let slabs = Rbtree.fold (fun k _ s acc -> (k, Small_owner s) :: acc) t.slab_index [] in
  let all = Rbtree.fold (fun k a v acc -> (k, Large_owner (v, a)) :: acc) t.large_index slabs in
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) all

let check_owner_index t =
  let prev = ref None in
  let error = ref None in
  List.iter
    (fun (key, o) ->
      let i = info_of_owner o in
      if key <> i.base then
        error := Some (Printf.sprintf "key %d <> base %d" key i.base);
      (match !prev with
      | Some p when p.base + p.size > i.base && !error = None ->
          error :=
            Some
              (Printf.sprintf "overlap: [%d,+%d,%s] and [%d,+%d,%s]" p.base p.size
                 (if p.is_slab then "slab" else "ext")
                 i.base i.size
                 (if i.is_slab then "slab" else "ext"))
      | _ -> ());
      prev := Some i)
    (owners t);
  match !error with None -> Ok "disjoint" | Some e -> Error e

let iter_slabs t f =
  let f _ s = f s in
  Array.iter (fun a -> Arena.iter_slabs a f) t.arenas

let iter_allocated t f =
  (* Small objects: marked, non-pinned blocks; old-class blocks of a
     morphing slab are enumerated from the index table. *)
  iter_slabs t (fun s ->
      Bitmap.iter_set t.dev s.Slab.bitmap (fun b ->
          if Slab.usable s b then
            f ~addr:(Slab.block_addr s b) ~size:s.Slab.layout.Slab.block_size);
      match s.Slab.morph with
      | Some m ->
          Hashtbl.iter
            (fun b _ -> f ~addr:(Slab.old_block_addr s m b) ~size:m.Slab.old_block_size)
            m.Slab.old_live
      | None -> ());
  (* Large objects. *)
  Rbtree.iter (fun _ _ v -> f ~addr:v.Extent.addr ~size:v.Extent.size) t.large_index

let allocated_small_blocks t =
  Array.fold_left (fun acc a -> acc + Arena.live_small_blocks a) 0 t.arenas

let metadata_bytes t =
  (* Per-object heap metadata resident right now: everything below each
     slab's block 0 (packed header line, bitmaps, morph index table)
     plus the in-place VEH slot area at the head of each mapped region.
     Fixed-size arena structures (WAL, bookkeeping log) are excluded —
     they do not grow with the number of live objects. *)
  let total = ref 0 in
  iter_slabs t (fun s -> total := !total + s.Slab.layout.Slab.data_off);
  Array.iter
    (fun a ->
      Extent.iter_pages (Arena.large a) (fun pd ->
          total := !total + pd.Extent.page_data_off))
    t.arenas;
  !total

let slab_utilization_histogram t ~buckets =
  let bounds = Array.of_list buckets in
  let counts = Array.make (Array.length bounds) 0 in
  iter_slabs t (fun s ->
      let r = Slab.occupancy_ratio s in
      let rec place i =
        if i >= Array.length bounds then ()
        else if r <= bounds.(i) then counts.(i) <- counts.(i) + 1
        else place (i + 1)
      in
      place 0);
  counts

(* --- heap-integrity walker ---------------------------------------------------

   Deep consistency check of the persistent image against the volatile
   bookkeeping, for the model-based checker (lib/check) and tests. Two
   passes: structural checks with tcaches live, then a quiescing pass
   (drain every tcache, checkpoint every WAL) after which the WAL must be
   empty and the same structural checks must still hold.

   A cross-arena free parks a foreign block in the freeing thread's
   tcache, but drains route every entry back through the slab's owning
   arena (Arena.set_peers), so slab registration stays with the arena
   named in the slab header — and the walker checks that affinity. *)

exception Integrity of string

let failf fmt = Printf.ksprintf (fun m -> raise (Integrity m)) fmt

let walk_slab t ~quiesced s =
  let l = s.Slab.layout in
  let sid = s.Slab.addr in
  let ic = t.config.Config.consistency = Config.Internal_collection in
  if s.Slab.dying then failf "slab %#x: dying slab still enumerated" sid;
  if s.Slab.free_count < 0 || s.Slab.free_count > l.Slab.nblocks then
    failf "slab %#x: free_count %d outside [0, %d]" sid s.Slab.free_count l.Slab.nblocks;
  let free_seen = ref 0 in
  Slab.iter_free s (fun b ->
      incr free_seen;
      if Bitmap.get t.dev s.Slab.bitmap b then
        failf "slab %#x: free block %d has its bitmap bit set" sid b;
      if not (Slab.usable s b) then failf "slab %#x: free block %d is not usable" sid b);
  if !free_seen <> s.Slab.free_count then
    failf "slab %#x: free-set size %d <> free_count %d" sid !free_seen s.Slab.free_count;
  (* Persistent packed header vs. volatile layout. *)
  if not (Slab.is_slab_header t.dev sid) then failf "slab %#x: bad header magic" sid;
  let persisted_class = Slab.read_class ~mutation:(Heap.mutation t.heap) t.dev sid in
  if persisted_class <> l.Slab.class_idx then
    failf "slab %#x: persisted class %d <> volatile class %d" sid persisted_class
      l.Slab.class_idx;
  if Slab.Header.read_arena t.dev sid <> s.Slab.arena then
    failf "slab %#x: persisted arena %d <> volatile arena %d" sid
      (Slab.Header.read_arena t.dev sid)
      s.Slab.arena;
  (* The free hint is advisory (refreshed only at header commits) but must
     stay in the packed field's valid range for the current layout. *)
  let hint = Slab.Header.read_free_hint t.dev sid in
  if hint > l.Slab.nblocks then
    failf "slab %#x: persisted free hint %d exceeds nblocks %d" sid hint l.Slab.nblocks;
  let flag = Slab.Header.read_flag t.dev sid in
  if flag <> 0 then failf "slab %#x: morph flag %d left nonzero at rest" sid flag;
  (* Tcache accounting: only the internal-collection variant tracks
     bit-unmarked tcache residents per slab. *)
  if s.Slab.tcached < 0 then failf "slab %#x: negative tcached %d" sid s.Slab.tcached;
  if (not ic) && s.Slab.tcached <> 0 then
    failf "slab %#x: tcached %d under a non-IC variant" sid s.Slab.tcached;
  if quiesced && s.Slab.tcached <> 0 then
    failf "slab %#x: tcached %d after the quiescing drain" sid s.Slab.tcached;
  (* Bitmap accounting: bit set iff the block is allocated (user-live,
     tcache-resident under LOG/GC, or morph-pinned). *)
  let pop = Bitmap.popcount t.dev s.Slab.bitmap in
  let expect = l.Slab.nblocks - s.Slab.free_count - (if ic then s.Slab.tcached else 0) in
  if pop <> expect then
    failf "slab %#x: bitmap popcount %d <> expected %d (nblocks %d, free %d, tcached %d)" sid
      pop expect l.Slab.nblocks s.Slab.free_count s.Slab.tcached;
  (* Morph state vs. the persistent index table (section 5.2). *)
  match s.Slab.morph with
  | None ->
      if Slab.Header.read_old_class t.dev sid <> Slab.Header.no_class then
        failf "slab %#x: not morphing but persisted old_class is %d" sid
          (Slab.Header.read_old_class t.dev sid)
  | Some m ->
      if m.Slab.cnt_slab = 0 then failf "slab %#x: morph state with cnt_slab 0" sid;
      if Hashtbl.length m.Slab.old_live <> m.Slab.cnt_slab then
        failf "slab %#x: cnt_slab %d <> %d live old blocks" sid m.Slab.cnt_slab
          (Hashtbl.length m.Slab.old_live);
      if Slab.Header.read_old_class t.dev sid <> m.Slab.old_class then
        failf "slab %#x: persisted old_class %d <> volatile %d" sid
          (Slab.Header.read_old_class t.dev sid)
          m.Slab.old_class;
      let icount = Slab.Header.read_index_count t.dev sid in
      let by_slot = Hashtbl.create 16 in
      Hashtbl.iter
        (fun b slot ->
          if slot < 0 || slot >= icount then
            failf "slab %#x: old block %d in index slot %d, persisted count %d" sid b slot
              icount;
          if Hashtbl.mem by_slot slot then failf "slab %#x: index slot %d claimed twice" sid slot;
          Hashtbl.add by_slot slot b;
          let e = Slab.read_index_entry t.dev sid slot in
          if e <> Slab.pack_index_entry ~block:b ~allocated:true then
            failf "slab %#x: index slot %d reads %#x, expected live old block %d" sid slot e b)
        m.Slab.old_live;
      for slot = 0 to icount - 1 do
        let b, allocated = Slab.unpack_index_entry (Slab.read_index_entry t.dev sid slot) in
        if allocated then
          match Hashtbl.find_opt by_slot slot with
          | Some b' when b' = b -> ()
          | _ ->
              failf "slab %#x: index slot %d marks old block %d allocated, volatile state does not"
                sid slot b
      done;
      (* Recompute the per-new-block pin counts from the live old blocks
         and hold them against cnt_block and the bitmap pins. *)
      let cnt = Array.make (Array.length m.Slab.cnt_block) 0 in
      Hashtbl.iter
        (fun b _ ->
          for j = Slab.first_overlap s m b to Slab.last_overlap s m b do
            cnt.(j) <- cnt.(j) + 1
          done)
        m.Slab.old_live;
      Array.iteri
        (fun j c ->
          if c <> m.Slab.cnt_block.(j) then
            failf "slab %#x: cnt_block[%d] = %d, recomputed %d" sid j m.Slab.cnt_block.(j) c;
          if c > 0 then begin
            if not (Bitmap.get t.dev s.Slab.bitmap j) then
              failf "slab %#x: morph-pinned block %d has a clear bit" sid j;
            if Slab.usable s j then failf "slab %#x: morph-pinned block %d usable" sid j
          end)
        cnt

let structural_walk t ~quiesced =
  (match check_owner_index t with Ok _ -> () | Error e -> failf "owner index: %s" e);
  let slabs = ref 0 in
  Array.iter
    (fun a ->
      Arena.iter_slabs a (fun _ s ->
          incr slabs;
          if s.Slab.arena <> Arena.index a then
            failf "slab %#x: belongs to arena %d, registered with arena %d" s.Slab.addr
              s.Slab.arena (Arena.index a);
          walk_slab t ~quiesced s))
    t.arenas;
  !slabs

let integrity_walk t clock =
  try
    if t.closed then failf "integrity walk on a closed handle";
    (* Heal outstanding media damage first: the walker reads persisted
       headers, and surviving poison on a repairable record is a repair
       debt, not an integrity failure. *)
    media_gate t clock;
    List.iter
      (fun s ->
        if not s.Slab.quarantined then
          failf "slab %#x: in the quarantine list but not flagged" s.Slab.addr;
        if Arena.find_slab t.arenas.(s.Slab.arena) s.Slab.addr <> None then
          failf "slab %#x: quarantined but still registered with its arena" s.Slab.addr)
      t.quarantined_vslabs;
    List.iter
      (fun (base, size) ->
        if size <> Slab.slab_bytes then
          failf "quarantined range %#x: size %d is not one slab" base size)
      t.quarantined_ranges;
    let _ = structural_walk t ~quiesced:false in
    (* Quiesce exactly as a clean shutdown would, but keep the heap
       running: every tcache drained, every WAL checkpointed. *)
    Array.iter
      (fun arena ->
        Sim.Lock.with_lock (Arena.lock arena) clock (fun () ->
            Arena.drain_all_tcaches arena clock;
            Wal.checkpoint (Arena.wal arena) clock))
      t.arenas;
    Array.iter
      (fun arena ->
        let used = Wal.used (Arena.wal arena) in
        if used <> 0 then
          failf "arena %d: WAL holds %d entries after the quiescing checkpoint"
            (Arena.index arena) used)
      t.arenas;
    let slabs = structural_walk t ~quiesced:true in
    Ok
      (Printf.sprintf "%d slabs, %d small blocks allocated, owner index disjoint" slabs
         (allocated_small_blocks t))
  with
  | Integrity m -> Error m
  | Pmem.Device.Media_error { op; addr; line; _ } ->
      Error (Printf.sprintf "media error during walk: %s at %#x (line %d)" op addr line)

(* A whole-valued snapshot counter (an intern hit allocates nothing). *)
let snapshot_int sink ~ts name value =
  Telemetry.counter_int sink ~tid:Telemetry.snapshot_tid ~name:(Telemetry.intern sink name) ~ts
    ~value

(* Periodic heap introspection: counter events on the snapshot pseudo-
   track — per-size-class slab counts and mean occupancy, free/full/
   partial slab counts, extent byte totals and fragmentation, mapped
   bytes. Read-only over volatile bookkeeping; charges nothing. Only the
   per-class mean occupancies box a float. *)
let telemetry_snapshot t ~ts =
  match t.telem with
  | None -> ()
  | Some e ->
      let sink = e.tsink in
      let tid = Telemetry.snapshot_tid in
      let nclasses = Size_class.count in
      let nslabs = e.ts_nslabs and occ = e.ts_occ in
      Array.fill nslabs 0 (nclasses + 3) 0;
      Array.fill occ 0 nclasses 0.0;
      iter_slabs t (fun s ->
          let c = s.Slab.layout.Slab.class_idx in
          nslabs.(c) <- nslabs.(c) + 1;
          (* [Slab.occupancy_ratio], inline: its float result would be boxed. *)
          let total = s.Slab.layout.Slab.nblocks in
          occ.(c) <- occ.(c) +. (float_of_int (total - s.Slab.free_count) /. float_of_int total);
          let kind =
            if s.Slab.free_count = 0 then 1 else if s.Slab.free_count = total then 0 else 2
          in
          nslabs.(nclasses + kind) <- nslabs.(nclasses + kind) + 1);
      snapshot_int sink ~ts "slabs:free" nslabs.(nclasses);
      snapshot_int sink ~ts "slabs:full" nslabs.(nclasses + 1);
      snapshot_int sink ~ts "slabs:partial" nslabs.(nclasses + 2);
      for c = 0 to nclasses - 1 do
        if nslabs.(c) > 0 then begin
          Telemetry.counter_int sink ~tid ~name:e.tn_class_slabs.(c) ~ts ~value:nslabs.(c);
          Telemetry.counter sink ~tid ~name:e.tn_class_occupancy.(c) ~ts
            ~value:(occ.(c) /. float_of_int nslabs.(c))
        end
      done;
      let activated = ref 0 and reclaimed = ref 0 and retained = ref 0 in
      for i = 0 to Array.length t.arenas - 1 do
        let l = Arena.large t.arenas.(i) in
        activated := !activated + Extent.activated_bytes l;
        reclaimed := !reclaimed + Extent.reclaimed_bytes l;
        retained := !retained + Extent.retained_bytes l
      done;
      snapshot_int sink ~ts "extent:activated_bytes" !activated;
      snapshot_int sink ~ts "extent:reclaimed_bytes" !reclaimed;
      snapshot_int sink ~ts "extent:retained_bytes" !retained;
      (* Fragmentation: share of once-activated address space now sitting in
         reclaimed (free but carved-up) extents. *)
      let denom = !activated + !reclaimed in
      Telemetry.counter_ratio sink ~tid ~name:(Telemetry.intern sink "extent:fragmentation") ~ts
        ~num:!reclaimed ~den:(if denom = 0 then 1 else denom);
      snapshot_int sink ~ts "mapped_bytes" (mapped_bytes t)

(* --- media scrub and fault injection ------------------------------------ *)

(* One scrub pass over every guarded record: rewrite at-rest rot from
   the verified cached image, then verify/repair each checksum pair. A
   slab whose record lost both copies is quarantined; losing any other
   record here is only counted — the next recovery decides whether it is
   fatal. Returns [(repaired, lost)], rot rewrites included. *)
let scrub t clock =
  assert (media_on t);
  let t0 = Sim.Clock.ns clock in
  let repaired = ref 0 and lost = ref 0 in
  let handle ?slab (r : Guard.record) =
    (* Cost model: the scrubber reads both copies and their checksums. *)
    Pmem.Device.charge_pm_read t.dev clock ~lines:2;
    let n = Pmem.Device.scrub_lines t.dev ~addr:r.Guard.primary ~len:r.Guard.len in
    let n = n + Pmem.Device.scrub_lines t.dev ~addr:r.Guard.p_ck ~len:2 in
    let n = n + Pmem.Device.scrub_lines t.dev ~addr:r.Guard.replica ~len:r.Guard.len in
    let n = n + Pmem.Device.scrub_lines t.dev ~addr:r.Guard.r_ck ~len:2 in
    repaired := !repaired + n;
    Pmem.Stats.add (Pmem.Device.stats t.dev) Media_repairs n;
    if Heap.mutation t.heap = Mutation.Scrub then begin
      (* The seeded mutation ([Mutation.Scrub]): bless whatever a damaged
         primary contains instead of repairing it from the replica. The
         differential oracle must catch the downstream corruption. *)
      if not (Guard.primary_ok t.dev r) then Guard.bless t.dev clock r
    end
    else
      match Guard.verify_repair t.dev clock r with
      | Guard.Clean -> ()
      | Guard.Repaired -> incr repaired
      | Guard.Lost -> (
          match slab with
          | Some s when not s.Slab.quarantined ->
              quarantine_runtime t clock s;
              incr lost
          | Some _ -> ()
          | None -> incr lost)
  in
  iter_fixed_guards ~regions:true t handle;
  (* Collect first: a quarantine mutates the arena's slab table. *)
  let slabs = ref [] in
  iter_slabs t (fun s -> slabs := s :: !slabs);
  List.iter (fun s -> handle ~slab:s (Slab.guard_record s.Slab.addr)) !slabs;
  Pmem.Stats.bump (Pmem.Device.stats t.dev) Scrub_passes;
  media_span t clock "scrub" t0;
  (!repaired, !lost)

(* Minimum simulated time between scrub passes. *)
let media_scrub_interval_ns = 1_000_000

(* Idle-slot hook for [Instance.maintenance]: at most one pass per
   [media_scrub_interval_ns] of simulated time. *)
let scrub_tick t clock =
  if
    media_on t && t.config.Config.media_scrub && (not t.closed)
    && Sim.Clock.ns clock >= t.next_scrub
  then begin
    t.next_scrub <- Sim.Clock.ns clock + media_scrub_interval_ns;
    ignore (scrub t clock);
    true
  end
  else false

let dropped_frees t =
  t.media_dropped_frees
  + Array.fold_left (fun acc a -> acc + Arena.dropped_frees a) 0 t.arenas

(* Injection candidates: both copies of every guarded record, as
   [(base, len, partner)] — the primary then the replica per record, the
   last record walked first. Sampling never takes both halves of one
   record, so a seeded fault is always repairable — the acceptance
   bound: no block whose data lines are intact may be lost. Region-table
   lines are excluded (their checksums share cache lines across 32
   records); double faults are exercised directly in tests via
   [Device.poison]. *)
let guarded_halves t =
  let halves = ref [] in
  let add (r : Guard.record) =
    halves :=
      (r.Guard.primary, r.Guard.len, r.Guard.replica)
      :: (r.Guard.replica, r.Guard.len, r.Guard.primary)
      :: !halves
  in
  iter_fixed_guards t add;
  iter_slabs t (fun s -> add (Slab.guard_record s.Slab.addr));
  Array.of_list !halves

let seed_poison t ~seed ~count =
  assert (media_on t);
  let cands = Array.map (fun (base, _, partner) -> (base / cl, partner / cl)) (guarded_halves t) in
  let n = Array.length cands in
  let rng = Sim.Rng.create (0x50150 lxor seed) in
  for i = n - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let tmp = cands.(i) in
    cands.(i) <- cands.(j);
    cands.(j) <- tmp
  done;
  let taken = Hashtbl.create 16 in
  let injected = ref 0 in
  (* Never poison the partner of a rotted copy: a rot+poison double
     fault on a non-slab record would make recovery fatal, which is a
     harness artefact, not an allocator property. *)
  Array.iter
    (fun (line, partner) ->
      if
        !injected < count
        && (not (Hashtbl.mem taken line))
        && (not (Hashtbl.mem taken partner))
        && (not (Pmem.Device.is_rotted t.dev ~line:partner))
        && not (Pmem.Device.is_poisoned t.dev ~line)
      then begin
        Hashtbl.replace taken line ();
        Pmem.Device.poison t.dev ~line;
        incr injected
      end)
    cands;
  !injected

(* At-rest rot over the guarded byte spans, one copy per record (the
   partner rule again): repairable at the next crash promotion from the
   surviving copy, or rewritten earlier by a scrub pass. *)
let inject_bitrot t ~seed ~flips =
  assert (media_on t);
  let spans = guarded_halves t in
  let rng = Sim.Rng.create (0xB17 lxor seed) in
  let taken = Hashtbl.create 8 in
  let applied = ref 0 in
  let budget = ref (8 * flips) in
  while !applied < flips && !budget > 0 do
    decr budget;
    let base, len, partner = spans.(Sim.Rng.int rng (Array.length spans)) in
    if
      (not (Hashtbl.mem taken partner))
      && not (Pmem.Device.poisoned_within t.dev ~addr:partner ~len)
    then begin
      Hashtbl.replace taken base ();
      let a = base + Sim.Rng.int rng len in
      if not (Pmem.Device.is_poisoned t.dev ~line:(a / cl)) then begin
        Pmem.Device.corrupt_bit t.dev ~addr:a ~bit:(Sim.Rng.int rng 8);
        incr applied
      end
    end
  done;
  !applied

(* --- recovery (section 4.4) ----------------------------------------------------- *)

let recover ?(config = Config.log_default) ?mutation dev clock =
  Config.validate ~dev_size:(Pmem.Device.size dev) config;
  let config = effective_config config dev in
  Pmem.Device.set_batching dev config.Config.batch;
  let charge_lines n = Pmem.Device.charge_pm_read dev clock ~lines:n in
  (* Recovery records into a sink already attached to the device (there
     is no allocator to attach to until recovery returns). It is its own
     root op class — its WAL replay reads, guard repairs and metadata
     flushes attribute under [recovery] instead of polluting
     malloc/free — and each [phase] is a region under it. Recording
     charges nothing; without a sink [phase] is the identity. *)
  let tsink = Pmem.Device.telemetry dev in
  (match tsink with
  | None -> ()
  | Some s ->
      Telemetry.enter_root s ~tid:(Sim.Clock.id clock) ~name:(Telemetry.intern s "recovery")
        ~ts:(Sim.Clock.ns clock));
  let phase name f =
    match tsink with
    | None -> f ()
    | Some s ->
        Telemetry.enter s ~tid:(Sim.Clock.id clock) ~name:(Telemetry.intern s name)
          ~ts:(Sim.Clock.ns clock);
        let r = f () in
        Telemetry.leave s ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock);
        r
  in
  (* 0. Media pass, before anything reads a (possibly damaged) header:
     verify and repair the superblock and region table from their
     replicas. Losing either is fatal — there is nothing to rebuild the
     heap from. Per-arena log headers are verified below, once the heap
     handle provides their bases; slab headers during extent restore. *)
  let media = config.Config.media_replication in
  let media_repaired = ref 0 in
  let quarantined : (int * int) list ref = ref [] in
  let bump = function
    | Guard.Repaired -> incr media_repaired
    | Guard.Clean | Guard.Lost -> ()
  in
  if media then
    phase "recovery:media" (fun () ->
        (match Heap.verify_superblock dev clock with
        | Guard.Lost -> failwith "Nvalloc.recover: superblock unrepairable (both copies damaged)"
        | s -> bump s);
        let r, l = Heap.verify_regions dev clock in
        media_repaired := !media_repaired + r;
        if l > 0 then failwith "Nvalloc.recover: region table unrepairable");
  let found_state, heap = Heap.open_existing ?mutation dev config in
  Heap.set_state heap clock Heap.Recovering;
  let n_arenas = config.Config.arenas in
  (* Verify/repair the per-arena log headers before the decode below
     reads them: a poisoned header would raise, a rotten one (promoted
     by the crash) would decode garbage. A repair from a replica that
     trailed by one un-fenced window restores exactly a
     crash-before-commit image, which the crash model already covers. *)
  if media then
    phase "recovery:media" (fun () ->
        for i = 0 to n_arenas - 1 do
          (match
             Wal.verify_guard dev clock
               ~base:(Heap.wal_base heap ~arena:i)
               ~entries:config.Config.wal_entries
           with
          | Guard.Lost -> failwith "Nvalloc.recover: WAL header unrepairable"
          | s -> bump s);
          if config.Config.log_bookkeeping then
            match
              Booklog.verify_guard dev clock
                ~base:(Heap.booklog_base heap ~arena:i)
                ~chunks:config.Config.booklog_chunks
            with
            | Guard.Lost -> failwith "Nvalloc.recover: bookkeeping-log header unrepairable"
            | s -> bump s
        done);
  (* 1. Decode the WALs. The epochs are NOT bumped yet: they stay valid
     until the sanity pass has finished (see the [Wal.seal] calls below),
     so a crash during recovery leaves the logs replayable and recovery
     idempotent. *)
  let torn_wal = ref 0 in
  let decoded =
    phase "recovery:wal-decode" (fun () ->
        Array.init n_arenas (fun i ->
            let base = Heap.wal_base heap ~arena:i in
            charge_lines (config.Config.wal_entries / 4);
            let committed, discarded, torn =
              Wal.replay_full dev ~base ~entries:config.Config.wal_entries
            in
            torn_wal := !torn_wal + torn;
            (committed, discarded)))
  in
  let replays = Array.map fst decoded in
  (* The committed window plus the crash's open group, in seq order: what
     the sanity pass judges block fates by. A discarded entry's op never
     happened, but its effects can have leaked through shared-line
     flushes — so "no entry" must mean "checkpointed", never "dropped". *)
  let windows = Array.map (fun (c, d) -> c @ d) decoded in
  (* 2. Reopen per-arena bookkeeping logs (with their recovery-time slow
     GC) and WALs, then build the arenas around them. *)
  let booklog_live = Array.make n_arenas [] in
  let booklogs =
    phase "recovery:booklog" (fun () ->
        if config.Config.log_bookkeeping then
          Array.init n_arenas (fun i ->
              let base = Heap.booklog_base heap ~arena:i in
              charge_lines (Booklog.scanned_chunks dev ~base * 16);
              let log, live =
                Booklog.open_existing dev clock ~replicate:media ~base
                  ~chunks:config.Config.booklog_chunks
                  ~interleave:config.Config.interleave_logs
              in
              booklog_live.(i) <- live;
              Some log)
        else Array.make n_arenas None)
  in
  let wals =
    let group = Arena.wal_group config in
    Array.init n_arenas (fun i ->
        Wal.adopt dev ~group ~replicate:media ~mutation:(Heap.mutation heap)
          ~base:(Heap.wal_base heap ~arena:i)
          ~entries:config.Config.wal_entries ~interleave:config.Config.interleave_logs)
  in
  let t =
    make heap (fun ~index ->
        Arena.of_recovered heap ~index ~booklog:booklogs.(index) ~wal:wals.(index))
  in
  (* 3. Regions. *)
  let regions = Heap.read_regions dev in
  let region_of_addr addr =
    List.find (fun (base, total) -> addr >= base && addr < base + total) regions
  in
  let mapping = Arena.mapping_of_config config in
  (* Collect activated extents per arena: from the bookkeeping logs, or by
     scanning region headers in in-place mode (round-robin ownership).
     The list order is the restore order, which slab freelists and the
     LRU inherit; in-place, it runs from the last region's last extent. *)
  let activated : (int * Booklog.scanned) list =
    if config.Config.log_bookkeeping then
      List.concat
        (List.init n_arenas (fun i -> List.map (fun s -> (i, s)) booklog_live.(i)))
    else
      List.rev
        (List.concat
           (List.mapi
              (fun ri (base, total) ->
                charge_lines (Extent.region_bytes / 4096 / 8);
                List.map (fun s -> (ri mod n_arenas, s)) (Extent.scan_region dev ~base ~total))
              regions))
  in
  (* Register regions with the arena that owns extents in them; regions
     with no activated extents go to arena 0. *)
  let region_arena = Hashtbl.create 16 in
  List.iter
    (fun (arena, (s : Booklog.scanned)) ->
      let base, _ = region_of_addr s.Booklog.addr in
      if not (Hashtbl.mem region_arena base) then Hashtbl.add region_arena base arena)
    activated;
  List.iter
    (fun (base, total) ->
      let arena = Option.value ~default:0 (Hashtbl.find_opt region_arena base) in
      Extent.restore_region (Arena.large t.arenas.(arena)) ~base ~total)
    regions;
  (* 4. Restore activated extents; rebuild vslabs for slab extents. *)
  let torn_slabs : (Arena.t * Extent.veh) list ref = ref [] in
  phase "recovery:restore-extents" (fun () ->
  List.iter
    (fun (arena_idx, (s : Booklog.scanned)) ->
      let arena = t.arenas.(arena_idx) in
      let base, _ = region_of_addr s.Booklog.addr in
      let veh =
        Extent.restore_extent (Arena.large arena) ~addr:s.Booklog.addr ~size:s.Booklog.size
          ~kind:s.Booklog.kind ~state:Extent.Activated ~log_ref:s.Booklog.ref_ ~region:base
      in
      match s.Booklog.kind with
      | Booklog.Slab_extent ->
          let header_lost =
            media
            && (match Guard.verify_repair dev clock (Slab.guard_record s.Booklog.addr) with
               | Guard.Lost -> true
               | Guard.Repaired ->
                   incr media_repaired;
                   false
               | Guard.Clean -> false)
          in
          if header_lost then
            (* Unrepairable header (both copies damaged): write the slab
               off. No vslab is built, but the extent stays activated and
               the range is quarantined — the address space is never
               reissued while damaged, owner queries keep answering for
               it, and frees into it are swallowed. Poison persists
               across crashes, so a re-recovery reaches the same verdict
               and recovery stays idempotent. *)
            quarantined := (s.Booklog.addr, s.Booklog.size) :: !quarantined
          else if not (Slab.is_slab_header dev s.Booklog.addr) then
            (* Torn slab creation: the bookkeeping entry persisted but the
               header flush did not. The extent carries no live data (the
               first refill happens only after the header is persistent):
               reclaim it — after the gaps are rebuilt, so the address
               ranges stay disjoint. *)
            torn_slabs := (arena, veh) :: !torn_slabs
          else begin
            Arena.adopt_slab_veh arena veh;
            charge_lines (Slab.slab_bytes / Pmem.Cacheline.size / 8);
            let vslab, undone =
              Slab.recover ~mutation:(Heap.mutation heap) dev ~addr:s.Booklog.addr
                ~arena:arena_idx ~mapping
            in
            if undone then
              Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:s.Booklog.addr
                ~len:Slab.slab_bytes;
            slab_insert t vslab;
            Arena.restore_slab arena vslab
          end
      | Booklog.Extent -> ())
    activated);
  t.quarantined_ranges <- !quarantined;
  (* 5. Gaps between activated extents become reclaimed free extents. *)
  phase "recovery:gaps" (fun () ->
  let by_region = Hashtbl.create 16 in
  List.iter
    (fun ((_ : int), (s : Booklog.scanned)) ->
      let base, _ = region_of_addr s.Booklog.addr in
      Hashtbl.replace by_region base
        ((s.Booklog.addr, s.Booklog.size)
        :: Option.value ~default:[] (Hashtbl.find_opt by_region base)))
    activated;
  let header_off = if config.Config.log_bookkeeping then 0 else Extent.header_bytes in
  List.iter
    (fun (base, total) ->
      let arena_idx = Option.value ~default:0 (Hashtbl.find_opt region_arena base) in
      let large = Arena.large t.arenas.(arena_idx) in
      let exts =
        List.sort compare (Option.value ~default:[] (Hashtbl.find_opt by_region base))
      in
      let cursor = ref (base + header_off) in
      let add_gap stop =
        if stop > !cursor then
          ignore
            (Extent.restore_extent large ~addr:!cursor ~size:(stop - !cursor)
               ~kind:Booklog.Extent ~state:Extent.Reclaimed ~log_ref:(-1) ~region:base)
      in
      List.iter
        (fun (a, sz) ->
          add_gap a;
          cursor := a + sz)
        exts;
      add_gap (base + total))
    regions;
  (* Reclaim extents of torn slab creations now that ranges are settled. *)
  List.iter (fun (arena, veh) -> Extent.free (Arena.large arena) clock veh) !torn_slabs);
  (* 6. Sanity pass on unclean shutdown. *)
  let leaked_blocks = ref 0 and leaked_extents = ref (List.length !torn_slabs) in
  let marked = ref 0 and wal_undone = ref 0 in
  let wal_total = Array.fold_left (fun acc l -> acc + List.length l) 0 replays in
  let clear_dest dest addr =
    if dest > 0 && read_ptr t ~dest = addr then publish ~deps:[] t clock ~dest ~addr:0
  in
  phase "recovery:sanity" (fun () ->
  if found_state <> Heap.Shutdown then begin
    (match config.Config.consistency with
    | Config.Internal_collection ->
        (* Internal collection (PMDK's model): the persistent bitmap marks
           exactly the user's objects — unpublished in-flight allocations
           are the application's to resolve via [iter_allocated], so the
           allocator itself has no sanity pass to run. *)
        ()
    | Config.Log_based ->
        (* WAL replay: decide the fate of every allocated small block from
           its last log entry (protocol in wal.mli). *)
        let last : (int, Wal.replayed) Hashtbl.t = Hashtbl.create 1024 in
        Array.iter (List.iter (fun (e : Wal.replayed) -> Hashtbl.replace last e.addr e)) windows;
        (* The verdict on an allocated block: -1 while it is the user's,
           else the destination that may still point at it (0 for none). *)
        let fate addr =
          match Hashtbl.find_opt last addr with
          | Some { kind = Wal.Refill; _ } -> 0
          | Some { kind = Wal.Free; dest; _ } -> dest
          | Some { kind = Wal.Alloc; dest; _ } -> if read_ptr t ~dest <> addr then 0 else -1
          | Some { kind = Wal.Large_alloc | Wal.Large_free; _ } | None -> -1
        in
        let victims = ref [] in
        let judge addr =
          let dest = fate addr in
          if dest >= 0 then victims := (addr, dest) :: !victims
        in
        (* The runtime free's release: it tells an old-class block of a
           morphing slab from a current-class one. *)
        let release s =
          List.iter
            (fun (addr, dest) ->
              clear_dest dest addr;
              Arena.return_entry t.arenas.(s.Slab.arena) clock s addr;
              incr leaked_blocks;
              incr wal_undone)
            !victims;
          victims := []
        in
        (* Collect first: releases can destroy now-empty slabs, which
           would mutate the iteration set. *)
        let slabs = ref [] in
        iter_slabs t (fun s -> slabs := s :: !slabs);
        List.iter
          (fun s ->
            Bitmap.iter_set dev s.Slab.bitmap (fun b ->
                if Slab.usable s b then judge (Slab.block_addr s b));
            release s;
            (* Old-class blocks of a morphing slab live in the index
               table, not the bitmap. *)
            (match s.Slab.morph with
            | Some m -> Hashtbl.iter (fun b _ -> judge (Slab.old_block_addr s m b)) m.Slab.old_live
            | None -> ());
            release s)
          !slabs;
        (* Large objects: a Large_alloc whose destination was never
           published is a leak; a Large_free that never reached the
           bookkeeping log must be completed. *)
        Hashtbl.iter
          (fun addr (e : Wal.replayed) ->
            match e.kind with
            | Wal.Large_alloc | Wal.Large_free -> (
                match owner_lookup t clock addr with
                | Some (Large_owner (veh, aidx)) when veh.Extent.addr = addr ->
                    let leak =
                      match e.kind with
                      | Wal.Large_alloc -> read_ptr t ~dest:e.dest <> addr
                      | _ -> true (* Large_free: the free must be completed *)
                    in
                    if leak then begin
                      clear_dest e.dest addr;
                      Arena.free_large t.arenas.(aidx) clock veh;
                      incr leaked_extents;
                      incr wal_undone
                    end
                | _ -> ())
            | Wal.Alloc | Wal.Free | Wal.Refill -> ())
          last
    | Config.Gc_based ->
        (* Conservative GC from the root table, as in Makalu: mark every
           object reachable from a root, treating any word that decodes to
           an address inside a live object as a reference; then rebuild
           the slab bitmaps from the marks and reclaim unmarked extents. *)
        let heap_lo = Heap.heap_start heap and heap_hi = Pmem.Device.size dev in
        let mark_small : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
        let mark_old : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        let mark_large : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        let queue = Queue.create () in
        let enqueue addr = if addr >= heap_lo && addr < heap_hi then Queue.add addr queue in
        (* Roots. *)
        charge_lines (Heap.root_slots heap / 8);
        for i = 0 to Heap.root_slots heap - 1 do
          let v = Int64.to_int (Pmem.Device.read_int64 dev (Heap.root_addr heap i)) in
          if v > 0 then enqueue v
        done;
        let scan_range addr size =
          charge_lines ((size + Pmem.Cacheline.size - 1) / Pmem.Cacheline.size);
          let words = size / 8 in
          for w = 0 to words - 1 do
            let v = Int64.to_int (Pmem.Device.read_int64 dev (addr + (w * 8))) in
            if v > 0 then enqueue v
          done
        in
        while not (Queue.is_empty queue) do
          let addr = Queue.pop queue in
          match owner_lookup t clock addr with
          | Some (Small_owner s) ->
              let off = addr - s.Slab.addr in
              let old_hit =
                match s.Slab.morph with
                | Some m -> Slab.old_block_index m off
                | None -> -1
              in
              (match old_hit with
              | -1 ->
                  let d = off - s.Slab.layout.Slab.data_off in
                  if d >= 0 && d / s.Slab.layout.Slab.block_size < s.Slab.layout.Slab.nblocks
                  then begin
                    let b = d / s.Slab.layout.Slab.block_size in
                    let base = Slab.block_addr s b in
                    if not (Hashtbl.mem mark_small base) then begin
                      Hashtbl.add mark_small base ();
                      incr marked;
                      scan_range base s.Slab.layout.Slab.block_size
                    end
                  end
              | _ ->
                  if not (Hashtbl.mem mark_old addr) then begin
                    Hashtbl.add mark_old addr ();
                    incr marked;
                    let m = Option.get s.Slab.morph in
                    scan_range addr m.Slab.old_block_size
                  end)
          | Some (Large_owner (veh, _)) ->
              if not (Hashtbl.mem mark_large veh.Extent.addr) then begin
                Hashtbl.add mark_large veh.Extent.addr ();
                incr marked;
                scan_range veh.Extent.addr veh.Extent.size
              end
          | None -> ()
        done;
        (* Rebuild slab bitmaps wholesale from the marks: in the GC variant
           the persisted bits are stale in both directions. Collect first:
           rebuilds can destroy empty slabs, mutating the iteration set. *)
        let slabs = ref [] in
        iter_slabs t (fun s -> slabs := s :: !slabs);
        List.iter
          (fun s ->
            (* Old-class blocks whose addresses are unmarked are leaks. *)
            (match s.Slab.morph with
            | Some m ->
                let dead = ref [] in
                Hashtbl.iter
                  (fun b _ ->
                    let addr = Slab.old_block_addr s m b in
                    if not (Hashtbl.mem mark_old addr) then dead := addr :: !dead)
                  m.Slab.old_live;
                List.iter
                  (fun addr ->
                    Arena.return_entry t.arenas.(s.Slab.arena) clock s addr;
                    incr leaked_blocks)
                  !dead
            | None -> ());
            let released =
              Arena.recover_rebuild_slab t.arenas.(s.Slab.arena) clock s ~live:(fun b ->
                  Hashtbl.mem mark_small (Slab.block_addr s b))
            in
            leaked_blocks := !leaked_blocks + released)
          !slabs;
        (* Unmarked large extents are leaks. *)
        let unmarked = ref [] in
        Rbtree.iter
          (fun _ aidx veh ->
            if not (Hashtbl.mem mark_large veh.Extent.addr) then
              unmarked := (veh, aidx) :: !unmarked)
          t.large_index;
        List.iter
          (fun (veh, aidx) ->
            Arena.free_large t.arenas.(aidx) clock veh;
            incr leaked_extents)
          !unmarked);
    (* [free_from]'s final step — zeroing the destination — can be the only
       store the crash loses, after the free's metadata effect (bitmap bit,
       morph index entry, or bookkeeping-log tombstone) already persisted.
       The sanity passes above only judge objects still marked allocated,
       so a fully-persisted free with a lost destination clear leaves a
       dangling publication nothing else will touch.  The WAL entry still
       names the (addr, dest) pair: if the object is no longer allocated
       but the destination still points at it, complete the clear.  (Both
       the large-extent and morph-old-block cases were found by the
       crash-plan fuzzer.) *)
    let still_allocated addr =
      (* A quarantined range's blocks are conservatively live: their
         bitmap is unreadable, so no publication into it may be
         cleared. *)
      in_quarantine t addr
      ||
      match owner_lookup t clock addr with
      | Some (Small_owner s) -> (
          let off = addr - s.Slab.addr in
          match s.Slab.morph with
          | Some m when Slab.old_block_index m off >= 0 -> true
          | _ ->
              Slab.contains_new_block s addr
              && Bitmap.get dev s.Slab.bitmap (Slab.block_index s addr))
      | Some (Large_owner (veh, _)) -> veh.Extent.addr = addr
      | None -> false
    in
    (* With group commit, a freed block can be handed out again inside the
       same open group, so the replay window may hold Free (addr, dest)
       followed by Alloc (addr, dest'): after a crash in the group's
       effect phase the block is allocated again (at dest') while [dest]
       still points at it. [still_allocated] alone would keep that stale
       pointer, so an entry is also undone when a {e later} entry for the
       same address supersedes it — unless that later entry is an Alloc
       re-publishing the very same destination, in which case the pointer
       is current. Small-object entries for one address always live in
       that block's home-arena WAL (and large publishes commit inline), so
       comparing sequence numbers per WAL is sound. *)
    Array.iter
      (fun (entries : Wal.replayed list) ->
        let last = Hashtbl.create 64 in
        List.iter
          (fun (e : Wal.replayed) ->
            match Hashtbl.find_opt last e.Wal.addr with
            | Some (l : Wal.replayed) when l.Wal.seq >= e.Wal.seq -> ()
            | _ -> Hashtbl.replace last e.Wal.addr e)
          entries;
        List.iter
          (fun (e : Wal.replayed) ->
            let superseded =
              match Hashtbl.find_opt last e.Wal.addr with
              | Some (l : Wal.replayed) ->
                  l.Wal.seq > e.Wal.seq
                  && not (l.Wal.kind = Wal.Alloc && l.Wal.dest = e.Wal.dest)
              | None -> false
            in
            if
              e.Wal.dest > 0
              && read_ptr t ~dest:e.Wal.dest = e.Wal.addr
              && (superseded || not (still_allocated e.Wal.addr))
            then begin
              clear_dest e.Wal.dest e.Wal.addr;
              incr wal_undone
            end)
          entries)
      windows
  end);
  (* The sanity pass is done: only now invalidate the WAL windows. A
     crash anywhere before this point re-runs the pass from the same
     entries (all its releases are idempotent); a crash after it finds
     the heap already sane, with nothing left to replay. *)
  phase "recovery:seal" (fun () -> Array.iter (fun wal -> Wal.seal wal clock) wals);
  Heap.set_state heap clock Heap.Running;
  (match tsink with
  | None -> ()
  | Some s -> Telemetry.leave s ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock));
  ( t,
    {
      found_state;
      wal_entries_replayed = (if found_state <> Heap.Shutdown then wal_total else 0);
      torn_wal_skipped = !torn_wal;
      wal_entries_undone = !wal_undone;
      torn_slab_creations = List.length !torn_slabs;
      leaked_blocks_reclaimed = !leaked_blocks;
      leaked_extents_reclaimed = !leaked_extents;
      gc_blocks_marked = !marked;
      booklog_entries = Array.fold_left (fun acc l -> acc + List.length l) 0 booklog_live;
      media_repairs = !media_repaired;
      quarantined_slabs = List.length !quarantined;
      quarantined_bytes = List.fold_left (fun acc (_, len) -> acc + len) 0 !quarantined;
    } )
