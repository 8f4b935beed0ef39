module Rbtree = Support.Rbtree
module Bitmap = Nvalloc_core.Bitmap
module Size_class = Nvalloc_core.Size_class

let slab_bytes = 65536
let wal_region = 65536
let wal_entry = 16
let tcache_cap = 32

type slab = {
  addr : int;
  class_idx : int;
  block_size : int;
  nblocks : int;
  data_off : int;
  bitmap : Bitmap.t option; (* Bitmap_seq tracking *)
  arena : int;
  mutable free_count : int;
  mutable free_stack : int list;
  mutable node : slab Support.Dlist.node option;
}

type arena = {
  idx : int;
  lock : Sim.Lock.t;
  freelists : slab Support.Dlist.t array;
  large : Blarge.t;
  wal_base : int;
  mutable wal_cursor : int;
}

type owner = Unowned (* fills free index slots *) | Slab_o of slab | Large_o of arena

type t = {
  knobs : Knobs.t;
  dev : Pmem.Device.t;
  dax : Pmem.Dax.t;
  arenas : arena array;
  owner_index : owner Rbtree.t; (* (addr, 0) *)
  root_base : int;
  root_slots : int;
  tcaches : (slab * int) list array array; (* [thread].[class] *)
  mutable live_small_bytes : int;
  mutable slab_count : int;
}

(* Per-class layout under the baseline header scheme. *)
let layout knobs class_idx =
  let bs = Size_class.size_of class_idx in
  match knobs.Knobs.tracking with
  | Knobs.Embedded_list ->
      let data_off = 64 in
      (bs, (slab_bytes - data_off) / bs, data_off, None)
  | Knobs.Bitmap_seq ->
      let rec fix nblocks =
        let lines = (nblocks + Bitmap.bits_per_line - 1) / Bitmap.bits_per_line in
        let data_off = 64 + (lines * 64) in
        let n' = (slab_bytes - data_off) / bs in
        if n' = nblocks then (nblocks, data_off, lines) else fix n'
      in
      let nblocks, data_off, _lines = fix ((slab_bytes - 64) / bs) in
      (bs, nblocks, data_off, Some ())

(* --- persistence helpers -------------------------------------------------- *)

let flush t clock cat ~addr ~len =
  if t.knobs.Knobs.persist then Pmem.Device.flush t.dev clock cat ~addr ~len

let wal_write t arena clock =
  match t.knobs.Knobs.wal with
  | Knobs.No_wal -> ()
  | style ->
      if t.knobs.Knobs.persist then begin
        let entries = wal_region / wal_entry in
        let append () =
          let off = arena.wal_base + (arena.wal_cursor mod entries * wal_entry) in
          arena.wal_cursor <- arena.wal_cursor + 1;
          Pmem.Device.write_int64 t.dev off (Int64.of_int arena.wal_cursor);
          Pmem.Device.flush t.dev clock Pmem.Stats.Wal ~addr:off ~len:wal_entry;
          off
        in
        match style with
        | Knobs.Redo_commit ->
            (* A pmemobj-style transaction: two log records (undo for the
               heap metadata, redo for the publication), each committed
               with a mark flushed into the same line — reflushes by
               construction. *)
            for _ = 1 to 2 do
              let off = append () in
              Pmem.Device.write_u8 t.dev (off + 8) 1;
              Pmem.Device.flush t.dev clock Pmem.Stats.Wal ~addr:(off + 8) ~len:1
            done
        | Knobs.Micro -> ignore (append ())
        | Knobs.No_wal -> ()
      end

(* --- slabs ----------------------------------------------------------------- *)

let new_slab t arena clock class_idx =
  let bs, nblocks, data_off, bm = layout t.knobs class_idx in
  let addr = Blarge.malloc arena.large clock ~size:slab_bytes in
  Pmem.Device.write_u16 t.dev addr class_idx;
  flush t clock Pmem.Stats.Meta ~addr ~len:64;
  let bitmap =
    match bm with
    | Some () -> Some (Bitmap.make ~base:(addr + 64) ~nbits:nblocks ~mapping:Bitmap.Sequential)
    | None -> None
  in
  let rec stack i acc = if i < 0 then acc else stack (i - 1) (i :: acc) in
  let s =
    {
      addr;
      class_idx;
      block_size = bs;
      nblocks;
      data_off;
      bitmap;
      arena = arena.idx;
      free_count = nblocks;
      free_stack = stack (nblocks - 1) [];
      node = None;
    }
  in
  t.slab_count <- t.slab_count + 1;
  ignore (Rbtree.insert t.owner_index addr 0 (Slab_o s) : Rbtree.node);
  s.node <- Some (Support.Dlist.push_back arena.freelists.(class_idx) s);
  s

let destroy_slab t arena clock s =
  (match s.node with
  | Some n ->
      Support.Dlist.remove arena.freelists.(s.class_idx) n;
      s.node <- None
  | None -> ());
  Rbtree.remove t.owner_index s.addr 0;
  t.slab_count <- t.slab_count - 1;
  Blarge.free arena.large clock ~addr:s.addr

let block_addr s b = s.addr + s.data_off + (b * s.block_size)

(* Persist the allocation-state change of block [b]. *)
let persist_alloc_state t clock s b ~now_allocated =
  match s.bitmap with
  | Some bm ->
      if now_allocated then Bitmap.set t.dev bm b else Bitmap.clear t.dev bm b;
      flush t clock Pmem.Stats.Meta ~addr:(Bitmap.line_addr bm b) ~len:1
  | None ->
      (* Embedded list: write the block's link word (shares the block's
         cache line) and the slab-header head pointer (the same line on
         every operation of this slab: reflush-prone). *)
      if not now_allocated then begin
        Pmem.Device.write_int64 t.dev (block_addr s b) (Int64.of_int b);
        flush t clock Pmem.Stats.Meta ~addr:(block_addr s b) ~len:8
      end
      else Pmem.Device.charge_pm_read t.dev clock ~lines:1;
      Pmem.Device.write_u16 t.dev (s.addr + 2)
        (match s.free_stack with [] -> 0xFFFF | b' :: _ -> b' land 0xFFFF);
      flush t clock Pmem.Stats.Meta ~addr:(s.addr + 2) ~len:2;
      if t.knobs.Knobs.extra_header_flush then begin
        Pmem.Device.write_u16 t.dev (s.addr + 4) (s.free_count land 0xFFFF);
        flush t clock Pmem.Stats.Meta ~addr:(s.addr + 4) ~len:2
      end

(* --- engine ----------------------------------------------------------------- *)

let arena_of t ~tid =
  if t.knobs.Knobs.per_thread_arena then t.arenas.(tid mod Array.length t.arenas)
  else t.arenas.(tid mod Array.length t.arenas)

let take_block t arena clock class_idx =
  let fl = arena.freelists.(class_idx) in
  let s =
    if Support.Dlist.is_empty fl then new_slab t arena clock class_idx else Support.Dlist.front fl
  in
  match s.free_stack with
  | [] -> assert false
  | b :: rest ->
      s.free_stack <- rest;
      s.free_count <- s.free_count - 1;
      if s.free_count = 0 then (
        match s.node with
        | Some n ->
            Support.Dlist.remove fl n;
            s.node <- None
        | None -> ());
      (s, b)

let alloc_small t clock ~tid ~class_idx =
  let tc = t.tcaches.(tid) in
  let s, b =
    match tc.(class_idx) with
    | (s, b) :: rest when t.knobs.Knobs.tcache ->
        tc.(class_idx) <- rest;
        (s, b)
    | _ ->
        let arena = arena_of t ~tid in
        Sim.Lock.with_lock arena.lock clock (fun () -> take_block t arena clock class_idx)
  in
  (* Persistence happens per operation in every baseline. *)
  let owner_arena = t.arenas.(s.arena) in
  persist_alloc_state t clock s b ~now_allocated:true;
  wal_write t owner_arena clock;
  t.live_small_bytes <- t.live_small_bytes + s.block_size;
  block_addr s b

let return_block t arena clock s b =
  if s.free_count = 0 && s.node = None then
    s.node <- Some (Support.Dlist.push_back arena.freelists.(s.class_idx) s);
  s.free_count <- s.free_count + 1;
  s.free_stack <- b :: s.free_stack;
  if
    s.free_count = s.nblocks
    && (not t.knobs.Knobs.hoard_empty)
    && Support.Dlist.length arena.freelists.(s.class_idx) > 1
  then destroy_slab t arena clock s

let free_small t clock ~tid s addr =
  let b = (addr - s.addr - s.data_off) / s.block_size in
  assert ((addr - s.addr - s.data_off) mod s.block_size = 0);
  let owner_arena = t.arenas.(s.arena) in
  (* PAllocator's dedicated per-thread allocators pay for cross-thread
     frees: the block is handed back through the owner's persistent
     remote-free queue (paper sections 6.3/6.7: worse Prod-con, Larson
     and FPTree results despite the best thread-local scaling). *)
  if t.knobs.Knobs.per_thread_arena && s.arena <> tid mod Array.length t.arenas then begin
    Pmem.Device.write_int64 t.dev (s.addr + 8) (Int64.of_int addr);
    flush t clock Pmem.Stats.Meta ~addr:(s.addr + 8) ~len:8;
    Pmem.Device.charge_work t.dev clock Pmem.Stats.Other ~ns:400
  end;
  persist_alloc_state t clock s b ~now_allocated:false;
  wal_write t owner_arena clock;
  t.live_small_bytes <- t.live_small_bytes - s.block_size;
  let tc = t.tcaches.(tid) in
  if t.knobs.Knobs.tcache && List.length tc.(s.class_idx) < tcache_cap then
    tc.(s.class_idx) <- (s, b) :: tc.(s.class_idx)
  else
    Sim.Lock.with_lock owner_arena.lock clock (fun () -> return_block t owner_arena clock s b)

(* --- recovery cost model ----------------------------------------------------- *)

let recovery_time t =
  let clock = Sim.Clock.create () in
  let lines n = Pmem.Device.charge_pm_read t.dev clock ~lines:n in
  let wal_lines = Array.length t.arenas * (wal_region / 64) in
  let live_large =
    Array.fold_left
      (fun acc a -> acc + List.fold_left (fun n (_, sz) -> n + sz) 0 (Blarge.live_extents a.large))
      0 t.arenas
  in
  let regions = Array.fold_left (fun acc a -> acc + Blarge.region_count a.large) 0 t.arenas in
  (match t.knobs.Knobs.recovery with
  | Knobs.Wal_only -> lines wal_lines
  | Knobs.Wal_and_meta ->
      lines wal_lines;
      lines (regions * (16384 / 64));
      lines (t.slab_count * 16)
  | Knobs.Headers_partial ->
      lines t.slab_count;
      lines (t.live_small_bytes / 2 / 64)
  | Knobs.Conservative_gc ->
      lines ((t.live_small_bytes + live_large) / 64);
      lines (t.slab_count * 16));
  Sim.Clock.now clock

(* --- instance ------------------------------------------------------------------ *)

let instance ~knobs ~threads ~dev_size ?(eadr = false) ?(root_slots = 1 lsl 20) () =
  let lat = if eadr then Pmem.Latency.eadr else Pmem.Latency.default in
  let dev = Pmem.Device.create ~lat ~size:dev_size () in
  let clocks = Array.init threads (fun _ -> Sim.Clock.create ()) in
  let n_arenas = if knobs.Knobs.per_thread_arena then threads else min threads 40 in
  let root_base = n_arenas * wal_region in
  let heap_start = (root_base + (root_slots * 8) + 4095) land lnot 4095 in
  let dax = Pmem.Dax.create ~start:heap_start dev in
  let region_lock = Sim.Lock.create () in
  let t =
    {
      knobs;
      dev;
      dax;
      arenas = [||];
      owner_index = Rbtree.create ~dummy:Unowned;
      root_base;
      root_slots;
      tcaches = Array.init threads (fun _ -> Array.make Size_class.count []);
      live_small_bytes = 0;
      slab_count = 0;
    }
  in
  let arenas =
    Array.init n_arenas (fun idx ->
        let rec arena =
          lazy
            {
              idx;
              lock = Sim.Lock.create ();
              freelists = Array.init Size_class.count (fun _ -> Support.Dlist.create ());
              large =
                Blarge.create ~dax ~region_lock ~persist:knobs.Knobs.persist
                  ~hoard:knobs.Knobs.hoard_empty
                  ~extra_flush:knobs.Knobs.extra_header_flush
                  ~page_headers:knobs.Knobs.page_headers
                  ~light:knobs.Knobs.light_large
                  ~wal_write:(fun clock -> wal_write t (Lazy.force arena) clock);
              wal_base = idx * wal_region;
              wal_cursor = 0;
            }
        in
        Lazy.force arena)
  in
  let t = { t with arenas } in
  let root i =
    assert (i >= 0 && i < root_slots);
    root_base + (i * 8)
  in
  let publish clock ~dest ~addr =
    Pmem.Device.write_int64 dev dest (Int64.of_int addr);
    flush t clock Pmem.Stats.Data ~addr:dest ~len:8
  in
  let overhead clock =
    Pmem.Device.charge_work dev clock Pmem.Stats.Other ~ns:knobs.Knobs.op_overhead_ns
  in
  let malloc ~tid ~size ~dest =
    let clock = clocks.(tid) in
    overhead clock;
    let class_idx = Size_class.of_size size in
    let addr =
      if class_idx >= 0 then alloc_small t clock ~tid ~class_idx
      else begin
        let arena = arena_of t ~tid in
        let addr =
          Sim.Lock.with_lock arena.lock clock (fun () -> Blarge.malloc arena.large clock ~size)
        in
        ignore (Rbtree.insert t.owner_index addr 0 (Large_o arena) : Rbtree.node);
        addr
      end
    in
    publish clock ~dest ~addr;
    addr
  in
  let free ~tid ~dest =
    let clock = clocks.(tid) in
    overhead clock;
    let addr = Int64.to_int (Pmem.Device.read_int64 dev dest) in
    (* Same message as Nvalloc.free_from: freeing an unpublished slot is
       a uniform error across every allocator (Alloc_api.Instance.free). *)
    if addr <= 0 then invalid_arg Nvalloc_core.Nvalloc.err_free_unpublished;
    (match Rbtree.value t.owner_index (Rbtree.find_last_leq t.owner_index addr 0) with
    | Slab_o s when addr < s.addr + slab_bytes -> free_small t clock ~tid s addr
    | Large_o arena ->
        Rbtree.remove t.owner_index addr 0;
        Sim.Lock.with_lock arena.lock clock (fun () -> Blarge.free arena.large clock ~addr)
    | _ -> invalid_arg "baseline free: unknown address");
    Pmem.Device.write_int64 dev dest 0L;
    flush t clocks.(tid) Pmem.Stats.Data ~addr:dest ~len:8
  in
  (* Baselines expose no heap introspection, but their device flush/fence
     timeline is still worth capturing under --telemetry. *)
  ignore
    (Telemetry.attach_if_capturing ~name:knobs.Knobs.name
       ~attach:(fun sink -> Pmem.Device.set_telemetry dev (Some sink))
      : Telemetry.t option);
  {
    Alloc_api.Instance.name = knobs.Knobs.name;
    threads;
    clocks;
    dev;
    malloc;
    free;
    root;
    root_count = root_slots;
    mapped_bytes = (fun () -> Pmem.Dax.mapped_bytes dax);
    peak_bytes = (fun () -> Pmem.Dax.peak_mapped_bytes dax);
    reset_peak = (fun () -> Pmem.Dax.reset_peak dax);
    metadata_bytes = None;
    supports_large = knobs.Knobs.supports_large;
    slab_histogram = None;
    shutdown = (fun () -> Pmem.Device.flush_all dev clocks.(0) Pmem.Stats.Meta);
    recover =
      (fun () ->
        Pmem.Device.crash dev;
        recovery_time t);
    snapshot = (fun _ts -> ());
    iter_live = None;
    integrity = None;
    maintenance = None;
  }
