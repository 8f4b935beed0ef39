module Rbtree = Support.Rbtree

type mode = In_place | Logged of Booklog.t
type state = Activated | Reclaimed | Retained

type pagedesc = {
  base : int;
  total : int;
  page_data_off : int;
  dedicated : bool;
  mutable activated_count : int;
}

type veh = {
  mutable addr : int;
  mutable size : int;
  mutable state : state;
  mutable kind : Booklog.kind;
  mutable log_ref : int;
  mutable free_time : int;
  mutable page : pagedesc;
  mutable addr_node : Rbtree.node;
  mutable size_node : Rbtree.node;
  mutable time_node : Rbtree.node;
}

let region_bytes = 4 * 1024 * 1024
let header_bytes = 16384 (* in-place region header area *)
let huge_threshold = 2 * 1024 * 1024

type t = {
  heap : Heap.t;
  dev : Pmem.Device.t;
  mode : mode;
  region_lock : Sim.Lock.t;
  on_new_extent : veh -> unit;
  on_drop_extent : veh -> unit;
  addr_tree : veh Rbtree.t; (* (addr, 0) *)
  reclaimed_by_size : veh Rbtree.t; (* (size, addr) *)
  retained_by_size : veh Rbtree.t;
  reclaimed_by_time : veh Rbtree.t; (* (free_time, addr): oldest free first *)
  retained_by_time : veh Rbtree.t;
  pages : pagedesc Rbtree.t; (* (base, 0) *)
  empty_pages : int Queue.t; (* bases to consider for whole-page release *)
  mutable activated_bytes : int;
  mutable reclaimed_bytes : int;
  mutable retained_bytes : int;
  mutable reclaimed_peak : int;
  mutable last_decay : int;
  mutable tombs_since_fast_gc : int;
  mutable spare : veh array; (* dropped VEHs for reuse; [dummy] from [nspare] on *)
  mutable nspare : int;
  mutable telem : (Telemetry.t * int) option; (* sink, [extent:lookup] id *)
}

let round4k n = (n + 4095) land lnot 4095

let fresh_veh ~addr ~size ~kind ~page ~now =
  { addr; size; state = Reclaimed; kind; log_ref = -1; free_time = now; page;
    addr_node = Rbtree.none; size_node = Rbtree.none; time_node = Rbtree.none }

(* Fill the trees' free slots, and stand for "no extent"/"no page". *)
let dummy_page = { base = -1; total = 0; page_data_off = 0; dedicated = false; activated_count = 0 }
let dummy = fresh_veh ~addr:(-1) ~size:0 ~kind:Booklog.Extent ~page:dummy_page ~now:0

let create heap ~mode ~region_lock ~on_new_extent ~on_drop_extent =
  {
    heap;
    dev = Heap.device heap;
    mode;
    region_lock;
    on_new_extent;
    on_drop_extent;
    addr_tree = Rbtree.create ~dummy;
    reclaimed_by_size = Rbtree.create ~dummy;
    retained_by_size = Rbtree.create ~dummy;
    reclaimed_by_time = Rbtree.create ~dummy;
    retained_by_time = Rbtree.create ~dummy;
    pages = Rbtree.create ~dummy:dummy_page;
    empty_pages = Queue.create ();
    activated_bytes = 0;
    reclaimed_bytes = 0;
    retained_bytes = 0;
    reclaimed_peak = 0;
    last_decay = 0;
    tombs_since_fast_gc = 0;
    spare = [||];
    nspare = 0;
    telem = None;
  }

let set_telemetry t sink =
  t.telem <- Option.map (fun s -> (s, Telemetry.intern s "extent:lookup")) sink

let booklog t = match t.mode with In_place -> None | Logged l -> Some l
let activated_bytes t = t.activated_bytes
let reclaimed_bytes t = t.reclaimed_bytes
let retained_bytes t = t.retained_bytes
let data_off t = match t.mode with In_place -> header_bytes | Logged _ -> 0

(* --- VEH pool ----------------------------------------------------------- *)

(* A VEH the layer drops (merged into a neighbour, or its region unmapped)
   goes on [spare], and every new VEH comes off it, so extent churn
   allocates nothing once the stack has grown. A spare VEH is free and on
   no page; only the layer holds it (see the aliasing audit in the .mli). *)
let retire t v =
  if t.nspare = Array.length t.spare then begin
    let spare = Array.make (Int.max 8 (2 * t.nspare)) dummy in
    Array.blit t.spare 0 spare 0 t.nspare;
    t.spare <- spare
  end;
  v.state <- Reclaimed;
  v.page <- dummy_page;
  t.spare.(t.nspare) <- v;
  t.nspare <- t.nspare + 1

(* A reclaimed VEH in no tree, from the pool when it has one. *)
let new_veh t ~addr ~size ~kind ~page ~now =
  if t.nspare = 0 then fresh_veh ~addr ~size ~kind ~page ~now
  else begin
    let n = t.nspare - 1 in
    let v = t.spare.(n) in
    t.spare.(n) <- dummy;
    t.nspare <- n;
    v.addr <- addr;
    v.size <- size;
    v.kind <- kind;
    v.log_ref <- -1;
    v.free_time <- now;
    v.page <- page;
    v.addr_node <- Rbtree.none;
    v.size_node <- Rbtree.none;
    v.time_node <- Rbtree.none;
    v
  end

(* A tree probe that costs no simulated time (neighbour peeks inside an
   operation already charged) still counts toward the lookup telemetry. *)
let note_lookup t = Pmem.Stats.bump (Pmem.Device.stats t.dev) Extent_tree_lookups

(* Charge a DRAM tree search of [n] elements and count it. The search
   steps are an [extent:lookup] region, so tree-walk cost separates from
   the surrounding malloc/free. *)
let charge_search t clock n =
  note_lookup t;
  let steps = Rbtree.search_steps n in
  (match t.telem with
  | None -> ()
  | Some (s, name) -> Telemetry.enter s ~tid:(Sim.Clock.id clock) ~name ~ts:(Sim.Clock.ns clock));
  for _ = 1 to steps do
    Pmem.Device.search_step t.dev clock
  done;
  match t.telem with
  | None -> ()
  | Some (s, _) -> Telemetry.leave s ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.ns clock)

let page_of t base = Rbtree.value t.pages (Rbtree.find t.pages base 0)

let page_of_addr t addr =
  note_lookup t;
  let pd = Rbtree.value t.pages (Rbtree.find_last_leq t.pages addr 0) in
  if addr < pd.base + pd.total then Some pd else None

let iter_pages t f = Rbtree.iter (fun _ _ pd -> f pd) t.pages
let page_count t = Rbtree.cardinal t.pages

(* --- persistent bookkeeping -------------------------------------------- *)

(* In-place mode: one 8 B slot per possible extent start, in the region's
   header area. Persisted on activation (the activated bit + the size in
   pages) and on free (cleared); recovery reads only activated slots. *)
module Veh = struct
  let nslots = header_bytes / 8
  let l = Pstruct.layout "extent.veh_slots"
  let slots = Pstruct.array l "slots" ~off:0 ~stride:8 ~count:nslots Pstruct.U32
  let () = Pstruct.seal l ~size:header_bytes
  let activated = 1 lsl 24
end

let slot_index v =
  let off = v.addr - v.page.base - v.page.page_data_off in
  assert (off >= 0 && off mod 4096 = 0);
  off / 4096

let scan_region dev ~base ~total =
  let rec go off acc =
    if off >= total then List.rev acc
    else
      let slot = Pstruct.get_elt dev ~base Veh.slots ((off - header_bytes) / 4096) in
      if slot land Veh.activated = 0 then go (off + 4096) acc
      else
        let addr = base + off and size = (slot land (Veh.activated - 1)) * 4096 in
        let kind =
          if size = Slab.slab_bytes && Slab.is_slab_header dev addr then Booklog.Slab_extent
          else Booklog.Extent
        in
        go (off + size) ({ Booklog.ref_ = -1; kind; addr; size } :: acc)
  in
  go header_bytes []

let persist_activated t clock v =
  match t.mode with
  | Logged log ->
      v.log_ref <- Booklog.append_normal log clock v.kind ~addr:v.addr ~size:v.size
  | In_place ->
      let i = slot_index v in
      Pstruct.set_elt t.dev ~base:v.page.base Veh.slots i ((v.size / 4096) lor Veh.activated);
      Pstruct.commit t.dev clock Pmem.Stats.Meta (Pstruct.elt_span ~base:v.page.base Veh.slots i)

let run_booklog_gc t clock log =
  t.tombs_since_fast_gc <- t.tombs_since_fast_gc + 1;
  if t.tombs_since_fast_gc >= Booklog.entries_per_chunk then begin
    t.tombs_since_fast_gc <- 0;
    ignore (Booklog.fast_gc log clock)
  end;
  if
    Booklog.needs_slow_gc log
      ~threshold:(Heap.config t.heap).Config.booklog_slow_gc_threshold
  then begin
    (* Re-point every activated VEH in one walk of the address tree; a
       free VEH holds no entry ([log_ref] -1, never remapped). Each remap
       entry counts as one index lookup. *)
    let table = Hashtbl.create 64 in
    List.iter
      (fun (old_ref, new_ref) ->
        note_lookup t;
        Hashtbl.replace table old_ref new_ref)
      (Booklog.slow_gc log clock);
    Rbtree.iter
      (fun _ _ v ->
        match Hashtbl.find_opt table v.log_ref with
        | Some r -> v.log_ref <- r
        | None -> ())
      t.addr_tree
  end

let persist_freed t clock v =
  match t.mode with
  | Logged log ->
      assert (v.log_ref >= 0);
      Booklog.append_tombstone log clock v.log_ref;
      v.log_ref <- -1;
      if (Heap.config t.heap).Config.booklog_gc then run_booklog_gc t clock log
  | In_place ->
      let i = slot_index v in
      Pstruct.set_elt t.dev ~base:v.page.base Veh.slots i 0;
      Pstruct.commit t.dev clock Pmem.Stats.Meta (Pstruct.elt_span ~base:v.page.base Veh.slots i)

(* --- tree plumbing -------------------------------------------------------- *)

let page_data_size pd = pd.total - pd.page_data_off

(* The extent starting at [addr], or [dummy]. *)
let at t addr = Rbtree.value t.addr_tree (Rbtree.find t.addr_tree addr 0)

(* A non-dedicated page whose data area collapsed back into one reclaimed
   extent: nothing of it is live, the whole region can go back to the OS.
   Either free state qualifies: the decay loop may retain the extent in
   the same tick that queued its page. *)
let page_fully_free t pd =
  (not pd.dedicated) && pd.activated_count = 0
  && (note_lookup t;
      let v = at t (pd.base + pd.page_data_off) in
      v != dummy && v.state <> Activated && v.size = page_data_size pd)

(* Remove [v]'s node [n]; a stale handle (not holding [v]) fails loudly. *)
let drop tree v n =
  assert (Rbtree.value tree n == v);
  Rbtree.remove_node tree n

(* [unlink]/[link] move [v] out of/into its state's indexes and byte
   count; the address tree is [detach]/[attach]'s, so a caller that keeps
   [v]'s address skips it. *)
let unlink t v =
  match v.state with
  | Activated ->
      v.page.activated_count <- v.page.activated_count - 1;
      t.activated_bytes <- t.activated_bytes - v.size
  | Reclaimed ->
      drop t.reclaimed_by_size v v.size_node;
      drop t.reclaimed_by_time v v.time_node;
      t.reclaimed_bytes <- t.reclaimed_bytes - v.size
  | Retained ->
      drop t.retained_by_size v v.size_node;
      drop t.retained_by_time v v.time_node;
      t.retained_bytes <- t.retained_bytes - v.size

let link t v state =
  v.state <- state;
  match state with
  | Activated ->
      v.page.activated_count <- v.page.activated_count + 1;
      t.activated_bytes <- t.activated_bytes + v.size
  | Reclaimed ->
      v.size_node <- Rbtree.insert t.reclaimed_by_size v.size v.addr v;
      v.time_node <- Rbtree.insert t.reclaimed_by_time v.free_time v.addr v;
      t.reclaimed_bytes <- t.reclaimed_bytes + v.size;
      if t.reclaimed_bytes > t.reclaimed_peak then t.reclaimed_peak <- t.reclaimed_bytes;
      if page_fully_free t v.page then Queue.add v.page.base t.empty_pages
  | Retained ->
      v.size_node <- Rbtree.insert t.retained_by_size v.size v.addr v;
      v.time_node <- Rbtree.insert t.retained_by_time v.free_time v.addr v;
      t.retained_bytes <- t.retained_bytes + v.size;
      (* A page split between reclaimed and retained halves only becomes
         one spanning free extent after retention coalesces them: queue
         the hint here too so it does not wait out the full window. *)
      if page_fully_free t v.page then Queue.add v.page.base t.empty_pages

let detach t v =
  unlink t v;
  drop t.addr_tree v v.addr_node

let attach t v state =
  v.addr_node <- Rbtree.insert t.addr_tree v.addr 0 v;
  link t v state

(* Merge [u] into [v] if it is a free neighbour in state [state] on the
   same page ([dummy] never is). *)
let try_merge t v ~state u =
  if
    u != v && u.page == v.page && u.state = state
    && (u.addr + u.size = v.addr || v.addr + v.size = u.addr)
  then begin
    detach t u;
    v.addr <- Int.min v.addr u.addr;
    v.size <- v.size + u.size;
    v.free_time <- Int.min v.free_time u.free_time;
    retire t u;
    Pmem.Stats.bump (Pmem.Device.stats t.dev) Extents_coalesced
  end

(* Merge adjacent free neighbours in state [state] (within one page) into
   [v]; [v] must not be in any structure yet. Neighbours come from floor /
   exact probes of the address tree, O(log n) each. *)
let coalesce t v ~state =
  note_lookup t;
  try_merge t v ~state (Rbtree.value t.addr_tree (Rbtree.find_last_lt t.addr_tree v.addr 0));
  note_lookup t;
  try_merge t v ~state (at t (v.addr + v.size))

(* --- pages ---------------------------------------------------------------- *)

let map_region t clock ~total ~dedicated =
  Sim.Lock.with_lock t.region_lock clock (fun () ->
      let base = Pmem.Dax.mmap (Heap.dax t.heap) clock ~size:total in
      Heap.register_region t.heap clock ~addr:base ~size:total;
      let pd = { base; total; page_data_off = data_off t; dedicated; activated_count = 0 } in
      ignore (Rbtree.insert t.pages base 0 pd : Rbtree.node);
      pd)

let unmap_region ?(decommitted = 0) t clock pd =
  Sim.Lock.with_lock t.region_lock clock (fun () ->
      Heap.unregister_region t.heap clock ~addr:pd.base;
      Pmem.Dax.munmap (Heap.dax t.heap) clock ~decommitted ~addr:pd.base ~size:pd.total ();
      Rbtree.remove t.pages pd.base 0)

(* --- decay ---------------------------------------------------------------- *)

let release_retained t clock v =
  (* Only whole regions go back to the OS: partial unmaps would leave the
     persistent region table ambiguous for recovery. *)
  if v.size = page_data_size v.page then begin
    detach t v;
    (* Retained extents were decommitted on retention: only the header
       area still counts as mapped. *)
    unmap_region ~decommitted:v.size t clock v.page;
    retire t v
  end

(* Whole-page release: a page queued when its last live extent died is
   unmapped once the decay interval comes around, so churn-heavy phases
   give address space back instead of pinning one reclaimed extent per
   dead slab (the fragmentation Figure 15 measures). The queue entry is a
   hint — the page is re-checked here because an allocation may have
   carved the extent up again in the meantime. *)
let drain_empty_pages t clock =
  let rec go () =
    match Queue.take_opt t.empty_pages with
    | None -> ()
    | Some base ->
        let pd = page_of t base in
        if pd != dummy_page && page_fully_free t pd then begin
          let v = at t (pd.base + pd.page_data_off) in
          let decommitted = if v.state = Retained then v.size else 0 in
          detach t v;
          unmap_region ~decommitted t clock pd;
          retire t v
        end;
        go ()
  in
  go ()

let decay_tick t clock =
  let now = Sim.Clock.ns clock in
  let cfg = Heap.config t.heap in
  if now - t.last_decay >= cfg.Config.decay_interval_ns then begin
    t.last_decay <- now;
    let window = cfg.Config.decay_window_ns in
    (* Reclaimed -> retained, oldest free first, under the smootherstep
       cap; the time-keyed tree replaces the FIFO list. *)
    let continue_ = ref true in
    while !continue_ do
      let v = Rbtree.value t.reclaimed_by_time (Rbtree.min_node t.reclaimed_by_time) in
      if v == dummy then continue_ := false
      else
        let frac = float_of_int (now - v.free_time) /. float_of_int window in
        let cap = Support.Smootherstep.limit ~total:t.reclaimed_peak ~elapsed_fraction:frac in
        if t.reclaimed_bytes > cap && frac > 0.0 then begin
          detach t v;
          Pmem.Dax.decommit (Heap.dax t.heap) clock ~addr:v.addr ~size:v.size;
          coalesce t v ~state:Retained;
          attach t v Retained
        end
        else continue_ := false
    done;
    (* Retained -> OS after a full window: walk the time tree in order and
       stop at the first extent still inside the window. *)
    let victims = ref [] in
    let tree = t.retained_by_time in
    let rec collect ft addr =
      note_lookup t;
      let n = Rbtree.find_first_geq tree ft addr in
      if n <> Rbtree.none && now - Rbtree.key1 tree n >= window then begin
        victims := Rbtree.value tree n :: !victims;
        collect (Rbtree.key1 tree n) (Rbtree.key2 tree n + 1)
      end
    in
    collect min_int 0;
    List.iter (fun v -> release_retained t clock v) !victims;
    drain_empty_pages t clock
  end

(* --- allocation ------------------------------------------------------------ *)

(* Split [need] bytes off the front of free extent [v] (in the address
   tree only); the remainder (if any) is attached in [remainder_state].
   [v] keeps its address, hence its address-tree node. *)
let split_front t v ~need ~remainder_state =
  assert (v.size >= need);
  if v.size > need then begin
    let rest =
      new_veh t ~addr:(v.addr + need) ~size:(v.size - need) ~kind:Booklog.Extent ~page:v.page
        ~now:v.free_time
    in
    v.size <- need;
    attach t rest remainder_state
  end

(* [v] is in the address tree already. *)
let activate t clock v kind =
  v.kind <- kind;
  link t v Activated;
  persist_activated t clock v;
  t.on_new_extent v

(* The whole data area of a freshly mapped region, in the address tree. *)
let fresh_region_veh t clock page ~kind =
  let v =
    new_veh t ~addr:(page.base + page.page_data_off) ~size:(page_data_size page) ~kind ~page
      ~now:(Sim.Clock.ns clock)
  in
  v.addr_node <- Rbtree.insert t.addr_tree v.addr 0 v;
  v

let alloc_huge t clock ~size ~kind =
  let page = map_region t clock ~total:(round4k (size + data_off t)) ~dedicated:true in
  let v = fresh_region_veh t clock page ~kind in
  activate t clock v kind;
  v

(* The smallest free extent of [tree] that fits [need], unlinked from its
   state's indexes, or [dummy]. Best fit leaves the extent in the address
   tree: the split keeps its start address. *)
let take_best_fit t clock tree ~need =
  charge_search t clock (Rbtree.cardinal tree);
  let v = Rbtree.value tree (Rbtree.find_first_geq tree need 0) in
  if v != dummy then unlink t v;
  v

let malloc t clock ~size ~kind =
  decay_tick t clock;
  let need = round4k size in
  if need > huge_threshold then alloc_huge t clock ~size:need ~kind
  else
    let v = take_best_fit t clock t.reclaimed_by_size ~need in
    if v != dummy then begin
      split_front t v ~need ~remainder_state:Reclaimed;
      activate t clock v kind;
      v
    end
    else
      let v = take_best_fit t clock t.retained_by_size ~need in
      if v != dummy then begin
        split_front t v ~need ~remainder_state:Retained;
        Pmem.Dax.recommit (Heap.dax t.heap) clock ~addr:v.addr ~size:v.size;
        activate t clock v kind;
        v
      end
      else begin
        let page = map_region t clock ~total:region_bytes ~dedicated:false in
        let v = fresh_region_veh t clock page ~kind:Booklog.Extent in
        split_front t v ~need ~remainder_state:Reclaimed;
        activate t clock v kind;
        v
      end

let free t clock v =
  assert (v.state = Activated);
  charge_search t clock (Rbtree.cardinal t.addr_tree);
  detach t v;
  persist_freed t clock v;
  t.on_drop_extent v;
  if v.page.dedicated then begin
    (* Dedicated huge region: straight back to the OS. *)
    unmap_region t clock v.page;
    retire t v
  end
  else begin
    v.free_time <- Sim.Clock.ns clock;
    v.kind <- Booklog.Extent;
    coalesce t v ~state:Reclaimed;
    attach t v Reclaimed
  end;
  decay_tick t clock

(* --- recovery hooks --------------------------------------------------------- *)

let restore_region t ~base ~total =
  (* Recovery's fresh DAX manager sees the whole heap free: the region
     is mapped already, so it must never be handed out again. *)
  Pmem.Dax.reserve (Heap.dax t.heap) ~addr:base ~size:total;
  (* A region whose size differs from the default granularity was mapped
     for one huge object. *)
  let pd =
    { base; total; page_data_off = data_off t; dedicated = total <> region_bytes; activated_count = 0 }
  in
  ignore (Rbtree.insert t.pages base 0 pd : Rbtree.node)

let restore_extent t ~addr ~size ~kind ~state ~log_ref ~region =
  (* Region totals are re-derived from the persistent region table by the
     recovery driver before extents are restored. *)
  let page = page_of t region in
  assert (page != dummy_page);
  let v = new_veh t ~addr ~size ~kind ~page ~now:0 in
  v.log_ref <- log_ref;
  attach t v state;
  if state = Activated then t.on_new_extent v;
  v
