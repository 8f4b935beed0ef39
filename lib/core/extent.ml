module Int_rb = Support.Rbtree.Make (Int)

(* Monomorphic lexicographic compares: the same order as the polymorphic
   [compare], without a [caml_compare] call per node visit. *)
module Size_rb = Support.Rbtree.Make (struct
  type t = int * int (* size, addr *)

  let compare (s1, a1) (s2, a2) =
    let c = Int.compare s1 s2 in
    if c <> 0 then c else Int.compare a1 a2
end)

module Time_rb = Support.Rbtree.Make (struct
  type t = float * int (* free_time, addr *)

  let compare (t1, a1) (t2, a2) =
    let c = Float.compare t1 t2 in
    if c <> 0 then c else Int.compare a1 a2
end)

type mode = In_place | Logged of Booklog.t
type state = Activated | Reclaimed | Retained

type veh = {
  mutable addr : int;
  mutable size : int;
  mutable state : state;
  mutable kind : Booklog.kind;
  mutable log_ref : int;
  mutable free_time : float;
  region : int;
}

type pagedesc = {
  base : int;
  total : int;
  page_data_off : int;
  dedicated : bool;
  mutable activated_count : int;
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
  addr_tree : veh Int_rb.t;
  reclaimed_by_size : veh Size_rb.t;
  retained_by_size : veh Size_rb.t;
  reclaimed_by_time : veh Time_rb.t; (* oldest free first *)
  retained_by_time : veh Time_rb.t;
  pages : pagedesc Int_rb.t; (* keyed by region base *)
  ref_index : veh Int_rb.t; (* keyed by bookkeeping-log ref *)
  empty_pages : int Queue.t; (* bases to consider for whole-page release *)
  mutable activated_bytes : int;
  mutable reclaimed_bytes : int;
  mutable retained_bytes : int;
  mutable reclaimed_peak : int;
  mutable last_decay : float;
  mutable tombs_since_fast_gc : int;
}

let round4k n = (n + 4095) land lnot 4095

let create heap ~mode ~region_lock ~on_new_extent ~on_drop_extent =
  {
    heap;
    dev = Heap.device heap;
    mode;
    region_lock;
    on_new_extent;
    on_drop_extent;
    addr_tree = Int_rb.create ();
    reclaimed_by_size = Size_rb.create ();
    retained_by_size = Size_rb.create ();
    reclaimed_by_time = Time_rb.create ();
    retained_by_time = Time_rb.create ();
    pages = Int_rb.create ();
    ref_index = Int_rb.create ();
    empty_pages = Queue.create ();
    activated_bytes = 0;
    reclaimed_bytes = 0;
    retained_bytes = 0;
    reclaimed_peak = 0;
    last_decay = 0.0;
    tombs_since_fast_gc = 0;
  }

let booklog t = match t.mode with In_place -> None | Logged l -> Some l
let activated_bytes t = t.activated_bytes
let reclaimed_bytes t = t.reclaimed_bytes
let retained_bytes t = t.retained_bytes
let data_off t = match t.mode with In_place -> header_bytes | Logged _ -> 0

(* Charge a DRAM tree search of [n] elements and count it. With blame
   attribution on, the search steps land under an [extent:lookup] frame
   so tree-walk cost separates from the surrounding malloc/free. *)
let charge_search t clock n =
  Pmem.Device.note_extent_lookup t.dev;
  let steps = 1 + (if n <= 1 then 0 else int_of_float (Float.log2 (float_of_int n))) in
  let attr = Pmem.Device.attribution t.dev in
  (match attr with
  | None -> ()
  | Some a ->
      Telemetry.Attr.enter_named a ~tid:(Sim.Clock.id clock) ~name:"extent:lookup"
        ~ts:(Sim.Clock.now clock));
  for _ = 1 to steps do
    Pmem.Device.search_step t.dev clock
  done;
  match attr with
  | None -> ()
  | Some a -> Telemetry.Attr.leave a ~tid:(Sim.Clock.id clock) ~ts:(Sim.Clock.now clock)

(* A tree probe that costs no simulated time (neighbour peeks inside an
   operation already charged) still counts toward the lookup telemetry. *)
let note_lookup t = Pmem.Device.note_extent_lookup t.dev

let page_of t base = Int_rb.find_opt t.pages base

let page_of_addr t addr =
  note_lookup t;
  match Int_rb.find_last_leq t.pages addr with
  | Some (_, pd) when addr < pd.base + pd.total -> Some pd
  | Some _ | None -> None

let iter_pages t f = Int_rb.iter (fun _ pd -> f pd) t.pages
let page_count t = Int_rb.cardinal t.pages

(* --- persistent bookkeeping -------------------------------------------- *)

(* In-place mode: one 8 B slot per possible extent start, in the region's
   header area. Persisted on activation (state 1 + size) and on free
   (cleared); recovery reads only state-1 slots. *)
module Veh = struct
  let nslots = header_bytes / 8
  let l = Pstruct.layout "extent.veh_slots"
  let slots = Pstruct.array l "slots" ~off:0 ~stride:8 ~count:nslots Pstruct.U32
  let () = Pstruct.seal l ~size:header_bytes
end

let slot_index t v =
  let off = v.addr - v.region - data_off t in
  assert (off >= 0 && off mod 4096 = 0);
  off / 4096

let read_slot dev ~region i = Pstruct.get_elt dev ~base:region Veh.slots i

let persist_activated t clock v =
  match t.mode with
  | Logged log ->
      v.log_ref <- Booklog.append_normal log clock v.kind ~addr:v.addr ~size:v.size
  | In_place ->
      let i = slot_index t v in
      Pstruct.set_elt t.dev ~base:v.region Veh.slots i ((v.size / 4096) lor (1 lsl 24));
      Pstruct.commit t.dev clock Pmem.Stats.Meta (Pstruct.elt_span ~base:v.region Veh.slots i)

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
    let remap = Booklog.slow_gc log clock in
    List.iter
      (fun (old_ref, new_ref) ->
        note_lookup t;
        match Int_rb.find_opt t.ref_index old_ref with
        | Some v ->
            Int_rb.remove t.ref_index old_ref;
            v.log_ref <- new_ref;
            Int_rb.insert t.ref_index new_ref v
        | None -> ())
      remap
  end

let persist_freed t clock v =
  match t.mode with
  | Logged log ->
      assert (v.log_ref >= 0);
      Booklog.append_tombstone log clock v.log_ref;
      Int_rb.remove t.ref_index v.log_ref;
      v.log_ref <- -1;
      if (Heap.config t.heap).Config.booklog_gc then run_booklog_gc t clock log
  | In_place ->
      let i = slot_index t v in
      Pstruct.set_elt t.dev ~base:v.region Veh.slots i 0;
      Pstruct.commit t.dev clock Pmem.Stats.Meta (Pstruct.elt_span ~base:v.region Veh.slots i)

(* --- tree plumbing -------------------------------------------------------- *)

let page_data_size pd = pd.total - pd.page_data_off

(* A non-dedicated page whose data area collapsed back into one reclaimed
   extent: nothing of it is live, the whole region can go back to the OS. *)
let page_fully_free t pd =
  (not pd.dedicated) && pd.activated_count = 0
  && (note_lookup t;
      match Int_rb.find_opt t.addr_tree (pd.base + pd.page_data_off) with
      (* Either free state qualifies: the decay loop may retain the
         extent in the same tick that queued its page. *)
      | Some v -> v.state <> Activated && v.size = page_data_size pd
      | None -> false)

let detach t v =
  (match v.state with
  | Activated ->
      (match page_of t v.region with
      | Some pd -> pd.activated_count <- pd.activated_count - 1
      | None -> ());
      t.activated_bytes <- t.activated_bytes - v.size
  | Reclaimed ->
      Size_rb.remove t.reclaimed_by_size (v.size, v.addr);
      Time_rb.remove t.reclaimed_by_time (v.free_time, v.addr);
      t.reclaimed_bytes <- t.reclaimed_bytes - v.size
  | Retained ->
      Size_rb.remove t.retained_by_size (v.size, v.addr);
      Time_rb.remove t.retained_by_time (v.free_time, v.addr);
      t.retained_bytes <- t.retained_bytes - v.size);
  Int_rb.remove t.addr_tree v.addr

let attach t v state =
  v.state <- state;
  Int_rb.insert t.addr_tree v.addr v;
  match state with
  | Activated ->
      (match page_of t v.region with
      | Some pd -> pd.activated_count <- pd.activated_count + 1
      | None -> ());
      t.activated_bytes <- t.activated_bytes + v.size
  | Reclaimed ->
      Size_rb.insert t.reclaimed_by_size (v.size, v.addr) v;
      Time_rb.insert t.reclaimed_by_time (v.free_time, v.addr) v;
      t.reclaimed_bytes <- t.reclaimed_bytes + v.size;
      if t.reclaimed_bytes > t.reclaimed_peak then t.reclaimed_peak <- t.reclaimed_bytes;
      (match page_of t v.region with
      | Some pd -> if page_fully_free t pd then Queue.add pd.base t.empty_pages
      | None -> ())
  | Retained ->
      Size_rb.insert t.retained_by_size (v.size, v.addr) v;
      Time_rb.insert t.retained_by_time (v.free_time, v.addr) v;
      t.retained_bytes <- t.retained_bytes + v.size;
      (* A page split between reclaimed and retained halves only becomes
         one spanning free extent after retention coalesces them: queue
         the hint here too so it does not wait out the full window. *)
      (match page_of t v.region with
      | Some pd -> if page_fully_free t pd then Queue.add pd.base t.empty_pages
      | None -> ())

(* Merge adjacent free neighbours in state [state] (within one page) into
   [v]; [v] must not be in any structure yet. Neighbours come from floor /
   exact probes of the address tree, O(log n) each. *)
let coalesce t v ~state =
  let try_merge u =
    if u != v && u.region = v.region && u.state = state then begin
      if u.addr + u.size = v.addr then begin
        detach t u;
        v.addr <- u.addr;
        v.size <- v.size + u.size;
        v.free_time <- Float.min v.free_time u.free_time;
        Pmem.Device.note_extent_coalesced t.dev
      end
      else if v.addr + v.size = u.addr then begin
        detach t u;
        v.size <- v.size + u.size;
        v.free_time <- Float.min v.free_time u.free_time;
        Pmem.Device.note_extent_coalesced t.dev
      end
    end
  in
  note_lookup t;
  (match Int_rb.find_last_lt t.addr_tree v.addr with
  | Some (_, u) -> try_merge u
  | None -> ());
  note_lookup t;
  match Int_rb.find_opt t.addr_tree (v.addr + v.size) with
  | Some u -> try_merge u
  | None -> ()

(* --- pages ---------------------------------------------------------------- *)

let map_region t clock ~total ~dedicated =
  Sim.Lock.with_lock t.region_lock clock (fun () ->
      let base = Pmem.Dax.mmap (Heap.dax t.heap) clock ~size:total in
      Heap.register_region t.heap clock ~addr:base ~size:total;
      Int_rb.insert t.pages base
        { base; total; page_data_off = data_off t; dedicated; activated_count = 0 };
      base)

let unmap_region ?(decommitted = 0) t clock base =
  Sim.Lock.with_lock t.region_lock clock (fun () ->
      let pd = Option.get (page_of t base) in
      Heap.unregister_region t.heap clock ~addr:base;
      Pmem.Dax.munmap (Heap.dax t.heap) clock ~decommitted ~addr:base ~size:pd.total ();
      Int_rb.remove t.pages base)

let region_data_size t base = page_data_size (Option.get (page_of t base))

(* --- decay ---------------------------------------------------------------- *)

let release_retained t clock v =
  (* Only whole regions go back to the OS: partial unmaps would leave the
     persistent region table ambiguous for recovery. *)
  if v.size = region_data_size t v.region then begin
    detach t v;
    (* Retained extents were decommitted on retention: only the header
       area still counts as mapped. *)
    unmap_region ~decommitted:v.size t clock v.region
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
        (match page_of t base with
        | Some pd when page_fully_free t pd -> (
            match Int_rb.find_opt t.addr_tree (pd.base + pd.page_data_off) with
            | Some v ->
                let decommitted = if v.state = Retained then v.size else 0 in
                detach t v;
                unmap_region ~decommitted t clock base
            | None -> ())
        | Some _ | None -> ());
        go ()
  in
  go ()

let decay_tick t clock =
  let now = Sim.Clock.now clock in
  let cfg = Heap.config t.heap in
  if now -. t.last_decay >= cfg.Config.decay_interval_ns then begin
    t.last_decay <- now;
    let window = cfg.Config.decay_window_ns in
    (* Reclaimed -> retained, oldest free first, under the smootherstep
       cap; the time-keyed tree replaces the FIFO list. *)
    let continue_ = ref true in
    while !continue_ do
      match Time_rb.min_binding_opt t.reclaimed_by_time with
      | None -> continue_ := false
      | Some (_, v) ->
          let frac = (now -. v.free_time) /. window in
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
    let rec collect key =
      note_lookup t;
      match Time_rb.find_first_geq t.retained_by_time key with
      | Some ((ft, addr), v) when now -. ft >= window ->
          victims := v :: !victims;
          collect (ft, addr + 1)
      | Some _ | None -> ()
    in
    collect (Float.neg_infinity, 0);
    List.iter (fun v -> release_retained t clock v) !victims;
    drain_empty_pages t clock
  end

(* --- allocation ------------------------------------------------------------ *)

let fresh_veh ~addr ~size ~kind ~region ~now =
  { addr; size; state = Reclaimed; kind; log_ref = -1; free_time = now; region }

(* Split [need] bytes off the front of free extent [v] (not in any
   structure); the remainder (if any) is re-attached in [v]'s state. *)
let split_front t v ~need ~remainder_state =
  assert (v.size >= need);
  if v.size = need then None
  else begin
    let rest =
      fresh_veh ~addr:(v.addr + need) ~size:(v.size - need) ~kind:Booklog.Extent
        ~region:v.region ~now:v.free_time
    in
    v.size <- need;
    attach t rest remainder_state;
    Some rest
  end

let activate t clock v kind =
  v.kind <- kind;
  attach t v Activated;
  persist_activated t clock v;
  (match t.mode with Logged _ -> Int_rb.insert t.ref_index v.log_ref v | In_place -> ());
  t.on_new_extent v

let alloc_huge t clock ~size ~kind =
  let total = round4k (size + data_off t) in
  let base = map_region t clock ~total ~dedicated:true in
  let v =
    fresh_veh ~addr:(base + data_off t) ~size:(total - data_off t) ~kind ~region:base
      ~now:(Sim.Clock.now clock)
  in
  activate t clock v kind;
  v

let take_best_fit t clock tree ~need =
  charge_search t clock (Size_rb.cardinal tree);
  match Size_rb.find_first_geq tree (need, 0) with
  | None -> None
  | Some (_, v) ->
      detach t v;
      Some v

let malloc t clock ~size ~kind =
  decay_tick t clock;
  let need = round4k size in
  if need > huge_threshold then alloc_huge t clock ~size:need ~kind
  else
    match take_best_fit t clock t.reclaimed_by_size ~need with
    | Some v ->
        ignore (split_front t v ~need ~remainder_state:Reclaimed);
        activate t clock v kind;
        v
    | None -> (
        match take_best_fit t clock t.retained_by_size ~need with
        | Some v ->
            ignore (split_front t v ~need ~remainder_state:Retained);
            Pmem.Dax.recommit (Heap.dax t.heap) clock ~addr:v.addr ~size:v.size;
            activate t clock v kind;
            v
        | None ->
            let base = map_region t clock ~total:region_bytes ~dedicated:false in
            let v =
              fresh_veh ~addr:(base + data_off t) ~size:(region_bytes - data_off t)
                ~kind:Booklog.Extent ~region:base ~now:(Sim.Clock.now clock)
            in
            ignore (split_front t v ~need ~remainder_state:Reclaimed);
            activate t clock v kind;
            v)

let free t clock v =
  assert (v.state = Activated);
  charge_search t clock (Int_rb.cardinal t.addr_tree);
  detach t v;
  persist_freed t clock v;
  t.on_drop_extent v;
  let pd = Option.get (page_of t v.region) in
  if pd.dedicated then
    (* Dedicated huge region: straight back to the OS. *)
    unmap_region t clock v.region
  else begin
    v.free_time <- Sim.Clock.now clock;
    v.kind <- Booklog.Extent;
    coalesce t v ~state:Reclaimed;
    attach t v Reclaimed
  end;
  decay_tick t clock

(* --- recovery hooks --------------------------------------------------------- *)

let restore_region t ~base ~total =
  (* A region whose size differs from the default granularity was mapped
     for one huge object. *)
  Int_rb.insert t.pages base
    {
      base;
      total;
      page_data_off = data_off t;
      dedicated = total <> region_bytes;
      activated_count = 0;
    }

let restore_extent t ~addr ~size ~kind ~state ~log_ref ~region =
  (* Region totals are re-derived from the persistent region table by the
     recovery driver before extents are restored. *)
  assert (Int_rb.mem t.pages region);
  let v = fresh_veh ~addr ~size ~kind ~region ~now:0.0 in
  v.log_ref <- log_ref;
  attach t v state;
  if state = Activated then begin
    if log_ref >= 0 then Int_rb.insert t.ref_index log_ref v;
    t.on_new_extent v
  end;
  v
