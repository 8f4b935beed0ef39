module Rbtree = Support.Rbtree

type ext = {
  mutable addr : int;
  mutable size : int;
  mutable used : bool;
  region : int;
}

(* Fills the trees' free slots, and stands for "no extent". *)
let dummy = { addr = -1; size = 0; used = false; region = -1 }

type t = {
  dax : Pmem.Dax.t;
  dev : Pmem.Device.t;
  region_lock : Sim.Lock.t;
  persist : bool;
  hoard : bool;
  extra_flush : bool;
  page_headers : bool;
  light : bool;
  wal_write : Sim.Clock.t -> unit;
  addr_tree : ext Rbtree.t; (* (addr, 0): every extent, used and free *)
  free_by_size : ext Rbtree.t; (* (size, addr) *)
  regions : (int, int) Hashtbl.t; (* base -> total *)
}

let region_bytes = 4 * 1024 * 1024
let header_bytes = 16384
let huge = 2 * 1024 * 1024
let round4k n = (n + 4095) land lnot 4095

let create ~dax ~region_lock ~persist ~hoard ~extra_flush ~page_headers ~light ~wal_write =
  {
    dax;
    dev = Pmem.Dax.device dax;
    region_lock;
    persist;
    hoard;
    extra_flush;
    page_headers;
    light;
    wal_write;
    addr_tree = Rbtree.create ~dummy;
    free_by_size = Rbtree.create ~dummy;
    regions = Hashtbl.create 16;
  }

let charge_search t clock n =
  let steps = Rbtree.search_steps n in
  Pmem.Device.charge_work t.dev clock Pmem.Stats.Search ~ns:(steps * 25)

(* In-place header slot update: the random small metadata write of
   section 3.3. The allocators persist the state of free extents too (their
   free lists must survive a restart), and bump a per-region summary
   counter whose line is reflushed whenever consecutive operations land in
   the same region. *)
let write_slot ?(log = true) t clock e =
  if t.persist then begin
    let slot = e.region + ((e.addr - e.region - header_bytes) / 4096 * 8) in
    Pmem.Device.write_u32 t.dev slot ((e.size / 4096) lor if e.used then 1 lsl 24 else 0);
    Pmem.Device.flush t.dev clock Pmem.Stats.Meta ~addr:slot ~len:4;
    if log then t.wal_write clock
  end

let bump_region_counter t clock region =
  if t.persist && not t.light then begin
    let counter = region + 8 in
    Pmem.Device.write_u32 t.dev counter (Pmem.Device.read_u32 t.dev counter + 1);
    Pmem.Device.flush t.dev clock Pmem.Stats.Meta ~addr:counter ~len:4;
    if t.extra_flush then begin
      (* A second bookkeeping structure in the same header line: an
         immediate reflush (Makalu's per-op header maintenance). *)
      Pmem.Device.write_u32 t.dev (counter + 4) (Pmem.Device.read_u32 t.dev (counter + 4) + 1);
      Pmem.Device.flush t.dev clock Pmem.Stats.Meta ~addr:(counter + 4) ~len:4
    end
  end

let insert_addr t e = ignore (Rbtree.insert t.addr_tree e.addr 0 e : Rbtree.node)

let attach_free t e =
  insert_addr t e;
  ignore (Rbtree.insert t.free_by_size e.size e.addr e : Rbtree.node)

let detach_free t e =
  Rbtree.remove t.addr_tree e.addr 0;
  Rbtree.remove t.free_by_size e.size e.addr

(* The extent starting at [addr], or [dummy]. *)
let at t addr = Rbtree.value t.addr_tree (Rbtree.find t.addr_tree addr 0)

let map_region t clock ~total =
  Sim.Lock.with_lock t.region_lock clock (fun () ->
      let base = Pmem.Dax.mmap t.dax clock ~size:total in
      Hashtbl.replace t.regions base total;
      base)

let unmap_region t clock base =
  Sim.Lock.with_lock t.region_lock clock (fun () ->
      let total = Hashtbl.find t.regions base in
      Pmem.Dax.munmap t.dax clock ~addr:base ~size:total ();
      Hashtbl.remove t.regions base)

(* Makalu/BDW writes a GC block header at the start of every heap block
   (8 KB granularity here) of a large object — scattered small writes that
   make its large path the slowest of the set (Figure 12). *)
let write_page_headers t clock e =
  if t.persist && t.page_headers then begin
    let stride = 8192 in
    let p = ref e.addr in
    while !p < e.addr + e.size do
      Pmem.Device.write_int64 t.dev !p (Int64.of_int e.size);
      Pmem.Device.flush t.dev clock Pmem.Stats.Meta ~addr:!p ~len:8;
      p := !p + stride
    done
  end

let alloc_huge t clock ~size =
  let total = round4k (size + header_bytes) in
  let base = map_region t clock ~total in
  let e = { addr = base + header_bytes; size = total - header_bytes; used = true; region = base } in
  insert_addr t e;
  write_slot t clock e;
  bump_region_counter t clock e.region;
  write_page_headers t clock e;
  e.addr

let malloc t clock ~size =
  let need = round4k size in
  if need > huge then alloc_huge t clock ~size:need
  else begin
    charge_search t clock (Rbtree.cardinal t.free_by_size);
    let e = Rbtree.value t.free_by_size (Rbtree.find_first_geq t.free_by_size need 0) in
    let e =
      if e != dummy then begin
        detach_free t e;
        e
      end
      else
        let base = map_region t clock ~total:region_bytes in
        { addr = base + header_bytes; size = region_bytes - header_bytes; used = false;
          region = base }
    in
    if e.size > need then begin
      let rest = { addr = e.addr + need; size = e.size - need; used = false; region = e.region } in
      e.size <- need;
      attach_free t rest;
      write_slot ~log:false t clock rest
    end;
    e.used <- true;
    insert_addr t e;
    write_slot t clock e;
    bump_region_counter t clock e.region;
    (* Slabs are engine-internal 64 KB extents: no GC page headers. *)
    if e.size <> 65536 then write_page_headers t clock e;
    e.addr
  end

let free t clock ~addr =
  charge_search t clock (Rbtree.cardinal t.addr_tree);
  let e = at t addr in
  if not e.used then invalid_arg "Blarge.free: not an allocated extent";
  let total = Hashtbl.find t.regions e.region in
  e.used <- false;
  write_slot t clock e;
  bump_region_counter t clock e.region;
  if total > region_bytes && not t.hoard then begin
    (* Dedicated huge region: give it straight back (Makalu hoards it,
       hence its space curve in Figure 13(b)). *)
    Rbtree.remove t.addr_tree e.addr 0;
    unmap_region t clock e.region
  end
  else begin
    Rbtree.remove t.addr_tree e.addr 0;
    (* Coalesce with free neighbours of the same region, persisting the
       merged extent's slot. *)
    let merged = ref false in
    let u = Rbtree.value t.addr_tree (Rbtree.find_last_lt t.addr_tree e.addr 0) in
    if (not u.used) && u.region = e.region && u.addr + u.size = e.addr then begin
      detach_free t u;
      e.addr <- u.addr;
      e.size <- e.size + u.size;
      merged := true
    end;
    let u = at t (e.addr + e.size) in
    if (not u.used) && u.region = e.region then begin
      detach_free t u;
      e.size <- e.size + u.size;
      merged := true
    end;
    if !merged then write_slot ~log:false t clock e;
    if (not t.hoard) && total <= region_bytes && e.size = region_bytes - header_bytes then
      unmap_region t clock e.region
    else attach_free t e
  end

let live_extents t =
  Rbtree.fold (fun _ _ e acc -> if e.used then (e.addr, e.size) :: acc else acc) t.addr_tree []

let region_count t = Hashtbl.length t.regions
