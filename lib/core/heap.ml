type state = Running | Shutdown | Recovering

let magic = 0x4E564131 (* "NVA1" *)
let region_slots = 4096
let superblock_bytes = 4096
let region_table_off = superblock_bytes
let region_table_bytes = region_slots * 8

(* Guard areas for the region table: a full mirror (the "extent records"
   replica) plus one u16 content checksum per region-table cache line,
   shared by primary and mirror. Space is always reserved (the layout
   must not depend on the config), maintenance is gated on
   [Config.media_replication]. *)
let region_lines = region_table_bytes / Pmem.Cacheline.size
let region_mirror_off = region_table_off + region_table_bytes
let region_ck_off = region_mirror_off + region_table_bytes
let region_ck_bytes = region_lines * 2
let root_table_off = (region_ck_off + region_ck_bytes + 4095) land lnot 4095

type t = {
  dev : Pmem.Device.t;
  dax : Pmem.Dax.t;
  config : Config.t;
  mutation : Mutation.t;
  replicate : bool;
  wal_off : int;
  wal_stride : int;
  booklog_off : int;
  booklog_stride : int;
  heap_start : int;
}

(* Superblock layout, at device address 0. Bytes 0..7 (magic, arenas,
   state, one pad byte) are guarded by the checksum at offset 8; the
   replica lives on the superblock page's second cache line. *)
module Sb = struct
  let l = Pstruct.layout "heap.superblock"
  let magic = Pstruct.u32 l "magic" ~off:0
  let arenas = Pstruct.u16 l "arenas" ~off:4
  let state = Pstruct.u8 l "state" ~off:6
  let cksum = Pstruct.u16 l "cksum" ~off:8
  let () = Pstruct.seal l ~size:superblock_bytes
end

let _ = Sb.cksum

let sb_guard =
  {
    Guard.primary = 0;
    len = 8;
    p_ck = 8;
    replica = Pmem.Cacheline.size;
    r_ck = Pmem.Cacheline.size + 8;
    cat = Pmem.Stats.Meta;
  }

let region_guard line =
  assert (line >= 0 && line < region_lines);
  {
    Guard.primary = region_table_off + (line * Pmem.Cacheline.size);
    len = Pmem.Cacheline.size;
    p_ck = region_ck_off + (line * 2);
    replica = region_mirror_off + (line * Pmem.Cacheline.size);
    r_ck = region_ck_off + (line * 2);
    cat = Pmem.Stats.Meta;
  }

(* Region table: [region_slots] packed slots right after the superblock. *)
module Rt = struct
  let l = Pstruct.layout "heap.region_table"
  let slots = Pstruct.array l "slots" ~off:0 ~count:region_slots Pstruct.I64
  let () = Pstruct.seal l ~size:region_table_bytes
end

let state_code = function Running -> 0 | Shutdown -> 1 | Recovering -> 2

let state_of_code = function
  | 0 -> Running
  | 1 -> Shutdown
  | 2 -> Recovering
  | _ -> invalid_arg "Heap.state_of_code"

let page_align n = (n + 4095) land lnot 4095

let layout dev (config : Config.t) =
  let wal_off = page_align (root_table_off + (config.root_slots * 8)) in
  let wal_stride = page_align (Wal.region_bytes ~entries:config.wal_entries) in
  let booklog_off = wal_off + (config.arenas * wal_stride) in
  let booklog_stride = page_align (Booklog.region_bytes ~chunks:config.booklog_chunks) in
  let heap_start = booklog_off + (config.arenas * booklog_stride) in
  assert (heap_start < Pmem.Device.size dev);
  (wal_off, wal_stride, booklog_off, booklog_stride, heap_start)

let init ?(mutation = Mutation.Off) dev config =
  let wal_off, wal_stride, booklog_off, booklog_stride, heap_start = layout dev config in
  let replicate = config.Config.media_replication in
  Pstruct.set dev ~base:0 Sb.magic magic;
  Pstruct.set dev ~base:0 Sb.arenas config.Config.arenas;
  Pstruct.set dev ~base:0 Sb.state (state_code Running);
  Guard.refresh dev sb_guard;
  Pmem.Device.fill dev region_table_off region_table_bytes '\000';
  if replicate then begin
    (* Birth the guard areas valid: mirror = primary = zeros, and every
       per-line checksum holds the zero-line sum, so scrub and recovery
       verify untouched lines uniformly (no "never written" special
       case). The superblock replica is synced by the first commit's
       caller ([Nvalloc.create] persists the whole init image). *)
    Pmem.Device.fill dev region_mirror_off region_table_bytes '\000';
    let zero_sum = Pmem.Device.sum16 dev ~addr:region_table_off ~len:Pmem.Cacheline.size in
    for line = 0 to region_lines - 1 do
      Pmem.Device.write_u16 dev (region_ck_off + (line * 2)) zero_sum
    done;
    Pmem.Device.blit dev ~src:sb_guard.Guard.primary ~dst:sb_guard.Guard.replica
      ~len:(sb_guard.Guard.len + 2)
  end;
  let dax = Pmem.Dax.create ~start:heap_start dev in
  { dev; dax; config; mutation; replicate; wal_off; wal_stride; booklog_off; booklog_stride;
    heap_start }

let open_existing ?(mutation = Mutation.Off) dev config =
  (* A failed magic check on a checksum-"valid" superblock is media
     corruption that slipped past the guard (e.g. a blessed line): name
     it, don't assert — the fuzzer's oracle reports this message. *)
  if Pstruct.get dev ~base:0 Sb.magic <> magic then
    failwith
      (Printf.sprintf "Heap.open_existing: bad superblock magic 0x%x (corrupt image)"
         (Pstruct.get dev ~base:0 Sb.magic));
  if Pstruct.get dev ~base:0 Sb.arenas <> config.Config.arenas then
    failwith
      (Printf.sprintf "Heap.open_existing: superblock records %d arenas, config has %d"
         (Pstruct.get dev ~base:0 Sb.arenas) config.Config.arenas);
  let found = state_of_code (Pstruct.get dev ~base:0 Sb.state) in
  let wal_off, wal_stride, booklog_off, booklog_stride, heap_start = layout dev config in
  let replicate = config.Config.media_replication in
  let dax = Pmem.Dax.create ~start:heap_start dev in
  let t =
    { dev; dax; config; mutation; replicate; wal_off; wal_stride; booklog_off; booklog_stride;
      heap_start }
  in
  (found, t)

let device t = t.dev
let dax t = t.dax
let config t = t.config
let mutation t = t.mutation

let set_state t clock s =
  Pstruct.set t.dev ~base:0 Sb.state (state_code s);
  (* The checksum shares the superblock's first line: refreshing it rides
     the state commit for free. *)
  Guard.refresh t.dev sb_guard;
  Pstruct.commit t.dev clock Pmem.Stats.Meta (Pstruct.span ~base:0 Sb.state);
  if t.replicate then Guard.write_replica t.dev clock sb_guard

let root_addr t i =
  assert (i >= 0 && i < t.config.Config.root_slots);
  root_table_off + (i * 8)

let root_slots t = t.config.Config.root_slots

let wal_base t ~arena =
  assert (arena >= 0 && arena < t.config.Config.arenas);
  t.wal_off + (arena * t.wal_stride)

let booklog_base t ~arena =
  assert (arena >= 0 && arena < t.config.Config.arenas);
  t.booklog_off + (arena * t.booklog_stride)

let heap_start t = t.heap_start

(* --- region table ------------------------------------------------------- *)

(* Slot: low 20 bits size in 4 KB units, high bits base in 4 KB units;
   0 = free slot. *)
let encode_region ~addr ~size =
  assert (addr mod 4096 = 0 && size mod 4096 = 0 && size > 0);
  Int64.logor (Int64.of_int (size / 4096)) (Int64.shift_left (Int64.of_int (addr / 4096)) 20)

let decode_region v =
  let size = Int64.to_int (Int64.logand v 0xFFFFFL) * 4096 in
  let addr = Int64.to_int (Int64.shift_right_logical v 20) * 4096 in
  (addr, size)

let read_slot dev i = Pstruct.get_elt dev ~base:region_table_off Rt.slots i

let write_slot t clock i v =
  Pstruct.set_elt t.dev ~base:region_table_off Rt.slots i v;
  (* Replica-first ordering: the new line content is staged into the
     mirror and checksum and persisted (deferred under batching — the
     commit below drains it first) strictly before the primary slot
     commits. A crash between the two leaves either (old, old) or a
     checksum that matches only the mirror, so the repair path rolls the
     slot write forward atomically — never a torn region record. *)
  if t.replicate then begin
    let r = region_guard (i * 8 / Pmem.Cacheline.size) in
    Guard.refresh t.dev r;
    Guard.write_replica t.dev clock r
  end;
  Pstruct.commit t.dev clock Pmem.Stats.Meta
    (Pstruct.elt_span ~base:region_table_off Rt.slots i)

let register_region t clock ~addr ~size =
  let rec find i =
    if i >= region_slots then failwith "Heap.register_region: region table full"
    else if read_slot t.dev i = 0L then i
    else find (i + 1)
  in
  write_slot t clock (find 0) (encode_region ~addr ~size)

let unregister_region t clock ~addr =
  let rec find i =
    if i >= region_slots then failwith "Heap.unregister_region: not found"
    else
      let v = read_slot t.dev i in
      if v <> 0L && fst (decode_region v) = addr then i else find (i + 1)
  in
  write_slot t clock (find 0) 0L

let read_regions dev =
  let acc = ref [] in
  for i = region_slots - 1 downto 0 do
    let v = read_slot dev i in
    if v <> 0L then acc := decode_region v :: !acc
  done;
  !acc

let regions t = read_regions t.dev

(* --- media verification ------------------------------------------------ *)

let verify_superblock dev clock = Guard.verify_repair dev clock sb_guard

let verify_regions dev clock =
  let repaired = ref 0 and lost = ref 0 in
  for line = 0 to region_lines - 1 do
    match Guard.verify_repair dev clock (region_guard line) with
    | Guard.Clean -> ()
    | Guard.Repaired -> incr repaired
    | Guard.Lost -> incr lost
  done;
  (!repaired, !lost)
