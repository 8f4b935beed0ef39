let page_size = 4096
let mmap_ns = 1800
let munmap_ns = 1200

type region = { addr : int; size : int }

type t = {
  dev : Device.t;
  mutable free : region list; (* sorted by addr, coalesced *)
  mutable mapped : int;
  mutable peak : int;
}

let create ?(start = 0) dev =
  assert (start mod page_size = 0 && start < Device.size dev);
  { dev; free = [ { addr = start; size = Device.size dev - start } ]; mapped = 0; peak = 0 }

let device t = t.dev

let round_up size = (size + page_size - 1) / page_size * page_size

let mmap t clock ~size =
  let size = round_up (max size page_size) in
  Device.charge_work t.dev clock Stats.Other ~ns:mmap_ns;
  let rec take acc = function
    | [] -> raise Out_of_memory
    | r :: rest when r.size >= size ->
        let leftover =
          if r.size = size then [] else [ { addr = r.addr + size; size = r.size - size } ]
        in
        t.free <- List.rev_append acc (leftover @ rest);
        r.addr
    | r :: rest -> take (r :: acc) rest
  in
  let addr = take [] t.free in
  t.mapped <- t.mapped + size;
  if t.mapped > t.peak then t.peak <- t.mapped;
  addr

let reserve t ~addr ~size =
  let size = round_up size in
  let rec take acc = function
    | [] ->
        invalid_arg
          (Printf.sprintf "Pmem.Dax.reserve: [%d, +%d) is not a free range" addr size)
    | r :: rest when r.addr <= addr && addr + size <= r.addr + r.size ->
        let before = if addr > r.addr then [ { addr = r.addr; size = addr - r.addr } ] else [] in
        let stop = r.addr + r.size in
        let after = if addr + size < stop then [ { addr = addr + size; size = stop - addr - size } ] else [] in
        t.free <- List.rev_append acc (before @ after @ rest)
    | r :: rest -> take (r :: acc) rest
  in
  take [] t.free;
  t.mapped <- t.mapped + size;
  if t.mapped > t.peak then t.peak <- t.mapped

let munmap t clock ?(decommitted = 0) ~addr ~size () =
  let size = round_up size in
  if addr mod page_size <> 0 then
    invalid_arg (Printf.sprintf "Pmem.Dax.munmap: unaligned addr %d (page size %d)" addr page_size);
  Device.charge_work t.dev clock Stats.Other ~ns:munmap_ns;
  (* [decommitted] bytes of the range already left the mapped count at
     decommit time; subtracting them again would double-count. *)
  t.mapped <- t.mapped - (size - round_up decommitted);
  (* Insert in address order and coalesce with neighbours. *)
  let rec insert = function
    | [] -> [ { addr; size } ]
    | r :: rest ->
        if addr + size < r.addr then { addr; size } :: r :: rest
        else if addr + size = r.addr then { addr; size = size + r.size } :: rest
        else if r.addr + r.size = addr then
          match insert_merged { addr = r.addr; size = r.size + size } rest with
          | merged -> merged
        else begin
          assert (r.addr + r.size < addr);
          r :: insert rest
        end
  and insert_merged merged = function
    | r :: rest when merged.addr + merged.size = r.addr ->
        { merged with size = merged.size + r.size } :: rest
    | rest -> merged :: rest
  in
  t.free <- insert t.free

let fault_ns_per_page = 250

let decommit t clock ~addr ~size =
  ignore addr;
  let size = round_up size in
  Device.charge_work t.dev clock Stats.Other ~ns:munmap_ns;
  t.mapped <- t.mapped - size

let recommit t clock ~addr ~size =
  ignore addr;
  let size = round_up size in
  let pages = size / page_size in
  Device.charge_work t.dev clock Stats.Other ~ns:(pages * fault_ns_per_page);
  t.mapped <- t.mapped + size;
  if t.mapped > t.peak then t.peak <- t.mapped

let mapped_bytes t = t.mapped
let peak_mapped_bytes t = t.peak
let reset_peak t = t.peak <- t.mapped
