let fanout = 64

(* Persistent leaf layout (offsets from the leaf block base):
   0    fingerprints (64 * 1 B)
   64   validity bitmap (8 B)
   72   next-leaf pointer (8 B)
   80   keys (64 * 8 B)
   592  value slots = pointers to 128 B KV objects (64 * 8 B)
   1104 = leaf block size *)
let leaf_bytes = 1104
let off_fp i = i
let off_bitmap = 64
let off_next = 72
let off_key i = 80 + (8 * i)
let off_val i = 592 + (8 * i)
let kv_bytes = 128

type leaf = {
  addr : int;
  slot_id : int; (* root-table anchor *)
  lock : Sim.Lock.t;
  keys : int array; (* volatile mirror *)
  occ : bool array;
  mutable count : int;
}

type node = Inner of inner | Leaf_n of leaf

and inner = {
  mutable keys : int array; (* n-1 separators, ascending *)
  mutable children : node array; (* n children *)
  mutable n : int;
}

type t = {
  inst : Alloc_api.Instance.t;
  mutable root : node;
  all_leaves : (int, leaf) Hashtbl.t; (* slot_id -> leaf *)
  mutable cardinal : int;
  mutable next_slot : int;
  max_leaves : int;
  free_slots : int Stack.t;
}

let fingerprint key = key * 0x9E3779B9 land 0xFF
let dev t = t.inst.Alloc_api.Instance.dev

let flush_data t clock ~addr ~len =
  Pmem.Device.flush (dev t) clock Pmem.Stats.Data ~addr ~len

let clock_of t ~tid = t.inst.Alloc_api.Instance.clocks.(tid)

let charge_search t ~tid steps =
  Pmem.Device.charge_work (dev t) (clock_of t ~tid) Pmem.Stats.Search ~ns:(steps * 25)

let new_leaf t ~tid =
  let slot_id =
    if Stack.is_empty t.free_slots then begin
      let s = t.next_slot in
      if s >= t.max_leaves then failwith "Fptree: out of leaf anchors";
      t.next_slot <- s + 1;
      s
    end
    else Stack.pop t.free_slots
  in
  let dest = t.inst.Alloc_api.Instance.root slot_id in
  let addr = t.inst.Alloc_api.Instance.malloc ~tid ~size:leaf_bytes ~dest in
  let l =
    {
      addr;
      slot_id;
      lock = Sim.Lock.create ();
      keys = Array.make fanout 0;
      occ = Array.make fanout false;
      count = 0;
    }
  in
  Hashtbl.replace t.all_leaves slot_id l;
  l

let create inst ~max_leaves =
  let t =
    {
      inst;
      root = Leaf_n { addr = 0; slot_id = -1; lock = Sim.Lock.create ();
                      keys = [||]; occ = [||]; count = 0 };
      all_leaves = Hashtbl.create 64;
      cardinal = 0;
      next_slot = 0;
      max_leaves;
      free_slots = Stack.create ();
    }
  in
  t.root <- Leaf_n (new_leaf t ~tid:0);
  t

let leaf_count t = Hashtbl.length t.all_leaves
let cardinal t = t.cardinal

(* --- persistent leaf mutations -------------------------------------------- *)

let write_bitmap t clock (l : leaf) =
  let bits = ref 0L in
  for i = 0 to fanout - 1 do
    if l.occ.(i) then bits := Int64.logor !bits (Int64.shift_left 1L i)
  done;
  Pmem.Device.write_int64 (dev t) (l.addr + off_bitmap) !bits;
  flush_data t clock ~addr:(l.addr + off_bitmap) ~len:8

let persist_entry t clock (l : leaf) j key =
  Pmem.Device.write_int64 (dev t) (l.addr + off_key j) (Int64.of_int key);
  Pmem.Device.write_u8 (dev t) (l.addr + off_fp j) (fingerprint key);
  flush_data t clock ~addr:(l.addr + off_key j) ~len:8;
  flush_data t clock ~addr:(l.addr + off_fp j) ~len:1

(* Insert [key] into leaf [l], which must have room; allocates the 128 B
   payload with the leaf's value slot as destination (FPTree's values are
   pointers to out-of-line KV pairs). *)
let leaf_put t ~tid (l : leaf) key =
  let clock = clock_of t ~tid in
  let rec free_j j = if l.occ.(j) then free_j (j + 1) else j in
  let j = free_j 0 in
  let kv = t.inst.Alloc_api.Instance.malloc ~tid ~size:kv_bytes ~dest:(l.addr + off_val j) in
  Pmem.Device.write_int64 (dev t) kv (Int64.of_int key);
  flush_data t clock ~addr:kv ~len:16;
  persist_entry t clock l j key;
  l.occ.(j) <- true;
  l.keys.(j) <- key;
  l.count <- l.count + 1;
  write_bitmap t clock l

let leaf_find (l : leaf) key =
  let rec go j =
    if j >= fanout then None else if l.occ.(j) && l.keys.(j) = key then Some j else go (j + 1)
  in
  go 0

let leaf_remove t ~tid (l : leaf) j =
  let clock = clock_of t ~tid in
  l.occ.(j) <- false;
  l.count <- l.count - 1;
  write_bitmap t clock l;
  t.inst.Alloc_api.Instance.free ~tid ~dest:(l.addr + off_val j)

(* Split: move the upper half of the keys to a fresh right leaf. Moving an
   entry re-anchors the payload pointer in the new leaf's value slot. *)
let leaf_split t ~tid (l : leaf) =
  let clock = clock_of t ~tid in
  let right = new_leaf t ~tid in
  let keys = Array.of_list (List.filter (fun k -> k > 0) (Array.to_list (Array.mapi (fun j k -> if l.occ.(j) then k else 0) l.keys))) in
  Array.sort compare keys;
  let sep = keys.(Array.length keys / 2) in
  for j = 0 to fanout - 1 do
    if l.occ.(j) && l.keys.(j) >= sep then begin
      let key = l.keys.(j) in
      (* Move the payload pointer: write it into the right leaf's slot,
         clear the old slot. *)
      let rec free_j j' = if right.occ.(j') then free_j (j' + 1) else j' in
      let j' = free_j 0 in
      let kv = Pmem.Device.read_int64 (dev t) (l.addr + off_val j) in
      Pmem.Device.write_int64 (dev t) (right.addr + off_val j') kv;
      flush_data t clock ~addr:(right.addr + off_val j') ~len:8;
      persist_entry t clock right j' key;
      right.occ.(j') <- true;
      right.keys.(j') <- key;
      right.count <- right.count + 1;
      Pmem.Device.write_int64 (dev t) (l.addr + off_val j) 0L;
      l.occ.(j) <- false;
      l.count <- l.count - 1
    end
  done;
  (* Link the new leaf and commit both bitmaps. *)
  let old_next = Pmem.Device.read_int64 (dev t) (l.addr + off_next) in
  Pmem.Device.write_int64 (dev t) (right.addr + off_next) old_next;
  Pmem.Device.write_int64 (dev t) (l.addr + off_next) (Int64.of_int right.addr);
  flush_data t clock ~addr:(right.addr + off_next) ~len:8;
  flush_data t clock ~addr:(l.addr + off_next) ~len:8;
  write_bitmap t clock right;
  write_bitmap t clock l;
  (sep, right)

(* --- tree structure --------------------------------------------------------- *)

let child_index (inner : inner) key =
  let rec go i = if i >= inner.n - 1 then inner.n - 1 else if key < inner.keys.(i) then i else go (i + 1) in
  go 0

let insert_child (inner : inner) at sep right =
  let keys = Array.make inner.n 0 in
  Array.blit inner.keys 0 keys 0 at;
  keys.(at) <- sep;
  Array.blit inner.keys at keys (at + 1) (inner.n - 1 - at);
  let children = Array.make (inner.n + 1) right in
  Array.blit inner.children 0 children 0 (at + 1);
  children.(at + 1) <- right;
  Array.blit inner.children (at + 1) children (at + 2) (inner.n - at - 1);
  inner.keys <- keys;
  inner.children <- children;
  inner.n <- inner.n + 1

let split_inner (inner : inner) =
  let mid = inner.n / 2 in
  let sep = inner.keys.(mid - 1) in
  let right =
    {
      keys = Array.sub inner.keys mid (inner.n - 1 - mid);
      children = Array.sub inner.children mid (inner.n - mid);
      n = inner.n - mid;
    }
  in
  inner.keys <- Array.sub inner.keys 0 (mid - 1);
  inner.children <- Array.sub inner.children 0 mid;
  inner.n <- mid;
  (sep, right)

let rec find_leaf t ~tid node key =
  match node with
  | Leaf_n l -> l
  | Inner inner ->
      charge_search t ~tid 1;
      find_leaf t ~tid inner.children.(child_index inner key) key

let rec ins t ~tid node key =
  match node with
  | Leaf_n l ->
      Sim.Lock.with_lock l.lock (clock_of t ~tid) (fun () ->
          charge_search t ~tid 1;
          match leaf_find l key with
          | Some j ->
              (* Overwrite: replace the payload object. *)
              t.inst.Alloc_api.Instance.free ~tid ~dest:(l.addr + off_val j);
              let kv =
                t.inst.Alloc_api.Instance.malloc ~tid ~size:kv_bytes
                  ~dest:(l.addr + off_val j)
              in
              Pmem.Device.write_int64 (dev t) kv (Int64.of_int key);
              flush_data t (clock_of t ~tid) ~addr:kv ~len:16;
              None
          | None ->
              t.cardinal <- t.cardinal + 1;
              if l.count < fanout then begin
                leaf_put t ~tid l key;
                None
              end
              else begin
                let sep, right = leaf_split t ~tid l in
                if key >= sep then leaf_put t ~tid right key else leaf_put t ~tid l key;
                Some (sep, Leaf_n right)
              end)
  | Inner inner -> (
      charge_search t ~tid 1;
      let i = child_index inner key in
      match ins t ~tid inner.children.(i) key with
      | None -> None
      | Some (sep, right) ->
          insert_child inner i sep right;
          if inner.n > fanout then
            let sep', right' = split_inner inner in
            Some (sep', Inner right')
          else None)

let insert t ~tid ~key =
  assert (key > 0);
  match ins t ~tid t.root key with
  | None -> ()
  | Some (sep, right) ->
      t.root <- Inner { keys = [| sep |]; children = [| t.root; right |]; n = 2 }

let delete t ~tid ~key =
  let l = find_leaf t ~tid t.root key in
  Sim.Lock.with_lock l.lock (clock_of t ~tid) (fun () ->
      charge_search t ~tid 1;
      match leaf_find l key with
      | None -> false
      | Some j ->
          leaf_remove t ~tid l j;
          t.cardinal <- t.cardinal - 1;
          true)

let mem t ~tid ~key =
  let l = find_leaf t ~tid t.root key in
  charge_search t ~tid 1;
  leaf_find l key <> None

(* --- consistency check -------------------------------------------------------- *)

let check_consistent t =
  let dev = dev t in
  let error = ref None in
  Hashtbl.iter
    (fun _ (l : leaf) ->
      if !error = None then begin
        let bits = Pmem.Device.read_int64 dev (l.addr + off_bitmap) in
        for j = 0 to fanout - 1 do
          let pbit = Int64.logand (Int64.shift_right_logical bits j) 1L = 1L in
          if pbit <> l.occ.(j) then
            error := Some (Printf.sprintf "leaf %d slot %d: bitmap mismatch" l.addr j)
          else if l.occ.(j) then begin
            let pkey = Int64.to_int (Pmem.Device.read_int64 dev (l.addr + off_key j)) in
            let fp = Pmem.Device.read_u8 dev (l.addr + off_fp j) in
            let pv = Int64.to_int (Pmem.Device.read_int64 dev (l.addr + off_val j)) in
            if pkey <> l.keys.(j) then
              error := Some (Printf.sprintf "leaf %d slot %d: key mismatch" l.addr j)
            else if fp <> fingerprint pkey then
              error := Some (Printf.sprintf "leaf %d slot %d: fingerprint mismatch" l.addr j)
            else if pv <= 0 then
              error := Some (Printf.sprintf "leaf %d slot %d: null payload" l.addr j)
            else begin
              let stored = Int64.to_int (Pmem.Device.read_int64 dev pv) in
              if stored <> pkey then
                error := Some (Printf.sprintf "leaf %d slot %d: payload mismatch" l.addr j)
            end
          end
        done
      end)
    t.all_leaves;
  match !error with None -> Ok () | Some e -> Error e
