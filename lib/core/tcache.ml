type entry = { slab : Slab.t; addr : int }

type t = {
  class_idx : int;
  capacity : int;
  sub : entry list array;
  mutable cursor : int;
  mutable count : int;
}

let create ~class_idx ~capacity ~nsub =
  assert (capacity > 0 && nsub > 0);
  { class_idx; capacity; sub = Array.make nsub []; cursor = 0; count = 0 }

let class_idx t = t.class_idx
let count t = t.count
let is_empty t = t.count = 0
let is_full t = t.count >= t.capacity

(* Sub-tcache of an entry: the cache line of its bitmap bit. An entry
   whose slab has since morphed to another class (the address no longer
   lies on the current block grid) has no bit; bucket 0 is fine — such
   entries are rare stragglers. *)
let home t e =
  if Slab.contains_new_block e.slab e.addr then
    Bitmap.line_of e.slab.Slab.bitmap (Slab.block_index e.slab e.addr) mod Array.length t.sub
  else 0

let push t e =
  if is_full t then false
  else begin
    let i = home t e in
    t.sub.(i) <- e :: t.sub.(i);
    t.count <- t.count + 1;
    true
  end

let pop t =
  assert (t.count > 0);
  let n = Array.length t.sub in
  (* Find the next non-empty sub-tcache from the cursor. *)
  let rec find i = match t.sub.(i) with [] -> find ((i + 1) mod n) | _ :: _ -> i in
  let i = find t.cursor in
  match t.sub.(i) with
  | [] -> assert false
  | e :: rest ->
      t.sub.(i) <- rest;
      t.count <- t.count - 1;
      t.cursor <- (i + 1) mod n;
      e

let drain t =
  let all = Array.fold_left (fun acc l -> List.rev_append l acc) [] t.sub in
  Array.fill t.sub 0 (Array.length t.sub) [];
  t.count <- 0;
  all
