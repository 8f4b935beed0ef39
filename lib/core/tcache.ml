(* Sub-tcache [i] is a stack, oldest first: addresses
   [addrs.(i).(0 .. top.(i) - 1)], owners at the same indexes of
   [slabs.(i)]. Both arrays double on demand up to [capacity]. *)
type t = {
  capacity : int;
  addrs : int array array;
  slabs : Slab.t array array;
  top : int array;
  mutable cursor : int;
  mutable count : int;
  mutable last : int; (* sub-tcache of the last pop *)
}

let create ~capacity ~nsub =
  assert (capacity > 0 && nsub > 0);
  { capacity; addrs = Array.make nsub [||]; slabs = Array.make nsub [||];
    top = Array.make nsub 0; cursor = 0; count = 0; last = 0 }

let count t = t.count
let is_empty t = t.count = 0
let is_full t = t.count >= t.capacity

(* Sub-tcache of a block: the cache line of its bitmap bit. A block whose
   slab has since morphed to another class (the address no longer lies on
   the current block grid) has no bit; bucket 0 is fine — such entries
   are rare stragglers. *)
let home t s addr =
  if Slab.contains_new_block s addr then
    Bitmap.line_of s.Slab.bitmap (Slab.block_index s addr) mod Array.length t.top
  else 0

let push t s addr =
  if is_full t then false
  else begin
    let i = home t s addr in
    let k = t.top.(i) in
    if k = Array.length t.addrs.(i) then begin
      let n = min t.capacity (max 8 (2 * k)) and addrs = t.addrs.(i) and slabs = t.slabs.(i) in
      t.addrs.(i) <- Array.init n (fun j -> if j < k then addrs.(j) else 0);
      t.slabs.(i) <- Array.init n (fun j -> if j < k then slabs.(j) else Slab.dummy)
    end;
    t.addrs.(i).(k) <- addr;
    t.slabs.(i).(k) <- s;
    t.top.(i) <- k + 1;
    t.count <- t.count + 1;
    true
  end

let pop t =
  assert (t.count > 0);
  let n = Array.length t.top in
  (* The next non-empty sub-tcache from the cursor. *)
  let i = ref t.cursor in
  while t.top.(!i) = 0 do
    i := (!i + 1) mod n
  done;
  let i = !i in
  t.top.(i) <- t.top.(i) - 1;
  t.count <- t.count - 1;
  t.cursor <- (i + 1) mod n;
  t.last <- i;
  t.addrs.(i).(t.top.(i))

(* The popped slot stays intact until the next push into its sub-tcache. *)
let last_slab t = t.slabs.(t.last).(t.top.(t.last))

let drain t f a b =
  for i = Array.length t.top - 1 downto 0 do
    let n = t.top.(i) in
    t.top.(i) <- 0;
    t.count <- t.count - n;
    for k = 0 to n - 1 do
      f a b t.slabs.(i).(k) t.addrs.(i).(k);
      t.slabs.(i).(k) <- Slab.dummy
    done
  done
