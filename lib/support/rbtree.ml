(* Bit width of [0 < n < 2^53]: such an int converts to a float exactly,
   so the float's biased exponent is [1022 + width]. Above 2^53 the top
   bits decide it, since the conversion could round up. *)
let width n = (Int64.to_int (Int64.bits_of_float (float_of_int n)) lsr 52) - 1022

let search_steps n =
  if n <= 1 then 1 else if n < 1 lsl 53 then width n else 53 + width (n lsr 53)

type node = int

let none = -1
let black = 0 and red = 1 and freed = 2 (* colours; [freed] marks free-list slots *)

(* Node [n]'s fields live at [6n .. 6n+5] of one int array: key1, key2,
   left, right, parent, colour. *)
type 'a t = {
  mutable nodes : int array;
  mutable values : 'a array;
  dummy : 'a;
  mutable root : node;
  mutable size : int;
  mutable free : node; (* freed slots, linked through [left] *)
  mutable used : int; (* slots handed out so far: [0, used) *)
}

let create ~dummy =
  { nodes = [||]; values = [||]; dummy; root = none; size = 0; free = none; used = 0 }

let cardinal t = t.size
let[@inline] get t n f = t.nodes.((n * 6) + f)
let[@inline] set t n f v = t.nodes.((n * 6) + f) <- v
let value t n = if n = none then t.dummy else t.values.(n)
let[@inline] key1 t n = get t n 0
let[@inline] key2 t n = get t n 1

(* [none] is black; setters on it do nothing. A direction [l] is true for
   left: [child t l n] is [n]'s left child, [child t (not l) n] its right
   one, so each fix-up case is written once for both mirrors. *)
let[@inline] child t l n = get t n (if l then 2 else 3)
let[@inline] set_child t l n c = set t n (if l then 2 else 3) c
let[@inline] left t n = get t n 2
let[@inline] right t n = get t n 3
let[@inline] parent t n = get t n 4
let[@inline] color t n = get t n 5
let[@inline] set_color t n c = set t n 5 c
let[@inline] is_red t n = n <> none && color t n = red
let set_black t n = if n <> none then set_color t n black
let set_parent t n p = if n <> none then set t n 4 p

(* Sign of [(k1, k2)] against node [n]'s key. *)
let[@inline] compare_key t k1 k2 n =
  let a = key1 t n in
  if k1 <> a then if k1 < a then -1 else 1
  else
    let b = key2 t n in
    if k2 < b then -1 else if k2 > b then 1 else 0

(* Put [v] where [u] hangs: under [u]'s parent, or at the root. *)
let replace_child t u v =
  let p = parent t u in
  if p = none then t.root <- v else set_child t (left t p = u) p v;
  set_parent t v p

(* Rotate [x] down towards [l]: its child on the other side takes its
   place. *)
let rotate t l x =
  let y = child t (not l) x in
  assert (y <> none);
  let inner = child t l y in
  set_child t (not l) x inner;
  set_parent t inner x;
  replace_child t x y;
  set_child t l y x;
  set t x 4 y

(* --- slots ------------------------------------------------------------- *)

let grow t =
  let cap = Int.max 8 (2 * Array.length t.values) in
  let nodes = Array.make (cap * 6) 0 and values = Array.make cap t.dummy in
  Array.blit t.nodes 0 nodes 0 (Array.length t.nodes);
  Array.blit t.values 0 values 0 t.used;
  t.nodes <- nodes;
  t.values <- values

(* A slot from the free list (linked through [left]), else a fresh one. *)
let new_node t k1 k2 v p c =
  let n = if t.free <> none then t.free else t.used in
  if n = t.free then t.free <- left t n
  else (if n = Array.length t.values then grow t; t.used <- n + 1);
  set t n 0 k1; set t n 1 k2; set t n 2 none; set t n 3 none; set t n 4 p; set t n 5 c;
  t.values.(n) <- v;
  n

let free_node t n =
  t.values.(n) <- t.dummy;
  set_color t n freed;
  set t n 2 t.free;
  t.free <- n

(* --- insertion (CLRS RB-INSERT-FIXUP) ---------------------------------- *)

(* [z] is red; restore "no red node has a red child" above it. *)
let rec insert_fixup t z =
  let p = parent t z in
  if is_red t p then begin
    let g = parent t p in
    if g <> none then begin
      let l = p = left t g in
      let uncle = child t (not l) g in
      if is_red t uncle then begin
        set_color t p black;
        set_color t uncle black;
        set_color t g red;
        insert_fixup t g
      end
      else begin
        let m = if z = child t (not l) p then (rotate t l p; z) else p in
        set_color t m black;
        set_color t g red;
        rotate t (not l) g
      end
    end
  end

let rec insert_below t k1 k2 v n =
  let c = compare_key t k1 k2 n in
  if c = 0 then (t.values.(n) <- v; n)
  else
    let l = c < 0 in
    let ch = child t l n in
    if ch <> none then insert_below t k1 k2 v ch
    else begin
      let z = new_node t k1 k2 v n red in
      set_child t l n z;
      t.size <- t.size + 1;
      insert_fixup t z;
      set_black t t.root;
      z
    end

let insert t k1 k2 v =
  if t.root <> none then insert_below t k1 k2 v t.root
  else (t.root <- new_node t k1 k2 v none black; t.size <- 1; t.root)

(* --- deletion (CLRS RB-DELETE) ----------------------------------------- *)

let rec min_from t n = if left t n = none then n else min_from t (left t n)
let rec max_from t n = if right t n = none then n else max_from t (right t n)

(* [x] (possibly [none], hence the explicit parent [xp]) carries an extra
   black; push it up or absorb it with rotations. *)
let rec remove_fixup t x xp =
  if is_red t x || x = t.root then set_black t x
  else if xp <> none then begin
    let l = x = left t xp in
    if is_red t (child t (not l) xp) then begin
      set_black t (child t (not l) xp);
      set_color t xp red;
      rotate t l xp
    end;
    let w = child t (not l) xp in
    assert (w <> none);
    if (not (is_red t (left t w))) && not (is_red t (right t w)) then begin
      set_color t w red;
      remove_fixup t xp (parent t xp)
    end
    else begin
      if not (is_red t (child t (not l) w)) then begin
        set_black t (child t l w);
        set_color t w red;
        rotate t (not l) w
      end;
      let w = child t (not l) xp in
      set_color t w (color t xp);
      set_black t (child t (not l) w);
      set_color t xp black;
      rotate t l xp
    end
  end

let remove_node t z =
  assert (z >= 0 && z < t.used && color t z <> freed);
  t.size <- t.size - 1;
  let zl = left t z and zr = right t z in
  if zl = none || zr = none then begin
    let x = if zl = none then zr else zl in
    let xp = parent t z in
    replace_child t z x;
    if color t z = black then remove_fixup t x xp
  end
  else begin
    (* Two children: the successor [y] takes [z]'s place and colour. *)
    let y = min_from t zr in
    let y_black = color t y = black in
    let x = right t y in
    let xp =
      if parent t y = z then y
      else begin
        let yp = parent t y in
        replace_child t y x;
        set t y 3 zr;
        set t zr 4 y;
        yp
      end
    in
    replace_child t z y;
    set t y 2 zl;
    set t zl 4 y;
    set_color t y (color t z);
    if y_black then remove_fixup t x xp
  end;
  free_node t z

(* --- queries ----------------------------------------------------------- *)

let rec find_from t k1 k2 n =
  if n = none then none
  else
    let c = compare_key t k1 k2 n in
    if c = 0 then n else find_from t k1 k2 (if c < 0 then left t n else right t n)

let find t k1 k2 = find_from t k1 k2 t.root

let remove t k1 k2 =
  let n = find t k1 k2 in
  if n <> none then remove_node t n

let min_node t = if t.root = none then none else min_from t t.root
let max_node t = if t.root = none then none else max_from t t.root

(* Descents that remember the best candidate node seen so far. *)
let rec geq t k1 k2 best n =
  if n = none then best
  else
    let c = compare_key t k1 k2 n in
    if c = 0 then n else if c < 0 then geq t k1 k2 n (left t n) else geq t k1 k2 best (right t n)

let rec leq t k1 k2 best n =
  if n = none then best
  else
    let c = compare_key t k1 k2 n in
    if c = 0 then n else if c < 0 then leq t k1 k2 best (left t n) else leq t k1 k2 n (right t n)

let rec lt t k1 k2 best n =
  if n = none then best
  else if compare_key t k1 k2 n <= 0 then lt t k1 k2 best (left t n)
  else lt t k1 k2 n (right t n)

let find_first_geq t k1 k2 = geq t k1 k2 none t.root
let find_last_leq t k1 k2 = leq t k1 k2 none t.root
let find_last_lt t k1 k2 = lt t k1 k2 none t.root

let rec fold_from f t n acc =
  if n = none then acc
  else fold_from f t (right t n) (f (key1 t n) (key2 t n) t.values.(n) (fold_from f t (left t n) acc))

let fold f t init = fold_from f t t.root init
let iter f t = fold (fun k1 k2 v () -> f k1 k2 v) t ()

let invariants_ok t =
  let count = ref 0 in
  (* Returns the black height; [lo]/[hi] are the bounding ancestors
     ([none] when unbounded). Raises on a violation. *)
  let rec check up lo hi n =
    if n = none then 1
    else begin
      incr count;
      assert (parent t n = up);
      assert (color t n = red || color t n = black);
      if lo <> none then assert (compare_key t (key1 t lo) (key2 t lo) n < 0);
      if hi <> none then assert (compare_key t (key1 t n) (key2 t n) hi < 0);
      assert (not (is_red t n && (is_red t (left t n) || is_red t (right t n))));
      let bl = check n lo n (left t n) in
      assert (bl = check n n hi (right t n));
      bl + if color t n = black then 1 else 0
    end
  in
  (* The free list holds every slot not in the tree, each with the dummy. *)
  let rec free_ok n k =
    if n = none then k = t.used - t.size
    else k < t.used && color t n = freed && value t n == t.dummy && free_ok (left t n) (k + 1)
  in
  match check none none none t.root with
  | _ -> (not (is_red t t.root)) && !count = t.size && free_ok t.free 0
  | exception (Assert_failure _ | Invalid_argument _) -> false
