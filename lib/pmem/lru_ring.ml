(* Fixed-capacity move-to-front LRU over a ring buffer.

   The former implementation kept the LRU in a plain array and shifted
   the whole window on every miss (the common case in reflush-light
   streams). Here the front is a moving [head] index: a miss is O(scan)
   with an O(1) insert that overwrites the victim in place; only a hit at
   distance [d] pays an O(d) rotation to restore recency order. Slots
   hold plain ints (cache-line or XPLine indices) and results are plain
   ints and bools, so nothing allocates after [create]. *)

type t = { cap : int; slots : int array; mutable head : int; mutable len : int }

let create capacity =
  assert (capacity >= 0);
  { cap = capacity; slots = Array.make (max capacity 1) min_int; head = 0; len = 0 }


(* Physical slot of logical position [i] (0 = most recent). *)
let slot t i =
  let p = t.head + i in
  if p >= t.cap then p - t.cap else p

(* Logical position of [v], or -1. Tail recursion over int arguments:
   this is the per-flush hot path, and unlike a [ref]-based loop it
   allocates nothing. *)
let rec find_from t v i =
  if i >= t.len then -1
  else
    let p = t.head + i in
    let p = if p >= t.cap then p - t.cap else p in
    if Array.unsafe_get t.slots p = v then i else find_from t v (i + 1)

(* Move-to-front of [v], known to sit at logical position [d] (-1: absent,
   insert over the least-recent slot). *)
let promote t v d =
  if d < 0 then begin
    t.head <- (if t.head = 0 then t.cap - 1 else t.head - 1);
    Array.unsafe_set t.slots t.head v;
    if t.len < t.cap then t.len <- t.len + 1
  end
  else begin
    for i = d downto 1 do
      t.slots.(slot t i) <- t.slots.(slot t (i - 1))
    done;
    t.slots.(t.head) <- v
  end

let touch t v =
  if t.cap = 0 then -1
  else begin
    let d = find_from t v 0 in
    promote t v d;
    d
  end

(* One scan finds both the position of [v] and whether [v] or [v - 1] is
   in the pre-touch window, then applies [touch]'s update: the Device's
   per-flush XPLine sequentiality test in a single ring traversal. *)
let touch_seq t v =
  let w = t.cap in
  if w = 0 then false
  else begin
    let pos = ref (-1) in
    let seq = ref false in
    for i = 0 to t.len - 1 do
      let p = t.head + i in
      let p = if p >= w then p - w else p in
      let s = Array.unsafe_get t.slots p in
      if s = v then begin
        seq := true;
        if !pos < 0 then pos := i
      end
      else if s + 1 = v then seq := true
    done;
    promote t v !pos;
    !seq
  end

let to_list t = List.init t.len (fun i -> t.slots.(slot t i))

let reset t =
  t.head <- 0;
  t.len <- 0
