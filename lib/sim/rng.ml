(* The state sits in an 8-byte buffer, not a mutable int64 field: it is
   read and written unboxed, so an int or bool draw allocates nothing. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

(* splitmix64: tiny, high-quality, and identical on every platform. *)
let[@inline] next_int64 t =
  let open Int64 in
  let z = add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  (* Shift by 2 so the value fits OCaml's 63-bit int without wrapping. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound

let chance t p = float t 1.0 < p
let bool t = Int64.logand (next_int64 t) 1L = 1L

let poisson_in t lo hi =
  (* Sum of four uniforms approximates a centred bell; cheap and
     deterministic, which is all the DBMStest size distribution needs. *)
  let quarter () = int_in t 0 ((hi - lo) / 4) in
  let v = lo + quarter () + quarter () + quarter () + quarter () in
  if v < lo then lo else if v > hi then hi else v

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
