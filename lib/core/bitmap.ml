type mapping = Sequential | Interleaved of int

type t = {
  base : int;
  nbits : int;
  lines : int;
  mapping : mapping;
  bytes_a : int Pstruct.arr; (* the bitmap as a u8 array, base-relative *)
}

let bits_per_line = Pmem.Cacheline.size * 8

let lines_for ~nbits ~mapping =
  let minimum = (nbits + bits_per_line - 1) / bits_per_line in
  let minimum = max 1 minimum in
  match mapping with
  | Sequential -> minimum
  | Interleaved stripes ->
      assert (stripes >= 1);
      (* No point in more stripes than blocks. *)
      max minimum (min stripes (max 1 nbits))

let make ~base ~nbits ~mapping =
  assert (base mod Pmem.Cacheline.size = 0);
  assert (nbits > 0);
  let lines = lines_for ~nbits ~mapping in
  let l = Pstruct.layout "bitmap" in
  let bytes_a = Pstruct.array l "bits" ~off:0 ~count:(lines * Pmem.Cacheline.size) Pstruct.U8 in
  Pstruct.seal l ~size:(lines * Pmem.Cacheline.size);
  { base; nbits; lines; mapping; bytes_a }

let bytes t = t.lines * Pmem.Cacheline.size

(* Line and in-line bit index of block [b]: two int functions rather
   than one tuple, so the per-op callers allocate nothing. *)
let line_of t b =
  assert (b >= 0 && b < t.nbits);
  match t.mapping with Sequential -> b / bits_per_line | Interleaved _ -> b mod t.lines

let index_in_line t b =
  match t.mapping with Sequential -> b mod bits_per_line | Interleaved _ -> b / t.lines

let bit_location t b = (line_of t b, index_in_line t b)
let line_addr t b = t.base + (line_of t b * Pmem.Cacheline.size)

let bit_span t b =
  Pstruct.span_of ~addr:(line_addr t b) ~len:Pmem.Cacheline.size

let byte_of t b = (line_of t b * Pmem.Cacheline.size) + (index_in_line t b / 8)
let mask_of t b = 1 lsl (index_in_line t b mod 8)

let set dev t b =
  let byte = byte_of t b in
  Pstruct.set_elt dev ~base:t.base t.bytes_a byte
    (Pstruct.get_elt dev ~base:t.base t.bytes_a byte lor mask_of t b)

let clear dev t b =
  let byte = byte_of t b in
  Pstruct.set_elt dev ~base:t.base t.bytes_a byte
    (Pstruct.get_elt dev ~base:t.base t.bytes_a byte land lnot (mask_of t b))

let get dev t b =
  Pstruct.get_elt dev ~base:t.base t.bytes_a (byte_of t b) land mask_of t b <> 0

let clear_all dev t = Pmem.Device.fill dev t.base (bytes t) '\000'

let popcount dev t =
  let n = ref 0 in
  for b = 0 to t.nbits - 1 do
    if get dev t b then incr n
  done;
  !n

let iter_set dev t f =
  for b = 0 to t.nbits - 1 do
    if get dev t b then f b
  done
