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

(* Word-level scans (section 5.1), over 32-bit words read as plain ints
   (a 64-bit word would come back as a boxed [Int64]): the bitmap bytes
   are little-endian, so bit [p] of the word at byte offset [o] is the
   same bit as byte [o + p/8], mask [1 lsl (p mod 8)] — in-line bit index
   [o*8 + p]. Full words compare equal to all-ones and are skipped in one
   step. *)

let word_bits = 32
let full = 0xFFFF_FFFF
let words_per_line = bits_per_line / word_bits

let read_word dev t ~line ~word =
  Pmem.Device.read_u32 dev (t.base + (line * Pmem.Cacheline.size) + (word * 4))

(* Bit indices >= [valid] within the line do not map to any block; read
   them as ones so the scan never reports them. [lo] is the in-line bit
   index of the word's bit 0. *)
let mask_invalid w ~lo ~valid =
  if valid >= lo + word_bits then w
  else if valid <= lo then full
  else w lor ((full lsl (valid - lo)) land full)

let rec trailing_ones w j = if (w lsr j) land 1 = 0 then j else trailing_ones w (j + 1)
let first_zero_bit w = if w = full then -1 else trailing_ones w 0

(* Global word [w] covers blocks [w*32, w*32+32). *)
let rec scan_sequential dev t w nwords =
  if w >= nwords then -1
  else
    let line = w / words_per_line in
    let raw = read_word dev t ~line ~word:(w mod words_per_line) in
    let lo = w mod words_per_line * word_bits in
    let j = first_zero_bit (mask_invalid raw ~lo ~valid:(t.nbits - (line * bits_per_line))) in
    if j >= 0 then (w * word_bits) + j else scan_sequential dev t (w + 1) nwords

(* In-line index of the first zero among [valid] bits of [line], or -1. *)
let rec scan_line dev t ~line ~valid w =
  if w * word_bits >= valid then -1
  else
    let raw = read_word dev t ~line ~word:w in
    let j = first_zero_bit (mask_invalid raw ~lo:(w * word_bits) ~valid) in
    if j >= 0 then (w * word_bits) + j else scan_line dev t ~line ~valid (w + 1)

let find_first_zero dev t =
  match t.mapping with
  | Sequential -> scan_sequential dev t 0 ((t.nbits + word_bits - 1) / word_bits)
  | Interleaved _ ->
      (* Block [b] maps to (line [b mod lines], in-line index [b / lines]),
         so block order is index-major: the smallest free block overall is
         the smallest (index, line) pair over each line's first zero. *)
      let best = ref max_int in
      for line = 0 to min t.lines t.nbits - 1 do
        let idx = scan_line dev t ~line ~valid:((t.nbits - line + t.lines - 1) / t.lines) 0 in
        if idx >= 0 then begin
          let b = (idx * t.lines) + line in
          if b < !best then best := b
        end
      done;
      if !best = max_int then -1 else !best
