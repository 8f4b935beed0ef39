(* Per-chunk dirty-line bitmaps.

   One bit per cache line, grouped into lazily allocated bitmap chunks
   that each cover 1 MiB of device, whatever Store's granule: 512 ints,
   which the runtime allocates straight on the major heap. An absent
   chunk's slot holds one shared empty array. All single-line
   operations are O(1); iteration skips absent chunks and zero words, so
   [flush_all]/crash sweeps cost O(dirty + words touched), not O(device).
   The dirty count is maintained incrementally so [count] is O(1). *)

let chunk_shift = 14
let lines_per_chunk = 1 lsl chunk_shift

(* 32 dirty bits per word: power-of-two indexing, and every mask fits a
   63-bit OCaml int with room for the popcount/De Bruijn arithmetic. *)
let bits_per_word = 32
let words_per_chunk = lines_per_chunk / bits_per_word

type t = { chunks : int array array; mutable dirty : int }

let absent : int array = [||]

let create ~size =
  assert (size > 0 && size mod Cacheline.size = 0);
  let lines = size / Cacheline.size in
  let n = (lines + lines_per_chunk - 1) / lines_per_chunk in
  { chunks = Array.make n absent; dirty = 0 }

let count t = t.dirty

let words_of t ci =
  match t.chunks.(ci) with
  | w when w != absent -> w
  | _ ->
      let w = Array.make words_per_chunk 0 in
      t.chunks.(ci) <- w;
      w

let mark t line =
  let w = words_of t (line lsr chunk_shift) in
  let wi = (line lsr 5) land (words_per_chunk - 1) in
  let bit = 1 lsl (line land 31) in
  let old = w.(wi) in
  if old land bit = 0 then begin
    w.(wi) <- old lor bit;
    t.dirty <- t.dirty + 1
  end

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

let mark_range t ~first ~last =
  assert (first <= last);
  let line = ref first in
  while !line <= last do
    let w = words_of t (!line lsr chunk_shift) in
    let wi = (!line lsr 5) land (words_per_chunk - 1) in
    let lo = !line land 31 in
    (* Bits [lo .. lo+span] of this word lie inside [first, last]. *)
    let span = min (last - !line) (31 - lo) in
    let mask = ((1 lsl (span + 1)) - 1) lsl lo in
    let old = w.(wi) in
    let updated = old lor mask in
    if updated <> old then begin
      w.(wi) <- updated;
      t.dirty <- t.dirty + popcount32 (updated lxor old)
    end;
    line := !line + span + 1
  done

let test t line =
  match t.chunks.(line lsr chunk_shift) with
  | w when w == absent -> false
  | w -> w.((line lsr 5) land (words_per_chunk - 1)) land (1 lsl (line land 31)) <> 0

let clear t line =
  match t.chunks.(line lsr chunk_shift) with
  | w when w == absent -> ()
  | w ->
      let wi = (line lsr 5) land (words_per_chunk - 1) in
      let bit = 1 lsl (line land 31) in
      let old = w.(wi) in
      if old land bit <> 0 then begin
        w.(wi) <- old land lnot bit;
        t.dirty <- t.dirty - 1
      end

(* Lowest-set-bit index via a De Bruijn multiply (the product is masked
   to 32 bits so the 63-bit native int does not leak high bits). *)
let tz_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) <- i
  done;
  tbl

let iter t f =
  for ci = 0 to Array.length t.chunks - 1 do
    match t.chunks.(ci) with
    | words when words == absent -> ()
    | words ->
        let base = ci lsl chunk_shift in
        for wi = 0 to words_per_chunk - 1 do
          (* Snapshot the word: [f] may clear bits of the line it is
             visiting (flush does) without disturbing the sweep. *)
          let w = ref words.(wi) in
          if !w <> 0 then begin
            let word_base = base + (wi lsl 5) in
            while !w <> 0 do
              let bit = !w land (- !w) in
              f (word_base + tz_table.(((bit * 0x077CB531) land 0xFFFFFFFF) lsr 27));
              w := !w land lnot bit
            done
          end
        done
  done

let reset t =
  Array.fill t.chunks 0 (Array.length t.chunks) absent;
  t.dirty <- 0
