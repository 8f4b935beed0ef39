(* Bitmap mapping: bijection, interleaving guarantees, persistence. *)

open Nvalloc_core

let mk_dev () = Pmem.Device.create ~size:(1 lsl 16) ()

let test_set_get_clear () =
  let dev = mk_dev () in
  let t = Bitmap.make ~base:0 ~nbits:1000 ~mapping:(Bitmap.Interleaved 6) in
  Bitmap.set dev t 0;
  Bitmap.set dev t 999;
  Alcotest.(check bool) "bit 0" true (Bitmap.get dev t 0);
  Alcotest.(check bool) "bit 999" true (Bitmap.get dev t 999);
  Alcotest.(check bool) "bit 1" false (Bitmap.get dev t 1);
  Alcotest.(check int) "popcount" 2 (Bitmap.popcount dev t);
  Bitmap.clear dev t 0;
  Alcotest.(check bool) "cleared" false (Bitmap.get dev t 0);
  Bitmap.clear_all dev t;
  Alcotest.(check int) "all cleared" 0 (Bitmap.popcount dev t)

let test_sequential_mapping () =
  let t = Bitmap.make ~base:0 ~nbits:1024 ~mapping:Bitmap.Sequential in
  Alcotest.(check int) "two lines" 2 t.Bitmap.lines;
  Alcotest.(check (pair int int)) "bit 0" (0, 0) (Bitmap.bit_location t 0);
  Alcotest.(check (pair int int)) "bit 511" (0, 511) (Bitmap.bit_location t 511);
  Alcotest.(check (pair int int)) "bit 512" (1, 0) (Bitmap.bit_location t 512)

let test_interleaved_rotates_lines () =
  let t = Bitmap.make ~base:0 ~nbits:1000 ~mapping:(Bitmap.Interleaved 6) in
  Alcotest.(check int) "six stripes" 6 t.Bitmap.lines;
  (* Consecutive blocks land in consecutive (distinct) lines. *)
  for b = 0 to 10 do
    let line, _ = Bitmap.bit_location t b in
    Alcotest.(check int) (Printf.sprintf "block %d line" b) (b mod 6) line
  done

let test_interleaved_capacity_growth () =
  (* 4096 blocks cannot fit 6 stripes of 512 bits: lines grow to 8. *)
  let t = Bitmap.make ~base:0 ~nbits:4096 ~mapping:(Bitmap.Interleaved 6) in
  Alcotest.(check int) "eight lines" 8 t.Bitmap.lines

let prop_bijection =
  let open QCheck in
  Test.make ~name:"bit mapping is a bijection" ~count:200
    (make
       Gen.(
         pair
           (int_range 1 5000)
           (oneof [ return Bitmap.Sequential; map (fun s -> Bitmap.Interleaved s) (int_range 1 32) ])))
    (fun (nbits, mapping) ->
      let t = Bitmap.make ~base:0 ~nbits ~mapping in
      let seen = Hashtbl.create nbits in
      let ok = ref true in
      for b = 0 to nbits - 1 do
        let line, idx = Bitmap.bit_location t b in
        if line < 0 || line >= t.Bitmap.lines || idx < 0 || idx >= Bitmap.bits_per_line then
          ok := false;
        let key = (line * Bitmap.bits_per_line) + idx in
        if Hashtbl.mem seen key then ok := false;
        Hashtbl.add seen key ()
      done;
      !ok)

let prop_no_reflush_window =
  (* With >= 5 stripes, any 4 consecutive blocks map to 4 distinct lines,
     which is exactly what eliminates reflushes under the distance-4
     window. *)
  let open QCheck in
  Test.make ~name:"stripes >= 5 keep consecutive blocks in distinct lines" ~count:200
    (make Gen.(pair (int_range 5 32) (int_range 100 4000)))
    (fun (stripes, nbits) ->
      let t = Bitmap.make ~base:0 ~nbits ~mapping:(Bitmap.Interleaved stripes) in
      let ok = ref true in
      for b = 0 to min (nbits - 5) 500 do
        let lines = List.init 4 (fun i -> fst (Bitmap.bit_location t (b + i))) in
        if List.length (List.sort_uniq compare lines) <> 4 then ok := false
      done;
      !ok)

let prop_set_then_get =
  let open QCheck in
  Test.make ~name:"set/clear agree with a bool-array model" ~count:100
    (make
       Gen.(
         triple (int_range 1 2000)
           (oneof [ return Bitmap.Sequential; map (fun s -> Bitmap.Interleaved s) (int_range 1 16) ])
           (list_size (int_bound 200) (pair bool (int_bound 1999)))))
    (fun (nbits, mapping, ops) ->
      let dev = mk_dev () in
      let t = Bitmap.make ~base:0 ~nbits ~mapping in
      let model = Array.make nbits false in
      List.iter
        (fun (set, b) ->
          let b = b mod nbits in
          if set then begin
            Bitmap.set dev t b;
            model.(b) <- true
          end
          else begin
            Bitmap.clear dev t b;
            model.(b) <- false
          end)
        ops;
      let ok = ref true in
      Array.iteri (fun b expect -> if Bitmap.get dev t b <> expect then ok := false) model;
      let set_count = Array.fold_left (fun n v -> if v then n + 1 else n) 0 model in
      !ok && Bitmap.popcount dev t = set_count)

(* Naive oracle for the word-scan: probe bits 0..nbits-1 one at a time. *)
let naive_first_zero dev t nbits =
  let rec go b = if b >= nbits then -1 else if Bitmap.get dev t b then go (b + 1) else b in
  go 0

let gen_mapping =
  QCheck.Gen.(oneof [ return Bitmap.Sequential; map (fun s -> Bitmap.Interleaved s) (int_range 1 16) ])

let prop_find_first_zero =
  (* The 32-bit word scan agrees with a per-bit loop after arbitrary
     set/clear traffic, for both mappings. *)
  let open QCheck in
  Test.make ~name:"find_first_zero agrees with the naive bit loop" ~count:300
    (make
       Gen.(
         triple (int_range 1 2000) gen_mapping
           (list_size (int_bound 300) (pair bool (int_bound 1999)))))
    (fun (nbits, mapping, ops) ->
      let dev = mk_dev () in
      let t = Bitmap.make ~base:0 ~nbits ~mapping in
      List.iter
        (fun (set, b) ->
          let b = b mod nbits in
          if set then Bitmap.set dev t b else Bitmap.clear dev t b)
        ops;
      Bitmap.find_first_zero dev t = naive_first_zero dev t nbits)

let prop_find_first_zero_edges =
  (* Line-boundary sizes: nbits at, one below and one above multiples of
     the 32-bit word and the 512-bit line, saturated then drained one bit
     at a time — the scan must track the naive answer at every step and
     report -1 exactly when the bitmap is full. *)
  let open QCheck in
  let sizes =
    List.concat_map (fun n -> [ n - 1; n; n + 1 ]) [ 32; 64; 128; 512; 1024 ] |> List.filter (fun n -> n > 0)
  in
  Test.make ~name:"find_first_zero at word/line boundaries and full bitmaps" ~count:60
    (make Gen.(pair (oneofl sizes) gen_mapping))
    (fun (nbits, mapping) ->
      let dev = mk_dev () in
      let t = Bitmap.make ~base:0 ~nbits ~mapping in
      let ok = ref true in
      (* Fill in mapping order: each step must take the naive
         first-zero, and a full bitmap must return -1. *)
      for _ = 1 to nbits do
        let b = Bitmap.find_first_zero dev t in
        if b <> naive_first_zero dev t nbits then ok := false;
        if b >= 0 then Bitmap.set dev t b
      done;
      if Bitmap.find_first_zero dev t <> -1 then ok := false;
      if Bitmap.popcount dev t <> nbits then ok := false;
      (* Drain from the back: clearing bit b must make it the answer iff
         it is the lowest clear bit. *)
      for b = nbits - 1 downto 0 do
        Bitmap.clear dev t b;
        if Bitmap.find_first_zero dev t <> b then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "set/get/clear" `Quick test_set_get_clear;
    Alcotest.test_case "sequential mapping" `Quick test_sequential_mapping;
    Alcotest.test_case "interleaved rotates lines" `Quick test_interleaved_rotates_lines;
    Alcotest.test_case "interleaved capacity growth" `Quick test_interleaved_capacity_growth;
    QCheck_alcotest.to_alcotest prop_bijection;
    QCheck_alcotest.to_alcotest prop_no_reflush_window;
    QCheck_alcotest.to_alcotest prop_set_then_get;
    QCheck_alcotest.to_alcotest prop_find_first_zero;
    QCheck_alcotest.to_alcotest prop_find_first_zero_edges;
  ]
