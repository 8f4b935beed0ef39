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

(* Naive oracle: probe bits 0..nbits-1 one at a time. *)
let naive_first_zero dev t nbits =
  let rec go b = if b >= nbits then -1 else if Bitmap.get dev t b then go (b + 1) else b in
  go 0

type slab_op = Claim | Return of int (* index into the claimed blocks *)

let prop_free_take_first_lowest_clear =
  (* Refill takes blocks from the slab's volatile free set. On a slab
     that is not morphing, outside internal collection, the block it
     takes must be the lowest clear bit of the persistent bitmap, under
     both mappings and after any claim/return history, and -1 exactly
     when every bit is set. Claims outnumber returns two to one, so slabs
     of large classes fill up and drain again. *)
  let open QCheck in
  let op = Gen.(frequency [ (2, return Claim); (1, map (fun k -> Return k) nat) ]) in
  let print (mapping, class_idx, ops) =
    Printf.sprintf "%s class=%d %s"
      (match mapping with Bitmap.Sequential -> "seq" | Bitmap.Interleaved s -> Printf.sprintf "il%d" s)
      class_idx
      (String.concat " "
         (List.map (function Claim -> "c" | Return k -> Printf.sprintf "r%d" k) ops))
  in
  Test.make ~name:"free_take_first takes the lowest clear bitmap bit" ~count:300
    (make ~print
       Gen.(
         triple
           (oneofl [ Bitmap.Sequential; Bitmap.Interleaved 6 ])
           (int_range 0 (Size_class.count - 1))
           (list_size (int_bound 300) op)))
    (fun (mapping, class_idx, ops) ->
      let dev = Pmem.Device.create ~size:Slab.slab_bytes () in
      let layout = Slab.layout_of_class ~class_idx ~mapping in
      let s = Slab.format dev ~addr:0 ~arena:0 ~mapping layout in
      let bm = s.Slab.bitmap and nblocks = layout.Slab.nblocks in
      let claimed = ref [] in
      List.for_all
        (function
          | Claim ->
              let expect = naive_first_zero dev bm nblocks in
              let b = Slab.free_take_first s in
              if b >= 0 then begin
                Bitmap.set dev bm b;
                claimed := b :: !claimed
              end;
              b = expect
          | Return k ->
              (match !claimed with
              | [] -> ()
              | l ->
                  let b = List.nth l (k mod List.length l) in
                  Bitmap.clear dev bm b;
                  Slab.free_put s b;
                  claimed := List.filter (( <> ) b) l);
              true)
        ops)

let suite =
  [
    Alcotest.test_case "set/get/clear" `Quick test_set_get_clear;
    Alcotest.test_case "sequential mapping" `Quick test_sequential_mapping;
    Alcotest.test_case "interleaved rotates lines" `Quick test_interleaved_rotates_lines;
    Alcotest.test_case "interleaved capacity growth" `Quick test_interleaved_capacity_growth;
    QCheck_alcotest.to_alcotest prop_bijection;
    QCheck_alcotest.to_alcotest prop_no_reflush_window;
    QCheck_alcotest.to_alcotest prop_set_then_get;
    QCheck_alcotest.to_alcotest prop_free_take_first_lowest_clear;
  ]
