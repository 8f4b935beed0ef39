(* Slab layout, header persistence, index-entry packing; tcache rotation
   semantics; size classes. *)

open Nvalloc_core

let mk_dev () = Pmem.Device.create ~size:(1 lsl 20) ()

(* --- size classes --------------------------------------------------------- *)

let test_size_class_table () =
  Alcotest.(check int) "first class is 16 B" 16 (Size_class.size_of 0);
  Alcotest.(check int) "largest is 16 KiB" 16384 (Size_class.size_of (Size_class.count - 1));
  Alcotest.(check int) "zero has no class" (-1) (Size_class.of_size 0);
  Alcotest.(check int) "above max is large" (-1) (Size_class.of_size 16385);
  Alcotest.(check int) "1 B fits class 0" 0 (Size_class.of_size 1)

let prop_size_class_fits =
  let open QCheck in
  Test.make ~name:"of_size returns the smallest fitting class" ~count:300
    (make Gen.(int_range 1 16384))
    (fun n ->
      let c = Size_class.of_size n in
      c >= 0 && Size_class.size_of c >= n && (c = 0 || Size_class.size_of (c - 1) < n))

let prop_classes_monotone =
  let open QCheck in
  Test.make ~name:"class sizes strictly increase" ~count:1
    (make Gen.(return ()))
    (fun () ->
      let ok = ref true in
      for c = 1 to Size_class.count - 1 do
        if Size_class.size_of c <= Size_class.size_of (c - 1) then ok := false
      done;
      !ok)

(* --- slab layout ------------------------------------------------------------ *)

let prop_layout_sound =
  (* For every class and mapping: blocks fit the slab, never overlap the
     header, and the bitmap covers them. *)
  let open QCheck in
  Test.make ~name:"slab layouts are sound for all classes" ~count:80
    (make
       Gen.(
         pair (int_range 0 (Size_class.count - 1))
           (oneof [ return Bitmap.Sequential; map (fun s -> Bitmap.Interleaved s) (int_range 2 32) ])))
    (fun (class_idx, mapping) ->
      let l = Slab.layout_of_class ~class_idx ~mapping in
      l.Slab.nblocks > 0
      && l.Slab.data_off >= 64 + (Slab.index_capacity * 2) + (l.Slab.bitmap_lines * 64)
      && l.Slab.data_off + (l.Slab.nblocks * l.Slab.block_size) <= Slab.slab_bytes
      && Bitmap.lines_for ~nbits:l.Slab.nblocks ~mapping = l.Slab.bitmap_lines)

let test_format_and_recover () =
  let dev = mk_dev () in
  let mapping = Bitmap.Interleaved 6 in
  let layout = Slab.layout_of_class ~class_idx:3 ~mapping in
  let s = Slab.format dev ~addr:65536 ~arena:0 ~mapping layout in
  Alcotest.(check bool) "magic present" true (Slab.is_slab_header dev 65536);
  Alcotest.(check int) "class persisted" 3 (Slab.read_class dev 65536);
  Alcotest.(check int) "all free" layout.Slab.nblocks s.Slab.free_count;
  (* Mark a few blocks, then rebuild from the header. *)
  Bitmap.set dev s.Slab.bitmap 0;
  Bitmap.set dev s.Slab.bitmap 5;
  let s', undone = Slab.recover dev ~addr:65536 ~arena:0 ~mapping in
  Alcotest.(check bool) "no undo needed" false undone;
  Alcotest.(check int) "free count reflects bits" (layout.Slab.nblocks - 2) s'.Slab.free_count;
  Alcotest.(check bool) "free set excludes set bits" true
    ((not (Slab.free_mem s' 0)) && not (Slab.free_mem s' 5))

let prop_index_entry_roundtrip =
  let open QCheck in
  Test.make ~name:"index entries pack/unpack" ~count:200
    (make Gen.(pair (int_range 0 4095) bool))
    (fun (block, allocated) ->
      Slab.unpack_index_entry (Slab.pack_index_entry ~block ~allocated) = (block, allocated))

let test_block_addr_roundtrip () =
  let dev = mk_dev () in
  let mapping = Bitmap.Sequential in
  let layout = Slab.layout_of_class ~class_idx:0 ~mapping in
  let s = Slab.format dev ~addr:65536 ~arena:0 ~mapping layout in
  for b = 0 to layout.Slab.nblocks - 1 do
    let addr = Slab.block_addr s b in
    assert (Slab.block_index s addr = b);
    assert (Slab.contains_new_block s addr)
  done;
  Alcotest.(check bool) "misaligned address rejected" false
    (Slab.contains_new_block s (Slab.block_addr s 0 + 1))

(* --- tcache ------------------------------------------------------------------ *)

let mk_slab dev = Slab.format dev ~addr:65536 ~arena:0 ~mapping:(Bitmap.Interleaved 6)
    (Slab.layout_of_class ~class_idx:2 ~mapping:(Bitmap.Interleaved 6))

let test_tcache_fifo_capacity () =
  let dev = mk_dev () in
  let s = mk_slab dev in
  let tc = Tcache.create ~capacity:4 ~nsub:1 in
  for b = 0 to 3 do
    Alcotest.(check bool) "push ok" true (Tcache.push tc s (Slab.block_addr s b))
  done;
  Alcotest.(check bool) "full rejects" false (Tcache.push tc s (Slab.block_addr s 4));
  Alcotest.(check int) "count" 4 (Tcache.count tc);
  let drained = ref 0 in
  Tcache.drain tc (fun n () _ _ -> incr n) drained ();
  Alcotest.(check int) "drain returns all" 4 !drained;
  Alcotest.(check bool) "empty after drain" true (Tcache.is_empty tc)

let test_tcache_rotation_avoids_lines () =
  let dev = mk_dev () in
  let s = mk_slab dev in
  let nsub = 6 in
  let tc = Tcache.create ~capacity:64 ~nsub in
  for b = 0 to 47 do
    ignore (Tcache.push tc s (Slab.block_addr s b))
  done;
  (* Any 4 consecutive pops map to 4 distinct bitmap lines. *)
  let pops = List.init 24 (fun _ -> Tcache.pop tc) in
  let lines =
    List.map (fun addr -> fst (Bitmap.bit_location s.Slab.bitmap (Slab.block_index s addr))) pops
  in
  let rec windows = function
    | a :: b :: c :: d :: rest ->
        List.length (List.sort_uniq compare [ a; b; c; d ]) = 4
        && windows (b :: c :: d :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "rotation yields distinct lines" true (windows lines)

let prop_tcache_conserves_entries =
  let open QCheck in
  Test.make ~name:"tcache pops exactly what was pushed" ~count:100
    (make Gen.(pair (int_range 1 8) (list_size (int_range 1 80) (int_range 0 200))))
    (fun (nsub, blocks) ->
      let dev = mk_dev () in
      let s = mk_slab dev in
      let blocks = List.filter (fun b -> b < s.Slab.layout.Slab.nblocks) blocks in
      let tc = Tcache.create ~capacity:1000 ~nsub in
      List.iter (fun b -> ignore (Tcache.push tc s (Slab.block_addr s b))) blocks;
      let popped = ref [] in
      let rec drain () =
        if not (Tcache.is_empty tc) then begin
          let addr = Tcache.pop tc in
          assert (Tcache.last_slab tc == s);
          popped := Slab.block_index s addr :: !popped;
          drain ()
        end
      in
      drain ();
      List.sort compare !popped = List.sort compare blocks)

(* The list-of-lists tcache the array-backed one replaced, kept as the
   order oracle: simulated output depends on the exact pop and drain
   order, not just on the multiset of blocks. *)
module Ref_tcache = struct
  type entry = { slab : Slab.t; addr : int }
  type t = { capacity : int; sub : entry list array; mutable cursor : int; mutable count : int }

  let create ~capacity ~nsub = { capacity; sub = Array.make nsub []; cursor = 0; count = 0 }
  let is_full t = t.count >= t.capacity

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
    let n = Array.length t.sub in
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
end

type tc_op = Push of int * int * bool | Pop | Drain

let tc_op_print = function
  | Push (slab, b, stray) -> Printf.sprintf "Push(%d,%d,%b)" slab b stray
  | Pop -> "Pop"
  | Drain -> "Drain"

let prop_tcache_matches_reference =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          ( 6,
            map3
              (fun s b stray -> Push (s, b, stray))
              (int_range 0 1) (int_range 0 300)
              (map (( = ) 0) (int_range 0 9)) );
          (4, return Pop);
          (1, return Drain);
        ])
  in
  Test.make ~name:"tcache pop and drain order = list-of-lists reference" ~count:300
    (make
       ~print:(fun (nsub, cap, ops) ->
         Printf.sprintf "nsub=%d cap=%d %s" nsub cap
           (String.concat " " (List.map tc_op_print ops)))
       ~shrink:Shrink.(triple nil nil list)
       Gen.(triple (int_range 1 8) (int_range 1 12) (list_size (int_range 0 120) op)))
    (fun (nsub, capacity, ops) ->
      let dev = mk_dev () in
      let mapping = Bitmap.Interleaved 6 in
      (* Two slabs of different classes, so block grids and bitmap lines
         differ; a stray address (off the grid, as after a morph) homes
         to sub-tcache 0. *)
      let slab addr class_idx =
        Slab.format dev ~addr ~arena:0 ~mapping (Slab.layout_of_class ~class_idx ~mapping)
      in
      let slabs = [| slab 65536 2; slab 131072 9 |] in
      let tc = Tcache.create ~capacity ~nsub in
      let r = Ref_tcache.create ~capacity ~nsub in
      let drained = ref [] in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Push (k, b, stray) ->
                let s = slabs.(k) in
                let addr =
                  Slab.block_addr s (b mod s.Slab.layout.Slab.nblocks) + if stray then 8 else 0
                in
                Tcache.push tc s addr = Ref_tcache.push r { Ref_tcache.slab = s; addr }
            | Pop ->
                Tcache.is_empty tc = (r.Ref_tcache.count = 0)
                && (Tcache.is_empty tc
                   ||
                   let addr = Tcache.pop tc in
                   let e = Ref_tcache.pop r in
                   addr = e.Ref_tcache.addr && Tcache.last_slab tc == e.Ref_tcache.slab)
            | Drain ->
                drained := [];
                Tcache.drain tc (fun acc () s addr -> acc := (s.Slab.addr, addr) :: !acc) drained ();
                List.rev !drained
                = List.map
                    (fun e -> (e.Ref_tcache.slab.Slab.addr, e.Ref_tcache.addr))
                    (Ref_tcache.drain r)
          in
          same
          && Tcache.count tc = r.Ref_tcache.count
          && Tcache.is_full tc = Ref_tcache.is_full r)
        ops)

let suite =
  [
    Alcotest.test_case "size-class table shape" `Quick test_size_class_table;
    QCheck_alcotest.to_alcotest prop_size_class_fits;
    QCheck_alcotest.to_alcotest prop_classes_monotone;
    QCheck_alcotest.to_alcotest prop_layout_sound;
    Alcotest.test_case "format + recover roundtrip" `Quick test_format_and_recover;
    QCheck_alcotest.to_alcotest prop_index_entry_roundtrip;
    Alcotest.test_case "block addr/index roundtrip" `Quick test_block_addr_roundtrip;
    Alcotest.test_case "tcache capacity and drain" `Quick test_tcache_fifo_capacity;
    Alcotest.test_case "tcache rotation avoids lines" `Quick test_tcache_rotation_avoids_lines;
    QCheck_alcotest.to_alcotest prop_tcache_conserves_entries;
    QCheck_alcotest.to_alcotest prop_tcache_matches_reference;
  ]
