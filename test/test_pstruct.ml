(* The typed persistent-layout DSL: declaration-time overlap rejection,
   typed roundtrips through the device, span arithmetic, and the
   commit/dependency combinator feeding the persist-ordering checker. *)

let mk ?(size = 1 lsl 20) ?(check = false) () =
  let dev = Pmem.Device.create ~size () in
  Pmem.Device.set_check_mode dev check;
  (dev, Sim.Clock.create ())

(* A layout exercising every field type plus an array with a stride. *)
module Probe = struct
  let l = Pstruct.layout "test.probe"
  let a = Pstruct.u8 l "a" ~off:0
  let b = Pstruct.u16 l "b" ~off:2
  let c = Pstruct.u32 l "c" ~off:4
  let d = Pstruct.i64 l "d" ~off:8
  let e = Pstruct.int_ l "e" ~off:16
  let f = Pstruct.bytes_ l "f" ~off:24 ~len:5
  let arr = Pstruct.array l "arr" ~off:32 ~stride:8 ~count:4 Pstruct.U32
  let () = Pstruct.seal l ~size:64
end

let test_roundtrip () =
  let dev, _ = mk () in
  let base = 4096 in
  Pstruct.set dev ~base Probe.a 0xAB;
  Pstruct.set dev ~base Probe.b 0xBEEF;
  Pstruct.set dev ~base Probe.c 0xCAFEBABE;
  Pstruct.set dev ~base Probe.d 0x1122334455667788L;
  Pstruct.set dev ~base Probe.e (-42);
  Pstruct.set dev ~base Probe.f (Bytes.of_string "hello");
  for i = 0 to 3 do
    Pstruct.set_elt dev ~base Probe.arr i (100 + i)
  done;
  Alcotest.(check int) "u8" 0xAB (Pstruct.get dev ~base Probe.a);
  Alcotest.(check int) "u16" 0xBEEF (Pstruct.get dev ~base Probe.b);
  Alcotest.(check int) "u32" 0xCAFEBABE (Pstruct.get dev ~base Probe.c);
  Alcotest.(check int64) "i64" 0x1122334455667788L (Pstruct.get dev ~base Probe.d);
  Alcotest.(check int) "int" (-42) (Pstruct.get dev ~base Probe.e);
  Alcotest.(check string) "bytes" "hello" (Bytes.to_string (Pstruct.get dev ~base Probe.f));
  for i = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "arr.(%d)" i)
      (100 + i)
      (Pstruct.get_elt dev ~base Probe.arr i)
  done;
  (* The typed writes land exactly where the raw offsets say. *)
  Alcotest.(check int) "raw u16" 0xBEEF (Pmem.Device.read_u16 dev (base + 2));
  Alcotest.(check int) "raw arr elt 2" 102 (Pmem.Device.read_u32 dev (base + 32 + 16))

let test_spans () =
  let base = 8192 in
  let s = Pstruct.span ~base Probe.d in
  Alcotest.(check int) "field span addr" (base + 8) s.Pstruct.addr;
  Alcotest.(check int) "field span len" 8 s.Pstruct.len;
  let s = Pstruct.elt_span ~base Probe.arr 3 in
  Alcotest.(check int) "elt span addr" (base + 32 + 24) s.Pstruct.addr;
  Alcotest.(check int) "elt span len" 4 s.Pstruct.len

let test_declaration_rejection () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "overlap" (fun () ->
      let l = Pstruct.layout "test.overlap" in
      let _ = Pstruct.u32 l "x" ~off:0 in
      Pstruct.u16 l "y" ~off:2);
  raises "declare after seal" (fun () ->
      let l = Pstruct.layout "test.sealed" in
      let _ = Pstruct.u8 l "x" ~off:0 in
      Pstruct.seal l ~size:8;
      Pstruct.u8 l "y" ~off:1);
  raises "field escapes seal" (fun () ->
      let l = Pstruct.layout "test.escape" in
      let _ = Pstruct.i64 l "x" ~off:4 in
      Pstruct.seal l ~size:8);
  raises "bad array stride" (fun () ->
      let l = Pstruct.layout "test.stride" in
      Pstruct.array l "a" ~off:0 ~stride:2 ~count:4 Pstruct.U32);
  raises "array index out of range" (fun () ->
      let dev, _ = mk () in
      Pstruct.get_elt dev ~base:0 Probe.arr 4)

let test_commit_is_flush () =
  (* With check mode off, commit is plain flush: the span survives a
     crash, an unflushed neighbour does not. *)
  let dev, clock = mk () in
  let base = 4096 in
  Pstruct.set dev ~base Probe.d 7L;
  Pstruct.commit dev clock Pmem.Stats.Meta (Pstruct.span ~base Probe.d);
  Pstruct.set dev ~base:(base + 128) Probe.d 9L;
  Pmem.Device.crash dev;
  Alcotest.(check int64) "committed survives" 7L (Pstruct.get dev ~base Probe.d);
  Alcotest.(check int64) "uncommitted lost" 0L (Pstruct.get dev ~base:(base + 128) Probe.d)

let test_reordered_commit_flagged () =
  (* The protocol bug shape the checker exists for: commit B declaring a
     dependency on A while A is still dirty. *)
  let dev, clock = mk ~check:true () in
  let wal = Pstruct.span_of ~addr:4096 ~len:16 in
  let bit = Pstruct.span_of ~addr:8192 ~len:1 in
  Pmem.Device.write_int64 dev wal.Pstruct.addr 1L;
  (* deliberately not flushed *)
  Pmem.Device.write_u8 dev bit.Pstruct.addr 1;
  Pstruct.commit ~deps:[ ("wal:entry", wal) ] dev clock Pmem.Stats.Meta bit;
  Alcotest.(check int) "violation recorded" 1 (Pmem.Device.ordering_violation_count dev);
  (match Pmem.Device.ordering_violations dev with
  | [ v ] ->
      Alcotest.(check string) "note" "wal:entry" v.Pmem.Device.v_dep_note;
      Alcotest.(check int) "dep addr" 4096 v.Pmem.Device.v_dep_addr;
      Alcotest.(check int) "dirty line" (4096 / 64) v.Pmem.Device.v_dirty_line
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  (* The correct order on fresh spans is silent. *)
  let wal2 = Pstruct.span_of ~addr:4160 ~len:16 in
  let bit2 = Pstruct.span_of ~addr:8256 ~len:1 in
  Pmem.Device.write_int64 dev wal2.Pstruct.addr 1L;
  Pstruct.flush_span dev clock Pmem.Stats.Wal wal2;
  Pmem.Device.write_u8 dev bit2.Pstruct.addr 1;
  Pstruct.commit ~deps:[ ("wal:entry", wal2) ] dev clock Pmem.Stats.Meta bit2;
  Alcotest.(check int) "no new violation" 1 (Pmem.Device.ordering_violation_count dev)

let test_broken_wal_caught_without_crash () =
  (* Re-introducing the PR 2 WAL ordering bug (entry not flushed before
     the bitmap bit / published pointer) is flagged by the checker on a
     plain run: no crash has to land in the vulnerable window. *)
  let config =
    {
      Nvalloc_core.Config.log_default with
      Nvalloc_core.Config.arenas = 1;
      root_slots = 64;
      booklog_chunks = 128;
      wal_entries = 1024;
    }
  in
  let dev = Pmem.Device.create ~size:(64 * 1024 * 1024) () in
  Pmem.Device.set_check_mode dev true;
  let clock = Sim.Clock.create () in
  let t = Nvalloc_core.Nvalloc.create ~config ~mutation:Nvalloc_core.Mutation.Wal_flush dev clock in
  let th = Nvalloc_core.Nvalloc.thread t clock in
  ignore (Nvalloc_core.Nvalloc.malloc_to t th ~size:64 ~dest:(Nvalloc_core.Nvalloc.root_addr t 0));
  Alcotest.(check bool)
    "skip-flushed WAL entries flagged" true
    (Pmem.Device.ordering_violation_count dev > 0);
  (match Pmem.Device.ordering_violations dev with
  | v :: _ ->
      Alcotest.(check bool)
        "dependency is a WAL span" true
        (String.length v.Pmem.Device.v_dep_note >= 4
        && String.sub v.Pmem.Device.v_dep_note 0 4 = "wal:")
  | [] -> Alcotest.fail "no violation recorded");
  (* The same run with flushes intact is silent. *)
  let dev2 = Pmem.Device.create ~size:(64 * 1024 * 1024) () in
  Pmem.Device.set_check_mode dev2 true;
  let t2 = Nvalloc_core.Nvalloc.create ~config dev2 clock in
  let th2 = Nvalloc_core.Nvalloc.thread t2 clock in
  ignore
    (Nvalloc_core.Nvalloc.malloc_to t2 th2 ~size:64 ~dest:(Nvalloc_core.Nvalloc.root_addr t2 0));
  Nvalloc_core.Nvalloc.free_from t2 th2 ~dest:(Nvalloc_core.Nvalloc.root_addr t2 0);
  Alcotest.(check int) "clean run silent" 0 (Pmem.Device.ordering_violation_count dev2)

let test_pp () =
  let dev, _ = mk () in
  let base = 4096 in
  Pstruct.set dev ~base Probe.b 0xBEEF;
  Pstruct.set_elt dev ~base Probe.arr 0 7;
  let s = Format.asprintf "%a" (Pstruct.pp dev ~base) Probe.l in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "pp mentions %S" needle) true (contains needle))
    [ "test.probe"; "0xbeef"; "arr" ]

let suite =
  [
    Alcotest.test_case "typed roundtrips" `Quick test_roundtrip;
    Alcotest.test_case "span arithmetic" `Quick test_spans;
    Alcotest.test_case "declaration-time rejection" `Quick test_declaration_rejection;
    Alcotest.test_case "commit is a flush" `Quick test_commit_is_flush;
    Alcotest.test_case "reordered commit flagged" `Quick test_reordered_commit_flagged;
    Alcotest.test_case "broken WAL caught without crash" `Quick
      test_broken_wal_caught_without_crash;
    Alcotest.test_case "pretty-printing" `Quick test_pp;
  ]
