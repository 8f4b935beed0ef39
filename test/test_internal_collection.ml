(* NVAlloc-IC, the internal-collection variant (the paper's future-work
   model, section 4.1): no WAL for small objects; the persistent bitmap
   enumerates exactly the user's objects, and post-crash leak resolution
   is the application's job via iter_allocated — PMDK's POBJ_FIRST/NEXT
   idiom. *)

open Nvalloc_core

let mib = 1024 * 1024

let config =
  {
    Config.ic_default with
    Config.arenas = 2;
    root_slots = 4096;
    booklog_chunks = 128;
    wal_entries = 1024;
    tcache_capacity = 8;
  }

let mk () =
  let dev = Pmem.Device.create ~size:(128 * mib) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config dev clock in
  let th = Nvalloc.thread t clock in
  (dev, clock, t, th)

let enumerate t =
  let acc = ref [] in
  Nvalloc.iter_allocated t (fun ~addr ~size -> acc := (addr, size) :: !acc);
  List.sort compare !acc

let test_enumeration_exact () =
  let _, _, t, th = mk () in
  (* Churn through the tcache, keep a known live set. *)
  let live = Hashtbl.create 64 in
  for i = 0 to 499 do
    let dest = Nvalloc.root_addr t (i mod 64) in
    if Nvalloc.read_ptr t ~dest > 0 then begin
      Nvalloc.free_from t th ~dest;
      Hashtbl.remove live (i mod 64)
    end
    else begin
      let addr = Nvalloc.malloc_to t th ~size:64 ~dest in
      Hashtbl.replace live (i mod 64) addr
    end
  done;
  let want =
    List.sort compare (Hashtbl.fold (fun _ addr acc -> addr :: acc) live [])
  in
  let got = List.map fst (enumerate t) in
  Alcotest.(check (list int)) "enumeration = live set" want got

let test_no_wal_for_small () =
  let dev, _, t, th = mk () in
  let st = Pmem.Device.stats dev in
  Pmem.Stats.reset st;
  for i = 0 to 99 do
    ignore (Nvalloc.malloc_to t th ~size:64 ~dest:(Nvalloc.root_addr t i))
  done;
  Alcotest.(check int) "no WAL flush time" 0 (Pmem.Stats.flush_ns st Wal)

let test_crash_user_side_resolution () =
  let dev, clock, t, th = mk () in
  for i = 0 to 199 do
    ignore (Nvalloc.malloc_to t th ~size:96 ~dest:(Nvalloc.root_addr t i))
  done;
  for i = 0 to 99 do
    Nvalloc.free_from t th ~dest:(Nvalloc.root_addr t i)
  done;
  Pmem.Device.crash dev;
  let t', report = Nvalloc.recover ~config dev clock in
  Alcotest.(check bool) "no allocator-side WAL replay" true
    (report.Nvalloc.wal_entries_replayed = 0);
  (* The application resolves leaks: every enumerated object not
     referenced from a root is freed through a scratch slot. *)
  let published = Hashtbl.create 64 in
  for i = 0 to 199 do
    let v = Nvalloc.read_ptr t' ~dest:(Nvalloc.root_addr t' i) in
    if v > 0 then Hashtbl.replace published v ()
  done;
  let th' = Nvalloc.thread t' clock in
  let scratch = Nvalloc.root_addr t' 4000 in
  let freed = ref 0 in
  let orphans = ref [] in
  Nvalloc.iter_allocated t' (fun ~addr ~size:_ ->
      if not (Hashtbl.mem published addr) then orphans := addr :: !orphans);
  List.iter
    (fun addr ->
      Pmem.Device.write_int64 dev scratch (Int64.of_int addr);
      Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:scratch ~len:8;
      Nvalloc.free_from t' th' ~dest:scratch;
      incr freed)
    !orphans;
  (* After resolution, allocation state matches the published set
     exactly. *)
  Alcotest.(check int) "live = published" (Hashtbl.length published)
    (List.length (enumerate t'));
  (* Everything still works; free the survivors. *)
  for i = 100 to 199 do
    let dest = Nvalloc.root_addr t' i in
    if Nvalloc.read_ptr t' ~dest > 0 then Nvalloc.free_from t' th' ~dest
  done;
  Alcotest.(check (list (pair int int))) "all freed" [] (enumerate t')

let test_crash_sweep_ic () =
  List.iter
    (fun crash_after ->
      let dev = Pmem.Device.create ~size:(128 * mib) () in
      let clock = Sim.Clock.create () in
      let t = Nvalloc.create ~config dev clock in
      let th = Nvalloc.thread t clock in
      Pmem.Device.schedule_crash_after dev crash_after;
      (try
         for i = 0 to 399 do
           let dest = Nvalloc.root_addr t (i mod 128) in
           if Nvalloc.read_ptr t ~dest > 0 then Nvalloc.free_from t th ~dest
           else ignore (Nvalloc.malloc_to t th ~size:(32 + (8 * (i mod 12))) ~dest)
         done;
         Pmem.Device.cancel_scheduled_crash dev;
         Pmem.Device.crash dev
       with Pmem.Device.Injected_crash -> ());
      (* The oracle performs the IC contract itself: it frees published
         roots, then resolves every remaining enumerated orphan through a
         scratch slot before demanding leak-freedom. *)
      match Fault.Oracle.check ~config dev clock with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "crash@%d: %s" crash_after e)
    [ 2; 5; 11; 23; 47; 95; 190; 380; 760 ]

let suite =
  [
    Alcotest.test_case "enumeration is exact" `Quick test_enumeration_exact;
    Alcotest.test_case "no WAL for small objects" `Quick test_no_wal_for_small;
    Alcotest.test_case "crash: user-side leak resolution" `Quick test_crash_user_side_resolution;
    Alcotest.test_case "crash sweep (IC)" `Slow test_crash_sweep_ic;
  ]
