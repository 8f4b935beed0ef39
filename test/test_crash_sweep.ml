(* The central crash-consistency property: run a mixed workload, crash
   the device after N flushed lines — for a sweep of N covering the whole
   run — recover, and check the global invariants of {!Fault.Oracle}
   (owner-index disjointness, root reachability, leak-freedom,
   usability) for both consistency models.

   Refinements swept here on top of the plain countdown:

   - torn crashes: the line in flight persists only a word subset
     (prefix / suffix / random), the 8-byte atomicity model of ADR;
   - crash during recovery: a second countdown armed across
     [Nvalloc.recover] itself, then recovery re-run — recovery must be
     idempotent at every one of its own flushes;
   - eADR: crashes keep the CPU caches, so every crash point must be
     invariant-clean with no replay work at all;
   - in-place bookkeeping (the Figure 11 "Base" configuration): no
     bookkeeping log, so recovery finds activated extents and slabs by
     scanning each region's slot table. *)

open Nvalloc_core

let mib = 1024 * 1024

let config variant =
  let base =
    match variant with
    | `Log -> Config.log_default
    | `Gc -> Config.gc_default
    | `Log_in_place -> Config.base Config.Log_based
    | `Gc_in_place -> Config.base Config.Gc_based
  in
  {
    base with
    Config.arenas = 2;
    root_slots = 4096;
    booklog_chunks = 128;
    wal_entries = 1024;
    tcache_capacity = 8;
  }

(* The scenario mixes small sizes, a large object, frees, and enough
   churn to trigger refills, slab creation and booklog traffic. *)
let scenario ?(every = fun _ -> ()) t th n =
  for i = 0 to n - 1 do
    let dest = Nvalloc.root_addr t (i mod 512) in
    if Nvalloc.read_ptr t ~dest > 0 then Nvalloc.free_from t th ~dest
    else begin
      let size =
        match i mod 5 with
        | 0 -> 32
        | 1 -> 136
        | 2 -> 1024
        | 3 -> 48
        | _ -> 40 * 1024 (* large *)
      in
      ignore (Nvalloc.malloc_to t th ~size ~dest)
    end;
    every i
  done

let run_crash_point ?lat ?torn ?(torn_seed = 0) ?recovery_crash ?(sync = false)
    ?async_ticks variant ~crash_after =
  let cfg = { (config variant) with Config.batch = not sync } in
  (* A 64-entry ring passes the half-full threshold within a few dozen
     ops, so the explicit ticks below actually fire checkpoints
     mid-workload, putting crash points inside them. [async_ticks]
     counts the ticks that checkpointed. *)
  let cfg = if async_ticks = None then cfg else { cfg with Config.wal_entries = 64 } in
  let dev = Pmem.Device.create ?lat ~size:(128 * mib) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config:cfg dev clock in
  let th = Nvalloc.thread t clock in
  let every =
    match async_ticks with
    | Some ran ->
        fun i ->
          if i mod 50 = 49 then
            Array.iter
              (fun a -> if Arena.async_checkpoint_tick a clock then incr ran)
              (Nvalloc.arenas t)
    | None -> fun _ -> ()
  in
  Pmem.Device.schedule_crash_after ?torn ~torn_seed dev crash_after;
  (try
     scenario ~every t th 600;
     Pmem.Device.cancel_scheduled_crash dev;
     Pmem.Device.crash dev
   with Pmem.Device.Injected_crash -> ());
  (* Optionally crash a first recovery attempt partway through; the
     oracle's own recovery then runs over the half-recovered image. *)
  (match recovery_crash with
  | None -> ()
  | Some n -> (
      Pmem.Device.schedule_crash_after dev n;
      try
        ignore (Nvalloc.recover ~config:cfg dev clock);
        Pmem.Device.cancel_scheduled_crash dev;
        Pmem.Device.crash dev
      with Pmem.Device.Injected_crash -> ()));
  match Fault.Oracle.check ~config:cfg dev clock with
  | Ok _ -> ()
  | Error e -> failwith e

(* Dense at the start (metadata formation), then geometric. *)
let points = [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144; 233; 377; 610; 987; 1600; 2600 ]
let name_of = function
  | `Log -> "LOG"
  | `Gc -> "GC"
  | `Log_in_place -> "in-place LOG"
  | `Gc_in_place -> "in-place GC"

let sweep variant () =
  List.iter
    (fun n ->
      try run_crash_point variant ~crash_after:n
      with e ->
        Alcotest.failf "crash point %d (%s): %s" n (name_of variant)
          (Printexc.to_string e))
    points

let sweep_torn variant torn () =
  List.iter
    (fun n ->
      try run_crash_point variant ~torn ~torn_seed:(n * 7919) ~crash_after:n
      with e ->
        Alcotest.failf "torn crash point %d (%s): %s" n (name_of variant)
          (Printexc.to_string e))
    points

(* Crash the first recovery after [m] of its own flushes, for every
   (workload crash, recovery crash) pair in a smaller grid: recovery must
   be idempotent, i.e. a second recovery from the torn-down state finds
   the same invariants. *)
let sweep_recovery_crash variant () =
  let crash_points = [ 13; 89; 377; 987 ] in
  let recovery_points = [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89; 144 ] in
  List.iter
    (fun c ->
      List.iter
        (fun r ->
          try run_crash_point variant ~recovery_crash:r ~crash_after:c
          with e ->
            Alcotest.failf "crash %d + recovery crash %d (%s): %s" c r
              (name_of variant) (Printexc.to_string e))
        recovery_points)
    crash_points

(* Under eADR a crash persists the cache contents, so every crash point
   behaves like a clean (if abrupt) stop: the sweep must pass and the
   in-flight line logic (torn stores) must never engage. *)
let sweep_eadr variant () =
  List.iter
    (fun n ->
      try
        run_crash_point ~lat:Pmem.Latency.eadr ~torn:Pmem.Device.Torn_random
          ~torn_seed:n variant ~crash_after:n
      with e ->
        Alcotest.failf "eADR crash point %d (%s): %s" n (name_of variant)
          (Printexc.to_string e))
    points

(* The defaults above run the batched pipeline (flush coalescing + WAL
   group commit); this sweep pins the synchronous configuration so both
   persistence modes stay under the oracle. *)
let sweep_sync variant () =
  List.iter
    (fun n ->
      try run_crash_point ~sync:true variant ~crash_after:n
      with e ->
        Alcotest.failf "sync crash point %d (%s): %s" n (name_of variant)
          (Printexc.to_string e))
    points

(* Crashes landing inside background-checkpoint work: the workload is
   interleaved with explicit [Arena.async_checkpoint_tick] polls (what
   the driver's daemon thread does) over a small ring, so many of the
   countdown points fall within a checkpoint's own flushes. *)
let sweep_async_checkpoint variant () =
  let ran = ref 0 in
  List.iter
    (fun n ->
      try run_crash_point ~async_ticks:ran variant ~crash_after:n
      with e ->
        Alcotest.failf "async-checkpoint crash point %d (%s): %s" n (name_of variant)
          (Printexc.to_string e))
    points;
  Alcotest.(check bool)
    (Printf.sprintf "ticks checkpointed (%d)" !ran)
    true (!ran > 0)

(* Recovery of an in-place heap reserves its regions too: after a crash
   at flush 987 of the sweep's scenario, new slabs never overlap a live
   extent (before the fix, [696320, +40960) was both). *)
let test_in_place_recovery_reserves_regions () =
  let cfg = config `Log_in_place in
  let dev = Pmem.Device.create ~size:(128 * mib) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config:cfg dev clock in
  let th = Nvalloc.thread t clock in
  Pmem.Device.schedule_crash_after dev 987;
  (try
     scenario t th 600;
     Alcotest.fail "the scenario finished before the crash"
   with Pmem.Device.Injected_crash -> ());
  let t, _ = Nvalloc.recover ~config:cfg dev clock in
  let th = Nvalloc.thread t clock in
  for i = 600 to 4095 do
    ignore (Nvalloc.malloc_to t th ~size:136 ~dest:(Nvalloc.root_addr t i))
  done;
  Alcotest.(check (result string string)) "owner index" (Ok "disjoint")
    (Nvalloc.check_owner_index t)

(* The perf claim behind the pipeline, asserted at sweep scale: the same
   workload issues measurably fewer fences and media flushes when
   batched, and finishes earlier on the simulated clock. [batch = false]
   turns every batching mechanism off, the maintenance daemon included,
   and so does an eADR device. *)
let test_batching_saves_fences () =
  let run sync =
    let cfg = { (config `Log) with Config.batch = not sync } in
    let dev = Pmem.Device.create ~size:(128 * mib) () in
    let clock = Sim.Clock.create () in
    let t = Nvalloc.create ~config:cfg dev clock in
    let th = Nvalloc.thread t clock in
    scenario t th 600;
    Nvalloc.exit_ t clock;
    (Pmem.Stats.get (Pmem.Device.stats dev) Flushes, Sim.Clock.now clock, dev)
  in
  let sync_flushes, sync_ns, sdev = run true in
  let batch_flushes, batch_ns, bdev = run false in
  let st = Pmem.Device.stats bdev in
  Alcotest.(check bool) "fences saved" true (Pmem.Stats.get st Fences_saved > 0);
  Alcotest.(check bool) "flushes coalesced" true (Pmem.Stats.get st Flushes_coalesced > 0);
  Alcotest.(check bool) "group commits ran" true (Pmem.Stats.get st Group_commits > 0);
  let st = Pmem.Device.stats sdev in
  Alcotest.(check int) "no fences saved unbatched" 0 (Pmem.Stats.get st Fences_saved);
  Alcotest.(check int) "no flushes coalesced unbatched" 0
    (Pmem.Stats.get st Flushes_coalesced);
  Alcotest.(check int) "no group commits unbatched" 0 (Pmem.Stats.get st Group_commits);
  let maintenance ?eadr batch =
    let config = { (config `Log) with Config.batch } in
    let inst = Alloc_api.Instance.of_nvalloc ~config ~threads:2 ~dev_size:(128 * mib) ?eadr () in
    inst.Alloc_api.Instance.maintenance <> None
  in
  Alcotest.(check bool) "batched instance has maintenance" true (maintenance true);
  Alcotest.(check bool) "no maintenance unbatched" false (maintenance false);
  Alcotest.(check bool) "no maintenance on eADR" false (maintenance ~eadr:true true);
  Alcotest.(check bool)
    (Printf.sprintf "fewer media flushes batched (%d vs %d sync)" batch_flushes
       sync_flushes)
    true
    (batch_flushes < sync_flushes);
  Alcotest.(check bool)
    (Printf.sprintf "lower simulated time batched (%.0fns vs %.0fns sync)" batch_ns
       sync_ns)
    true (batch_ns < sync_ns)

(* Batching must not cost determinism: the coalescing buffers drain in a
   canonical (ascending-line) order, so two identical runs agree on every
   counter and on the simulated clock. *)
let test_batched_determinism () =
  let run () =
    let cfg = config `Log in
    let dev = Pmem.Device.create ~size:(128 * mib) () in
    let clock = Sim.Clock.create () in
    let t = Nvalloc.create ~config:cfg dev clock in
    let th = Nvalloc.thread t clock in
    scenario t th 600;
    Nvalloc.exit_ t clock;
    let st = Pmem.Device.stats dev in
    ( Sim.Clock.now clock,
      Pmem.Stats.get st Flushes,
      Pmem.Stats.get st Fences_saved,
      Pmem.Stats.get st Flushes_coalesced,
      Pmem.Stats.get st Group_commits )
  in
  let t1, f1, s1, c1, g1 = run () in
  let t2, f2, s2, c2, g2 = run () in
  Alcotest.(check (float 0.0)) "same simulated time" t1 t2;
  Alcotest.(check int) "same media flushes" f1 f2;
  Alcotest.(check int) "same fences saved" s1 s2;
  Alcotest.(check int) "same coalesced count" c1 c2;
  Alcotest.(check int) "same group commits" g1 g2

(* Generator-driven sweep: the model checker's history generator (morph
   churn, tcache-overflow bursts, cross-thread frees, boundary sizes)
   replaces the hand-written scenario above; {!Check.Runner} arms the
   crash countdown and hands the crashed image to the same oracle. *)
let sweep_generated variant () =
  let alloc = match variant with `Log -> "NVAlloc-LOG" | `Gc -> "NVAlloc-GC" in
  List.iter
    (fun seed ->
      List.iter
        (fun crash ->
          let sc =
            { Check.History.alloc; seed; ops = 400; threads = 2; crash = Some crash; sched = None }
          in
          match Check.Runner.run sc with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" (Check.History.to_string sc) e)
        [ 5; 50; 500 ])
    [ 1; 2; 3; 4 ]

let suite =
  [
    Alcotest.test_case "crash sweep, NVAlloc-LOG" `Slow (sweep `Log);
    Alcotest.test_case "crash sweep, NVAlloc-GC" `Slow (sweep `Gc);
    Alcotest.test_case "torn prefix sweep, LOG" `Slow (sweep_torn `Log Pmem.Device.Torn_prefix);
    Alcotest.test_case "torn suffix sweep, LOG" `Slow (sweep_torn `Log Pmem.Device.Torn_suffix);
    Alcotest.test_case "torn random sweep, LOG" `Slow (sweep_torn `Log Pmem.Device.Torn_random);
    Alcotest.test_case "torn random sweep, GC" `Slow (sweep_torn `Gc Pmem.Device.Torn_random);
    Alcotest.test_case "crash during recovery, LOG" `Slow (sweep_recovery_crash `Log);
    Alcotest.test_case "crash during recovery, GC" `Slow (sweep_recovery_crash `Gc);
    Alcotest.test_case "eADR crash sweep, LOG" `Slow (sweep_eadr `Log);
    Alcotest.test_case "eADR crash sweep, GC" `Slow (sweep_eadr `Gc);
    Alcotest.test_case "generated crash sweep, LOG" `Slow (sweep_generated `Log);
    Alcotest.test_case "generated crash sweep, GC" `Slow (sweep_generated `Gc);
    Alcotest.test_case "sync crash sweep, LOG" `Slow (sweep_sync `Log);
    Alcotest.test_case "sync crash sweep, GC" `Slow (sweep_sync `Gc);
    Alcotest.test_case "async-checkpoint crash sweep, LOG" `Slow
      (sweep_async_checkpoint `Log);
    Alcotest.test_case "async-checkpoint crash sweep, GC" `Slow
      (sweep_async_checkpoint `Gc);
    Alcotest.test_case "crash sweep, in-place LOG" `Slow (sweep `Log_in_place);
    Alcotest.test_case "crash sweep, in-place GC" `Slow (sweep `Gc_in_place);
    Alcotest.test_case "sync crash sweep, in-place LOG" `Slow (sweep_sync `Log_in_place);
    Alcotest.test_case "sync crash sweep, in-place GC" `Slow (sweep_sync `Gc_in_place);
    Alcotest.test_case "torn random sweep, in-place LOG" `Slow
      (sweep_torn `Log_in_place Pmem.Device.Torn_random);
    Alcotest.test_case "torn random sweep, in-place GC" `Slow
      (sweep_torn `Gc_in_place Pmem.Device.Torn_random);
    Alcotest.test_case "crash during recovery, in-place LOG" `Slow
      (sweep_recovery_crash `Log_in_place);
    Alcotest.test_case "crash during recovery, in-place GC" `Slow
      (sweep_recovery_crash `Gc_in_place);
    Alcotest.test_case "in-place recovery reserves mapped regions" `Quick
      test_in_place_recovery_reserves_regions;
    Alcotest.test_case "batching saves fences" `Quick test_batching_saves_fences;
    Alcotest.test_case "batched run is deterministic" `Quick test_batched_determinism;
  ]
