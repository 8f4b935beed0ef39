(* The fault-injection subsystem: crash plans (parse/print/sample),
   the fuzzer end to end (clean allocator -> no counterexamples; broken
   WAL ordering -> caught, shrunk, replayable), recovery's decisions on
   pinned plans, and configuration validation. *)

open Nvalloc_core

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let test_plan_roundtrip_examples () =
  let roundtrip s =
    match Fault.Plan.of_string s with
    | Error e -> Alcotest.failf "parse %S: %s" s e
    | Ok p -> Alcotest.(check string) "roundtrip" s (Fault.Plan.to_string p)
  in
  roundtrip "v=log seed=42 ops=600 crash=55 torn=prefix tseed=7 rcrash=12";
  roundtrip "v=gc seed=1 ops=40 crash=1 torn=line tseed=0 rcrash=-";
  roundtrip "v=ic seed=999999 ops=700 crash=4200 torn=random tseed=123 rcrash=200";
  roundtrip "v=log seed=0 ops=1 crash=1 torn=suffix tseed=1 rcrash=-"

let test_plan_rejects_garbage () =
  let rejects s =
    match Fault.Plan.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  rejects "";
  rejects "v=zig seed=1 ops=10 crash=1 torn=line tseed=0 rcrash=-";
  rejects "v=log seed=1 ops=0 crash=1 torn=line tseed=0 rcrash=-";
  rejects "v=log seed=1 ops=10 crash=0 torn=line tseed=0 rcrash=-";
  rejects "v=log seed=1 ops=10 crash=1 torn=line tseed=0 rcrash=0";
  rejects "v=log seed=1 ops=10 crash=1 torn=line tseed=0 rcrash=-3";
  rejects "v=log seed=1 ops=10 crash=1 torn=sideways tseed=0 rcrash=-";
  rejects "v=log seed=1 ops=10 crash=1";
  rejects "v=log seed=x ops=10 crash=1 torn=line tseed=0 rcrash=-"

let prop_sampled_plans_roundtrip =
  let open QCheck in
  Test.make ~name:"sampled plans print/parse bit-for-bit" ~count:200
    (make Gen.(int_bound 1_000_000))
    (fun seed ->
      let p = Fault.Plan.sample (Sim.Rng.create seed) in
      Fault.Plan.of_string (Fault.Plan.to_string p) = Ok p)

let prop_shrink_candidates_simpler =
  let open QCheck in
  Test.make ~name:"shrink candidates are strictly simpler" ~count:200
    (make Gen.(int_bound 1_000_000))
    (fun seed ->
      let p = Fault.Plan.sample (Sim.Rng.create seed) in
      let weight (q : Fault.Plan.t) =
        q.Fault.Plan.ops + q.Fault.Plan.crash_after
        + (match q.Fault.Plan.torn with None -> 0 | Some _ -> 1)
        + (match q.Fault.Plan.recovery_crash with None -> 0 | Some n -> 1 + n)
      in
      List.for_all (fun q -> weight q < weight p) (Fault.Plan.shrink_candidates p))

let test_fuzz_clean () =
  (* The committed default seed: every plan must pass on the real
     allocator. (scripts/fuzz_check.sh runs the full 200-plan budget;
     keep the in-suite budget smaller.) *)
  match Fault.Fuzz.fuzz ~seed:1 ~runs:60 () with
  | None -> ()
  | Some cex ->
      Alcotest.failf "counterexample: %s (%s)"
        (Fault.Plan.to_string cex.Support.Search.shrunk)
        cex.Support.Search.reason

let test_fuzz_catches_broken_ordering () =
  (* Disable the WAL's flush-before-effect ordering: the fuzzer must
     find a failing plan, shrink it to something no bigger, and the
     shrunk plan must replay to the same verdict. *)
  match
    Fault.Fuzz.fuzz ~mutation:Nvalloc_core.Mutation.Wal_flush ~variant:Fault.Plan.Log ~seed:1
      ~runs:60 ()
  with
  | None -> Alcotest.fail "broken WAL ordering escaped the fuzzer"
  | Some { Support.Search.original; shrunk; reason } ->
      Alcotest.(check bool) "reason is non-empty" true (String.length reason > 0);
      Alcotest.(check bool) "shrunk no bigger than original" true
        (shrunk.Fault.Plan.ops <= original.Fault.Plan.ops
        && shrunk.Fault.Plan.crash_after <= original.Fault.Plan.crash_after);
      (match Fault.Fuzz.run_plan ~mutation:Nvalloc_core.Mutation.Wal_flush shrunk with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "shrunk plan no longer fails under the WAL-flush mutation");
      (* The one-line rendering is a complete repro. *)
      let reparsed =
        match Fault.Plan.of_string (Fault.Plan.to_string shrunk) with
        | Ok p -> p
        | Error e -> Alcotest.failf "shrunk plan does not reparse: %s" e
      in
      Alcotest.(check bool) "reparsed equals shrunk" true (reparsed = shrunk)

(* What recovery decided on [plan]: the oracle recovery's report line,
   and a digest of the device counters, which cover the workload, the
   crash, both recoveries and the oracle's own traffic. A passing oracle
   alone does not show that recovery released the same blocks in the
   same order. *)
let decisions ?batch plan =
  let stats = ref "" in
  let on_device dev =
    stats := Digest.to_hex (Digest.string (Pmem.Stats.to_json_string (Pmem.Device.stats dev)))
  in
  match Fault.Fuzz.run_plan ?batch ~on_device plan with
  | Error e -> Alcotest.failf "%s: %s" (Fault.Plan.to_string plan) e
  | Ok r -> (Format.asprintf "%a" Nvalloc.pp_recovery_report r, !stats)

(* Plan, report line, counter digest. In order: LOG undoing old-class
   blocks of a morphing slab; a leaked large extent; a torn WAL entry and
   a crash inside recovery; GC marking; a torn slab creation under GC;
   the IC variant; and the media plan of scripts/fault_media_check.sh. *)
let pinned_decisions =
  [
    ( "v=log seed=6750 ops=514 crash=439 torn=prefix tseed=681071 rcrash=-",
      "state=running wal_replayed=178 wal_torn_skipped=0 wal_undone=19 torn_slabs=0 \
       leaked_blocks=19 leaked_extents=0 gc_marked=0 booklog_entries=24 media_repaired=0 \
       quarantined=0 quarantined_bytes=0",
      "48ab374c54ce53b29a578303530e9bf0" );
    ( "v=log seed=740403 ops=185 crash=146 torn=line tseed=862143 rcrash=-",
      "state=running wal_replayed=58 wal_torn_skipped=0 wal_undone=11 torn_slabs=0 \
       leaked_blocks=10 leaked_extents=1 gc_marked=0 booklog_entries=5 media_repaired=0 \
       quarantined=0 quarantined_bytes=0",
      "b11f7d3040b798ea994d0c3644b0323d" );
    ( "v=log seed=917647 ops=422 crash=401 torn=random tseed=592272 rcrash=15",
      "state=recovering wal_replayed=161 wal_torn_skipped=1 wal_undone=18 torn_slabs=0 \
       leaked_blocks=18 leaked_extents=0 gc_marked=0 booklog_entries=21 media_repaired=0 \
       quarantined=0 quarantined_bytes=0",
      "d4f51d5cfb1880e24023ba163940f95b" );
    ( "v=gc seed=858307 ops=437 crash=2615 torn=line tseed=336077 rcrash=120",
      "state=running wal_replayed=0 wal_torn_skipped=0 wal_undone=0 torn_slabs=0 \
       leaked_blocks=4 leaked_extents=0 gc_marked=244 booklog_entries=52 media_repaired=0 \
       quarantined=0 quarantined_bytes=0",
      "c900816c9a4af77d8f544068e2bed050" );
    ( "v=gc seed=524170 ops=474 crash=185 torn=suffix tseed=116043 rcrash=32",
      "state=recovering wal_replayed=20 wal_torn_skipped=0 wal_undone=0 torn_slabs=1 \
       leaked_blocks=0 leaked_extents=1 gc_marked=84 booklog_entries=24 media_repaired=0 \
       quarantined=0 quarantined_bytes=0",
      "1253d6c5d0f4275b67ce9bd8a9f632d7" );
    ( "v=ic seed=768127 ops=555 crash=2300 torn=line tseed=55248 rcrash=-",
      "state=running wal_replayed=87 wal_torn_skipped=0 wal_undone=1 torn_slabs=0 \
       leaked_blocks=0 leaked_extents=0 gc_marked=0 booklog_entries=58 media_repaired=0 \
       quarantined=0 quarantined_bytes=0",
      "13408d18130f76c5de4318b0eef3e432" );
    ( "v=log seed=67770 ops=40 crash=240 torn=line tseed=368050 rcrash=- poison=1 \
       pseed=126106 rot=2 rseed=769496 scrub=1",
      "state=running wal_replayed=74 wal_torn_skipped=0 wal_undone=12 torn_slabs=0 \
       leaked_blocks=12 leaked_extents=0 gc_marked=0 booklog_entries=8 media_repaired=0 \
       quarantined=0 quarantined_bytes=0",
      "5ab5dfc72b5bf3d1654b31b5b01ae4f8" );
  ]

let test_recovery_decisions_pinned () =
  List.iter
    (fun (line, report, stats) ->
      let plan =
        match Fault.Plan.of_string line with
        | Ok p -> p
        | Error e -> Alcotest.failf "parse %S: %s" line e
      in
      let r, s = decisions plan in
      Alcotest.(check string) (line ^ ": report") report r;
      Alcotest.(check string) (line ^ ": device counters") stats s)
    pinned_decisions

(* The same two values over the first [runs] plans of [fuzz --seed S],
   folded into one digest. *)
let sampled_decisions ?batch ?media ~seed runs =
  let rng = Sim.Rng.create seed in
  let buf = Buffer.create 65536 in
  for _ = 1 to runs do
    let r, s = decisions ?batch (Fault.Plan.sample ?media rng) in
    Printf.bprintf buf "%s %s\n" r s
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_sampled_decisions_pinned () =
  Alcotest.(check string) "200 plans from seed 2" "c932d6973399e63b21c58bc5550dc2a4"
    (sampled_decisions ~seed:2 200)

(* Paths the batched plans above never take: the synchronous pipeline,
   and media plans, which repair guards and leak extents. *)
let test_sampled_decisions_pinned_sync () =
  Alcotest.(check string) "100 --no-batch plans from seed 2" "108318b747f7ba83ea5f0eb26fe42e3c"
    (sampled_decisions ~batch:false ~seed:2 100)

let test_sampled_decisions_pinned_media () =
  Alcotest.(check string) "100 media plans from seed 4" "ede1bc14034e3fe0cd919fa1d0f04434"
    (sampled_decisions ~media:true ~seed:4 100)

let test_config_validation () =
  let rejects name field cfg =
    match Config.validate cfg with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names the field (%s)" name msg)
          true (contains msg field)
    | () -> Alcotest.failf "%s: accepted" name
  in
  let d = Config.log_default in
  Config.validate d;
  Config.validate Config.gc_default;
  Config.validate Config.ic_default;
  rejects "zero arenas" "arenas" { d with Config.arenas = 0 };
  rejects "too many arenas for the 6-bit header field" "arenas" { d with Config.arenas = 65 };
  rejects "zero root slots" "root_slots" { d with Config.root_slots = 0 };
  rejects "one WAL entry" "wal_entries" { d with Config.wal_entries = 1 };
  rejects "unframed WAL size" "wal_entries" { d with Config.wal_entries = 100 };
  rejects "one booklog chunk" "booklog_chunks" { d with Config.booklog_chunks = 1 };
  rejects "zero stripes" "bit_stripes" { d with Config.bit_stripes = 0 };
  rejects "zero tcache" "tcache_capacity" { d with Config.tcache_capacity = 0 };
  rejects "SU out of range" "morph_su_threshold" { d with Config.morph_su_threshold = 1.5 };
  rejects "gc threshold zero" "booklog_slow_gc_threshold"
    { d with Config.booklog_slow_gc_threshold = 0.0 }

let test_create_rejects_invalid () =
  (* Validation runs at the API boundary, not just as a helper. *)
  let dev = Pmem.Device.create ~size:(1 lsl 22) () in
  let clock = Sim.Clock.create () in
  let bad = { Config.log_default with Config.arenas = 0 } in
  match Nvalloc.create ~config:bad dev clock with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Nvalloc.create accepted arenas = 0"

let suite =
  [
    Alcotest.test_case "plan roundtrip examples" `Quick test_plan_roundtrip_examples;
    Alcotest.test_case "plan rejects garbage" `Quick test_plan_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_sampled_plans_roundtrip;
    QCheck_alcotest.to_alcotest prop_shrink_candidates_simpler;
    Alcotest.test_case "fuzz: clean allocator passes" `Slow test_fuzz_clean;
    Alcotest.test_case "fuzz: broken ordering caught and shrunk" `Slow
      test_fuzz_catches_broken_ordering;
    Alcotest.test_case "recovery decisions pinned" `Quick test_recovery_decisions_pinned;
    Alcotest.test_case "recovery decisions pinned: 200 sampled plans" `Slow
      test_sampled_decisions_pinned;
    Alcotest.test_case "recovery decisions pinned: 100 sync plans" `Slow
      test_sampled_decisions_pinned_sync;
    Alcotest.test_case "recovery decisions pinned: 100 media plans" `Slow
      test_sampled_decisions_pinned_media;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "create rejects invalid config" `Quick test_create_rejects_invalid;
  ]
