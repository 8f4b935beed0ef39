(* Media-fault resilience: the device's poisoned-line and at-rest bit-rot
   model, the Guard checksum+replica repair protocol, demand repair and
   quarantine-based degradation in the allocator, recovery hardening and
   its idempotence under double faults and crashes landing inside a
   scrub, plus the stats-schema and crash-plan surface the faults ride
   on. *)

open Nvalloc_core

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let cl = Pmem.Cacheline.size

(* --- device model -------------------------------------------------------- *)

let test_device_poison () =
  let dev = Pmem.Device.create ~size:(1 lsl 20) () in
  Pmem.Device.write_int64 dev 256 0xABCDL;
  Pmem.Device.poison dev ~line:4;
  Alcotest.(check bool) "is_poisoned" true (Pmem.Device.is_poisoned dev ~line:4);
  Alcotest.(check int) "poisoned_count" 1 (Pmem.Device.poisoned_count dev);
  Alcotest.(check bool) "poisoned_within spanning read" true
    (Pmem.Device.poisoned_within dev ~addr:250 ~len:16);
  (* Reads of the line raise the typed error, naming the line; writes are
     not checked (stores to failed media are absorbed, as on real PM). *)
  (match Pmem.Device.read_int64 dev 256 with
  | exception Pmem.Device.Media_error { line; _ } ->
      Alcotest.(check int) "error names the line" 4 line
  | _ -> Alcotest.fail "read of a poisoned line succeeded");
  Pmem.Device.write_int64 dev 260 1L;
  Alcotest.(check bool) "poison hit counted" true
    (Pmem.Stats.poison_hits (Pmem.Device.stats dev) >= 1);
  (* The line's content is deterministically scrambled: a second device
     poisoned at the same line holds the same garbage. *)
  let dev' = Pmem.Device.create ~size:(1 lsl 20) () in
  Pmem.Device.poison dev' ~line:4;
  Pmem.Device.clear_poison dev ~line:4;
  Pmem.Device.clear_poison dev' ~line:4;
  (* Compare past the 8 bytes the unchecked write above replaced. *)
  Alcotest.(check bool) "scramble is seed-deterministic" true
    (Pmem.Device.read_int64 dev 272 = Pmem.Device.read_int64 dev' 272);
  Alcotest.(check bool) "scramble destroyed the payload" true
    (Pmem.Device.read_int64 dev 256 <> 0xABCDL)

let test_device_bitrot_persisted_only () =
  let dev = Pmem.Device.create ~size:(1 lsl 20) () in
  let clock = Sim.Clock.create () in
  Pmem.Device.write_int64 dev 128 0x5AL;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:128 ~len:8;
  Pmem.Device.corrupt_bit dev ~addr:128 ~bit:0;
  (* Rot lives in the media image only: the cached copy still reads
     clean, and only the crash promotion exposes the flip. *)
  Alcotest.(check int64) "cached read unaffected" 0x5AL (Pmem.Device.read_int64 dev 128);
  Alcotest.(check int) "flip counted" 1 (Pmem.Stats.bitrot_flips (Pmem.Device.stats dev));
  Pmem.Device.crash dev;
  Alcotest.(check int64) "crash promotes the rotten byte" 0x5BL
    (Pmem.Device.read_int64 dev 128)

let test_device_scrub_lines () =
  let dev = Pmem.Device.create ~size:(1 lsl 20) () in
  let clock = Sim.Clock.create () in
  Pmem.Device.write_int64 dev 0 7L;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:8;
  Pmem.Device.corrupt_bit dev ~addr:0 ~bit:3;
  (* A dirty line is skipped (its writeback overwrites the media anyway)
     and a poisoned one is the repair path's job, not the scrubber's. *)
  Pmem.Device.write_int64 dev 64 9L;
  Pmem.Device.poison dev ~line:2;
  Alcotest.(check int) "one drifted line rewritten" 1
    (Pmem.Device.scrub_lines dev ~addr:0 ~len:(3 * cl));
  Pmem.Device.crash dev;
  Alcotest.(check int64) "scrubbed line survives the crash intact" 7L
    (Pmem.Device.read_int64 dev 0)

(* --- guard protocol ------------------------------------------------------ *)

let guard_fixture () =
  let dev = Pmem.Device.create ~size:(1 lsl 20) () in
  let clock = Sim.Clock.create () in
  let r =
    { Guard.primary = 0; len = 14; p_ck = 14; replica = 64; r_ck = 78; cat = Pmem.Stats.Meta }
  in
  for i = 0 to 13 do
    Pmem.Device.write_u8 dev i (i + 1)
  done;
  Guard.refresh dev r;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:0 ~len:16;
  Guard.write_replica dev clock r;
  (dev, clock, r)

let guarded_bytes dev (r : Guard.record) =
  List.init r.Guard.len (fun i -> Pmem.Device.read_u8 dev (r.Guard.primary + i))

let test_guard_repair_poisoned_primary () =
  let dev, clock, r = guard_fixture () in
  let original = guarded_bytes dev r in
  Alcotest.(check bool) "clean after setup" true (Guard.verify_repair dev clock r = Guard.Clean);
  Pmem.Device.poison dev ~line:0;
  Alcotest.(check bool) "repaired from replica" true
    (Guard.verify_repair dev clock r = Guard.Repaired);
  Alcotest.(check bool) "poison cleared" false (Pmem.Device.is_poisoned dev ~line:0);
  Alcotest.(check (list int)) "bytes restored" original (guarded_bytes dev r);
  Alcotest.(check bool) "second verify is clean" true
    (Guard.verify_repair dev clock r = Guard.Clean)

let test_guard_repair_poisoned_replica () =
  let dev, clock, r = guard_fixture () in
  Pmem.Device.poison dev ~line:1;
  Alcotest.(check bool) "replica rebuilt from primary" true
    (Guard.verify_repair dev clock r = Guard.Repaired);
  Alcotest.(check bool) "replica verifies" true (Guard.replica_ok dev r)

let test_guard_double_fault_lost () =
  let dev, clock, r = guard_fixture () in
  Pmem.Device.poison dev ~line:0;
  Pmem.Device.poison dev ~line:1;
  Alcotest.(check bool) "both copies damaged is Lost" true
    (Guard.verify_repair dev clock r = Guard.Lost)

let test_guard_bless_is_the_bug () =
  let dev, clock, r = guard_fixture () in
  let original = guarded_bytes dev r in
  Pmem.Device.poison dev ~line:0;
  Guard.bless dev clock r;
  (* The mutation accepts the scrambled primary as truth: checksum valid,
     poison gone, bytes garbage, and the replica now agrees with it. *)
  Alcotest.(check bool) "checksum blessed" true (Guard.primary_ok dev r);
  Alcotest.(check bool) "bytes are garbage" true (guarded_bytes dev r <> original);
  Alcotest.(check bool) "garbage propagated to the replica" true (Guard.replica_ok dev r)

(* --- config surface (media knobs) ---------------------------------------- *)

let test_media_config_validation () =
  let rejects name field cfg =
    match Config.validate cfg with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names the field (%s)" name msg)
          true (contains msg field)
    | () -> Alcotest.failf "%s: accepted" name
  in
  let d = { Config.log_default with Config.media_replication = true } in
  Config.validate d;
  Config.validate { d with Config.media_scrub = true };
  rejects "zero repair attempts" "media_max_repair" { d with Config.media_max_repair = 0 };
  rejects "zero scrub interval" "media_scrub_interval_ns"
    { d with Config.media_scrub = true; media_scrub_interval_ns = 0 };
  rejects "negative scrub interval" "media_scrub_interval_ns"
    { d with Config.media_scrub = true; media_scrub_interval_ns = -1 };
  rejects "scrub without replication" "media_scrub"
    { Config.log_default with Config.media_scrub = true };
  rejects "replication without booklog" "media_replication"
    { d with Config.log_bookkeeping = false };
  (* Replication needs room for the guard areas: a device that fits the
     bare layout but not the replicas is rejected up front. *)
  (match Config.validate ~dev_size:4096 d with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "small device names replication" true
        (contains msg "media_replication")
  | () -> Alcotest.fail "tiny device accepted with replication");
  Config.validate ~dev_size:(64 * 1024 * 1024) d

(* --- crash-plan surface --------------------------------------------------- *)

let test_plan_media_roundtrip () =
  let media = "v=log seed=7 ops=100 crash=50 torn=line tseed=0 rcrash=- poison=3 pseed=11 rot=2 rseed=12 scrub=1" in
  (match Fault.Plan.of_string media with
  | Error e -> Alcotest.failf "media plan rejected: %s" e
  | Ok p ->
      Alcotest.(check bool) "media_active" true (Fault.Plan.media_active p);
      Alcotest.(check string) "roundtrip" media (Fault.Plan.to_string p));
  (* Legacy plans parse with media off and render exactly as before. *)
  let legacy = "v=gc seed=1 ops=40 crash=1 torn=line tseed=0 rcrash=-" in
  match Fault.Plan.of_string legacy with
  | Error e -> Alcotest.failf "legacy plan rejected: %s" e
  | Ok p ->
      Alcotest.(check bool) "legacy not media_active" false (Fault.Plan.media_active p);
      Alcotest.(check int) "poison defaults to 0" 0 p.Fault.Plan.poison;
      Alcotest.(check bool) "scrub defaults to off" false p.Fault.Plan.scrub;
      Alcotest.(check string) "legacy rendering unchanged" legacy (Fault.Plan.to_string p)

let prop_media_plans_roundtrip =
  let open QCheck in
  Test.make ~name:"sampled media plans print/parse bit-for-bit" ~count:200
    (make Gen.(int_bound 1_000_000))
    (fun seed ->
      let p = Fault.Plan.sample ~media:true (Sim.Rng.create seed) in
      Fault.Plan.media_active p
      && p.Fault.Plan.variant = Fault.Plan.Log
      && Fault.Plan.of_string (Fault.Plan.to_string p) = Ok p)

(* --- stats schema: only nvalloc/stats/v4 parses ------------------------- *)

let test_stats_only_v4 () =
  let doc schema extra =
    Printf.sprintf
      {|{"schema":"%s","trace_limit":8,"flushes":7,"reflushes":1,
         "sequential_flushes":4,"random_flushes":3,"reflush_ratio":0.14,
         "flush_ns":{"meta":100,"wal":200,"log":0,"data":300},
         "fence_ns":20,"read_ns":50,"search_ns":75,"other_ns":0%s,
         "trace":[]}|}
      schema extra
  in
  let batching =
    {|,"fences_saved":3,"flushes_coalesced":1,"group_commits":1,
      "group_commit_entries":5,"group_commit_size":5|}
  in
  let media =
    {|,"poison_hits":2,"media_repairs":4,"media_quarantines":1,
      "bitrot_flips":6,"scrub_passes":3|}
  in
  (* A v3 document carrying every v3 counter is still an unknown schema. *)
  (match Pmem.Stats.of_json_string (doc "nvalloc/stats/v3" (batching ^ media)) with
  | Error e ->
      Alcotest.(check string) "v3 rejected by schema"
        "Stats.of_json: unknown schema \"nvalloc/stats/v3\"" e
  | Ok _ -> Alcotest.fail "v3 document accepted");
  (* A v4 document missing the metadata-layout counters is truncated. *)
  (match Pmem.Stats.of_json_string (doc "nvalloc/stats/v4" (batching ^ media)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "v4 document without metadata-layout counters accepted");
  let layout =
    {|,"extents_coalesced":9,"extent_tree_lookups":120,"header_flush_lines":33|}
  in
  match Pmem.Stats.of_json_string (doc "nvalloc/stats/v4" (batching ^ media ^ layout)) with
  | Error e -> Alcotest.fail ("complete v4 document rejected: " ^ e)
  | Ok st ->
      Alcotest.(check int) "v4: extents_coalesced load" 9 (Pmem.Stats.extents_coalesced st);
      Alcotest.(check int) "v4: extent_tree_lookups load" 120
        (Pmem.Stats.extent_tree_lookups st);
      Alcotest.(check int) "v4: header_flush_lines load" 33 (Pmem.Stats.header_flush_lines st)

(* --- allocator: demand repair, quarantine, degradation -------------------- *)

let media_config =
  { (Fault.Plan.config Fault.Plan.Log) with Config.media_replication = true }

let mk_media () =
  let dev = Pmem.Device.create ~size:(64 * 1024 * 1024) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config:media_config dev clock in
  let th = Nvalloc.thread t clock in
  (dev, clock, t, th)

(* Publish [n] small blocks at roots [0, n). *)
let publish_n t th n =
  Array.init n (fun i ->
      let dest = Nvalloc.root_addr t i in
      let addr = Nvalloc.malloc_to t th ~size:48 ~dest in
      (dest, addr))

let test_demand_repair_zero_loss () =
  let dev, clock, t, th = mk_media () in
  let published = publish_n t th 96 in
  (* Rot before poison — the injectors partner-exclude against faults
     already present, and with only a handful of guard records the
     reverse order can leave rot no record with both copies healthy. *)
  let rotted = Nvalloc.inject_bitrot t ~seed:9 ~flips:2 in
  Alcotest.(check bool) "some bits rotted" true (rotted > 0);
  let injected = Nvalloc.seed_poison t ~seed:5 ~count:3 in
  Alcotest.(check bool) "some lines poisoned" true (injected > 0);
  (* The next operation's one-integer gate repairs every poisoned line
     before any metadata is read: nothing raises, nothing is lost. *)
  let extra = Nvalloc.malloc_to t th ~size:48 ~dest:(Nvalloc.root_addr t 100) in
  Alcotest.(check bool) "allocation proceeds" true (extra > 0);
  Alcotest.(check int) "all poison healed" 0 (Pmem.Device.poisoned_count dev);
  Alcotest.(check bool) "repairs counted" true
    (Pmem.Stats.media_repairs (Pmem.Device.stats dev) >= injected);
  Alcotest.(check int) "nothing quarantined" 0 (Nvalloc.quarantined_slabs t);
  Array.iter
    (fun (dest, addr) ->
      Alcotest.(check int) "publication intact" addr (Nvalloc.read_ptr t ~dest);
      Alcotest.(check bool) "owner still answers" true
        (Nvalloc.owner_of_addr t addr <> None))
    published;
  match Nvalloc.integrity_walk t clock with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "integrity walk after repair: %s" e

let test_runtime_quarantine_degrades () =
  let dev, clock, t, th = mk_media () in
  let published = publish_n t th 64 in
  let _, victim = published.(0) in
  let base =
    match Nvalloc.owner_of_addr t victim with
    | Some { Nvalloc.base; is_slab = true; _ } -> base
    | _ -> Alcotest.fail "victim not slab-owned"
  in
  (* Both copies of the slab header: unrepairable, must quarantine. *)
  let r = Slab.guard_record base in
  Pmem.Device.poison dev ~line:(r.Guard.primary / cl);
  Pmem.Device.poison dev ~line:(r.Guard.replica / cl);
  let before = Nvalloc.dropped_frees t in
  ignore (Nvalloc.malloc_to t th ~size:48 ~dest:(Nvalloc.root_addr t 200) : int);
  Alcotest.(check int) "slab quarantined" 1 (Nvalloc.quarantined_slabs t);
  Alcotest.(check int) "capacity withdrawn" Slab.slab_bytes (Nvalloc.quarantined_bytes t);
  Alcotest.(check bool) "quarantine counted on device" true
    (Pmem.Stats.media_quarantines (Pmem.Device.stats dev) >= 1);
  (* Owner queries keep answering for the range; frees into it are
     swallowed with only the publication retracted. *)
  List.iter
    (fun (dest, addr) ->
      (match Nvalloc.owner_of_addr t addr with
      | Some { Nvalloc.is_slab = true; _ } -> ()
      | _ -> Alcotest.fail "quarantined range lost its owner");
      Nvalloc.free_from t th ~dest;
      Alcotest.(check int) "publication retracted" 0 (Nvalloc.read_ptr t ~dest))
    (Array.to_list published
    |> List.filter (fun (_, a) -> a >= base && a < base + Slab.slab_bytes));
  Alcotest.(check bool) "swallowed frees counted" true (Nvalloc.dropped_frees t > before);
  (* Allocation continues degraded. *)
  let a = Nvalloc.malloc_to t th ~size:48 ~dest:(Nvalloc.root_addr t 201) in
  Alcotest.(check bool) "post-quarantine allocation works" true (a > 0);
  match Nvalloc.integrity_walk t clock with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "integrity walk with quarantine: %s" e

let test_recovery_quarantine_idempotent () =
  let dev, _clock, t, th = mk_media () in
  let published = publish_n t th 64 in
  let _, victim = published.(0) in
  let base =
    match Nvalloc.owner_of_addr t victim with
    | Some { Nvalloc.base; is_slab = true; _ } -> base
    | _ -> Alcotest.fail "victim not slab-owned"
  in
  let r = Slab.guard_record base in
  Pmem.Device.poison dev ~line:(r.Guard.primary / cl);
  Pmem.Device.poison dev ~line:(r.Guard.replica / cl);
  Pmem.Device.crash dev;
  let clock2 = Sim.Clock.create () in
  let t2, rep1 = Nvalloc.recover ~config:media_config dev clock2 in
  Alcotest.(check int) "slab written off at recovery" 1 rep1.Nvalloc.quarantined_slabs;
  Alcotest.(check int) "bytes withdrawn" Slab.slab_bytes rep1.Nvalloc.quarantined_bytes;
  Alcotest.(check bool) "owner answers from the quarantined range" true
    (Nvalloc.owner_of_addr t2 victim <> None);
  let th2 = Nvalloc.thread t2 clock2 in
  let a = Nvalloc.malloc_to t2 th2 ~size:48 ~dest:(Nvalloc.root_addr t2 300) in
  Alcotest.(check bool) "degraded allocation works" true (a > 0);
  (* Poison persists across crashes, so a re-recovery reaches the same
     verdict: quarantine is derived state, and recovery stays
     idempotent. *)
  Pmem.Device.crash dev;
  let clock3 = Sim.Clock.create () in
  let t3, rep2 = Nvalloc.recover ~config:media_config dev clock3 in
  Alcotest.(check int) "re-recovery re-quarantines" 1 rep2.Nvalloc.quarantined_slabs;
  Alcotest.(check bool) "owner still answers" true (Nvalloc.owner_of_addr t3 victim <> None)

let test_recovery_repairs_seeded_faults () =
  let dev, _clock, t, th = mk_media () in
  let published = publish_n t th 64 in
  let injected = Nvalloc.seed_poison t ~seed:3 ~count:5 in
  Alcotest.(check bool) "some lines poisoned" true (injected > 0);
  Pmem.Device.crash dev;
  let clock2 = Sim.Clock.create () in
  let t2, rep = Nvalloc.recover ~config:media_config dev clock2 in
  (* Partner exclusion makes every seeded fault repairable: no loss, no
     quarantine, every publication survives. *)
  Alcotest.(check int) "nothing quarantined" 0 rep.Nvalloc.quarantined_slabs;
  Alcotest.(check int) "no poison outlives recovery" 0 (Pmem.Device.poisoned_count dev);
  Array.iter
    (fun (dest, addr) ->
      Alcotest.(check int) "publication survives" addr (Nvalloc.read_ptr t2 ~dest);
      Alcotest.(check bool) "owner answers" true (Nvalloc.owner_of_addr t2 addr <> None))
    published

let test_crash_during_scrub_sweep () =
  (* Crash at every early flush point inside a scrub-with-repairs pass:
     whatever the countdown hits — a repair's persist, the replica
     mirror, nothing at all — the image must recover, and the full
     oracle (recover, free everything, re-recover) must hold. *)
  for countdown = 1 to 10 do
    let dev, clock, t, th = mk_media () in
    ignore (publish_n t th 48 : (int * int) array);
    ignore (Nvalloc.seed_poison t ~seed:(100 + countdown) ~count:4 : int);
    Pmem.Device.schedule_crash_after dev countdown;
    (try
       ignore (Nvalloc.scrub t clock : int * int);
       Pmem.Device.cancel_scheduled_crash dev;
       Pmem.Device.crash dev
     with Pmem.Device.Injected_crash -> ());
    match Fault.Oracle.check ~config:media_config dev (Sim.Clock.create ()) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "countdown %d: %s" countdown e
  done

let test_scrub_tick_maintenance () =
  let config =
    { media_config with Config.media_scrub = true; media_scrub_interval_ns = 1_000_000 }
  in
  let dev = Pmem.Device.create ~size:(64 * 1024 * 1024) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config dev clock in
  let th = Nvalloc.thread t clock in
  ignore (publish_n t th 16 : (int * int) array);
  (* Rot a guarded byte at rest: the scheduled pass rewrites it from the
     cached image before any crash can promote it. Drain the batched
     pipeline first — the scrubber (correctly) skips dirty lines, so rot
     must land on clean ones to be its to fix. *)
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  let rotted = Nvalloc.inject_bitrot t ~seed:1 ~flips:2 in
  Alcotest.(check bool) "rot applied" true (rotted > 0);
  Alcotest.(check bool) "first tick runs a pass" true (Nvalloc.scrub_tick t clock);
  Alcotest.(check bool) "second tick waits out the interval" false (Nvalloc.scrub_tick t clock);
  Alcotest.(check int) "pass counted" 1 (Pmem.Stats.scrub_passes (Pmem.Device.stats dev));
  Alcotest.(check bool) "rot rewritten" true
    (Pmem.Stats.media_repairs (Pmem.Device.stats dev) >= 1)

(* --- fuzz pipeline -------------------------------------------------------- *)

let pinned_media_plan =
  "v=log seed=67770 ops=40 crash=240 torn=line tseed=368050 rcrash=- poison=1 pseed=126106 \
   rot=2 rseed=769496 scrub=1"

let test_fuzz_mutated_scrub_caught () =
  let plan =
    match Fault.Plan.of_string pinned_media_plan with
    | Ok p -> p
    | Error e -> Alcotest.failf "pinned plan: %s" e
  in
  (match Fault.Fuzz.run_plan plan with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean scrub failed the oracle: %s" e);
  match Fault.Fuzz.run_plan ~mutation:Nvalloc_core.Mutation.Scrub plan with
  | Error e ->
      Alcotest.(check bool) "verdict names the corruption" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "broken scrub escaped the oracle"

let test_media_plans_deterministic_stats () =
  (* Same plan, two runs: the whole media pipeline — injection, demand
     repair, scrub, recovery — must leave byte-identical device stats. *)
  let plan =
    match Fault.Plan.of_string pinned_media_plan with
    | Ok p -> p
    | Error e -> Alcotest.failf "pinned plan: %s" e
  in
  let stats_of () =
    let captured = ref "" in
    (match
       Fault.Fuzz.run_plan
         ~on_device:(fun dev -> captured := Pmem.Stats.to_json_string (Pmem.Device.stats dev))
         plan
     with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "plan failed: %s" e);
    !captured
  in
  let a = stats_of () and b = stats_of () in
  Alcotest.(check bool) "stats JSON captured" true (String.length a > 0);
  Alcotest.(check string) "same-seed stats are byte-identical" a b

let test_fuzz_media_clean_sweep () =
  (* A smaller in-suite media budget; scripts/fault_media_check.sh runs
     the full sweep on both pipelines. *)
  match Fault.Fuzz.fuzz ~media:true ~seed:2 ~runs:15 () with
  | None -> ()
  | Some cex ->
      Alcotest.failf "media counterexample: %s (%s)"
        (Fault.Plan.to_string cex.Fault.Fuzz.shrunk)
        cex.Fault.Fuzz.reason

let suite =
  [
    Alcotest.test_case "device: poison semantics" `Quick test_device_poison;
    Alcotest.test_case "device: bit-rot is persisted-only" `Quick
      test_device_bitrot_persisted_only;
    Alcotest.test_case "device: scrub_lines rewrites drift" `Quick test_device_scrub_lines;
    Alcotest.test_case "guard: repair poisoned primary" `Quick
      test_guard_repair_poisoned_primary;
    Alcotest.test_case "guard: rebuild poisoned replica" `Quick
      test_guard_repair_poisoned_replica;
    Alcotest.test_case "guard: double fault is Lost" `Quick test_guard_double_fault_lost;
    Alcotest.test_case "guard: bless accepts garbage" `Quick test_guard_bless_is_the_bug;
    Alcotest.test_case "config: media knob validation" `Quick test_media_config_validation;
    Alcotest.test_case "plan: media fields roundtrip" `Quick test_plan_media_roundtrip;
    QCheck_alcotest.to_alcotest prop_media_plans_roundtrip;
    Alcotest.test_case "stats: only v4 parses" `Quick test_stats_only_v4;
    Alcotest.test_case "alloc: demand repair, zero loss" `Quick test_demand_repair_zero_loss;
    Alcotest.test_case "alloc: runtime quarantine degrades" `Quick
      test_runtime_quarantine_degrades;
    Alcotest.test_case "recovery: quarantine is idempotent" `Quick
      test_recovery_quarantine_idempotent;
    Alcotest.test_case "recovery: seeded faults repaired" `Quick
      test_recovery_repairs_seeded_faults;
    Alcotest.test_case "recovery: crash during scrub sweep" `Slow
      test_crash_during_scrub_sweep;
    Alcotest.test_case "maintenance: scrub tick" `Quick test_scrub_tick_maintenance;
    Alcotest.test_case "fuzz: broken scrub caught" `Quick test_fuzz_mutated_scrub_caught;
    Alcotest.test_case "fuzz: media stats deterministic" `Quick
      test_media_plans_deterministic_stats;
    Alcotest.test_case "fuzz: media clean sweep" `Slow test_fuzz_media_clean_sweep;
  ]
