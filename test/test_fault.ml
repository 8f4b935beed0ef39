(* The fault-injection subsystem: crash plans (parse/print/sample),
   the fuzzer end to end (clean allocator -> no counterexamples; broken
   WAL ordering -> caught, shrunk, replayable), and configuration
   validation. *)

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
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "create rejects invalid config" `Quick test_create_rejects_invalid;
  ]
