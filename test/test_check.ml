(* The model-based checker (lib/check): reference-model unit tests,
   scenario round-trips, differential runs over every allocator, crash
   scenarios, mutation teeth (a seeded WAL ordering bug must be caught),
   determinism, and the uniform-error satellites. *)

let mib = 1024 * 1024

module M = Nvalloc_core.Mutation

(* --- reference model ------------------------------------------------------- *)

let ok_exn name = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" name e

let test_model_basics () =
  let m = Check.Model.create () in
  ok_exn "alloc" (Check.Model.on_alloc m ~tid:0 ~dest:64 ~size:32 ~addr:4096);
  Alcotest.(check int) "live count" 1 (Check.Model.live_count m);
  Alcotest.(check int) "live bytes" 32 (Check.Model.live_bytes m);
  (* Same dest twice is a model error. *)
  (match Check.Model.on_alloc m ~tid:0 ~dest:64 ~size:16 ~addr:8192 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "occupied dest accepted");
  (* Overlap with the live [4096, 4128) block, from both sides. *)
  (match Check.Model.on_alloc m ~tid:1 ~dest:128 ~size:16 ~addr:4112 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "inner overlap accepted");
  (match Check.Model.on_alloc m ~tid:1 ~dest:128 ~size:4000 ~addr:2048 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "spanning overlap accepted");
  (* Misaligned small allocation. *)
  (match Check.Model.on_alloc m ~tid:1 ~dest:128 ~size:32 ~addr:4248 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "misaligned address accepted");
  (* Adjacent block is fine. *)
  ok_exn "adjacent" (Check.Model.on_alloc m ~tid:1 ~dest:128 ~size:16 ~addr:4128);
  let a = ok_exn "free" (Check.Model.on_free m ~dest:64) in
  Alcotest.(check int) "freed addr" 4096 a.Check.Model.addr;
  (match Check.Model.on_free m ~dest:64 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double free accepted");
  Alcotest.(check int) "one left" 1 (Check.Model.live_count m);
  Alcotest.(check int) "total is cumulative" 48 (Check.Model.total_bytes m)

(* --- scenario round-trip --------------------------------------------------- *)

let test_scenario_roundtrip () =
  List.iter
    (fun sc ->
      match Check.History.of_string (Check.History.to_string sc) with
      | Ok sc' ->
          Alcotest.(check string)
            "round trip" (Check.History.to_string sc) (Check.History.to_string sc')
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    [
      { Check.History.alloc = "NVAlloc-LOG"; seed = 7; ops = 4000; threads = 4;
        crash = None; sched = None };
      { Check.History.alloc = "PMDK"; seed = 1; ops = 1; threads = 1;
        crash = Some 13; sched = None };
      { Check.History.alloc = "NVAlloc-IC"; seed = 2; ops = 9; threads = 3;
        crash = Some 4; sched = Some 77 };
    ];
  (* [sched=] is printed only when set, so lines from before seeded
     scheduling still parse, as min-clock scenarios. *)
  let legacy = "alloc=NVAlloc-LOG seed=7 ops=4000 threads=4 crash=-" in
  (match Check.History.of_string legacy with
  | Ok sc ->
      Alcotest.(check (option int)) "legacy line: no sched" None sc.Check.History.sched;
      Alcotest.(check string) "legacy line renders unchanged" legacy (Check.History.to_string sc)
  | Error e -> Alcotest.failf "legacy line rejected: %s" e);
  (match Check.History.of_string (legacy ^ " sched=-3") with
  | Ok sc -> Alcotest.(check (option int)) "sched parsed" (Some (-3)) sc.Check.History.sched
  | Error e -> Alcotest.failf "sched line rejected: %s" e);
  List.iter
    (fun line ->
      match Check.History.of_string line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad scenario %S" line)
    [
      "alloc=X seed=1 ops=0 threads=1 crash=-";
      "alloc=X seed=1 ops=10 threads=0 crash=-";
      "alloc=X seed=1 ops=10 threads=1 crash=0";
      "alloc=X seed=nope ops=10 threads=1 crash=-";
      "alloc=X ops=10 threads=1 crash=-";
      "alloc=X seed=1 ops=10 threads=1 crash=- sched=x";
      "garbage";
    ]

let test_generator_deterministic () =
  let sc =
    { Check.History.alloc = "NVAlloc-LOG"; seed = 3; ops = 1000; threads = 3;
      crash = None; sched = None }
  in
  let a = Check.History.generate sc ~large_ok:true in
  let b = Check.History.generate sc ~large_ok:true in
  Alcotest.(check bool) "identical streams" true (a = b);
  let total = Array.fold_left (fun acc ops -> acc + Array.length ops) 0 a in
  Alcotest.(check int) "exact op budget" 1000 total;
  (* large_ok:false keeps every size within the small classes. *)
  Array.iter
    (Array.iter (function
      | Check.History.Alloc { size; _ } ->
          Alcotest.(check bool) "small only" true (size <= Nvalloc_core.Size_class.max_small)
      | Check.History.Free _ -> ()))
    (Check.History.generate sc ~large_ok:false)

(* --- differential runner --------------------------------------------------- *)

let test_runner_all_allocators () =
  List.iter
    (fun alloc ->
      let sc = { Check.History.alloc; seed = 5; ops = 300; threads = 2;
        crash = None; sched = None } in
      match Check.Runner.run sc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Check.History.to_string sc) e)
    Check.Runner.allocator_names

let test_runner_crash () =
  List.iter
    (fun alloc ->
      List.iter
        (fun crash ->
          let sc = { Check.History.alloc; seed = 2; ops = 300; threads = 2;
            crash = Some crash; sched = None } in
          match Check.Runner.run sc with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" (Check.History.to_string sc) e)
        [ 3; 40; 300 ])
    [ "NVAlloc-LOG"; "NVAlloc-GC"; "NVAlloc-IC" ]

(* Mutation teeth: with the PR 2 refill ordering bug re-introduced the
   checker must find a counterexample within a few seeds — and the very
   same scenarios must pass with the bug disabled. *)
let test_mutation_teeth () =
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let failing =
    List.filter
      (fun seed ->
        let sc =
          { Check.History.alloc = "NVAlloc-LOG"; seed; ops = 1000; threads = 2;
            crash = None; sched = None }
        in
        match Check.Runner.run ~mutation:M.Wal_flush sc with Error _ -> true | Ok () -> false)
      seeds
  in
  Alcotest.(check bool) "broken WAL caught within 8 seeds" true (failing <> []);
  List.iter
    (fun seed ->
      let sc =
        { Check.History.alloc = "NVAlloc-LOG"; seed; ops = 1000; threads = 2;
          crash = None; sched = None }
      in
      match Check.Runner.run sc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "clean run failed (seed %d): %s" seed e)
    seeds

(* Second mutation: group commit "forgets" its commit record, so a crash
   discards entries whose effects already persisted. Only crashes can
   expose it, so every scenario arms a countdown. *)
let test_mutation_group_commit () =
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let scenario seed crash =
    { Check.History.alloc = "NVAlloc-LOG"; seed; ops = 1000; threads = 2;
      crash = Some crash; sched = None }
  in
  let failing =
    List.filter
      (fun seed ->
        List.exists
          (fun crash ->
            match Check.Runner.run ~mutation:M.Wal_record (scenario seed crash) with
            | Error _ -> true
            | Ok () -> false)
          [ 50; 200; 600 ])
      seeds
  in
  Alcotest.(check bool) "forgotten commit record caught within 8 seeds" true
    (failing <> []);
  (* The same crash scenarios are clean without the mutation. *)
  List.iter
    (fun seed ->
      List.iter
        (fun crash ->
          match Check.Runner.run (scenario seed crash) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "clean run failed (seed %d): %s" seed e)
        [ 50; 200; 600 ])
    seeds

(* Third mutation: the packed slab header mis-decodes its size-class
   field on every read. The deep integrity walk compares the persisted
   class against the volatile layout, so crash-free scenarios catch it. *)
let test_mutation_header () =
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let scenario seed =
    { Check.History.alloc = "NVAlloc-LOG"; seed; ops = 1000; threads = 2;
      crash = None; sched = None }
  in
  let failing =
    List.filter
      (fun seed ->
        match Check.Runner.run ~mutation:M.Header (scenario seed) with
        | Error _ -> true
        | Ok () -> false)
      seeds
  in
  Alcotest.(check bool) "packed-header mis-decode caught within 8 seeds" true (failing <> []);
  (* The same scenarios are clean without the mutation. *)
  List.iter
    (fun seed ->
      match Check.Runner.run (scenario seed) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "clean run failed (seed %d): %s" seed e)
    seeds

let test_checker_deterministic () =
  (* Same seed: identical verdict, and an identical shrunk repro line. *)
  let go () =
    Check.Runner.check ~mutation:M.Wal_flush ~alloc:"NVAlloc-LOG" ~seed:1 ~runs:8 ~ops:1000
      ~threads:2 ()
  in
  match (go (), go ()) with
  | Some a, Some b ->
      Alcotest.(check string)
        "identical shrunk repro"
        (Check.History.to_string a.Support.Search.shrunk)
        (Check.History.to_string b.Support.Search.shrunk);
      Alcotest.(check string) "identical reason" a.Support.Search.reason b.Support.Search.reason
  | None, None -> Alcotest.fail "mutation not caught (expected a counterexample)"
  | _ -> Alcotest.fail "verdict differs between identical runs"

(* --- seeded interleaving ---------------------------------------------------- *)

(* Drive one 4-thread history through the workload driver (the runner's
   occupancy rules, without its model) and return the makespan: with
   [sched] set the scheduler uses its seeded pick rule. *)
let history_makespan ~sched =
  let sc =
    { Check.History.alloc = "NVAlloc-LOG"; seed = 4; ops = 1200; threads = 4; crash = None;
      sched }
  in
  let config =
    { Nvalloc_core.Config.log_default with
      Nvalloc_core.Config.root_slots = 4 * Check.History.slots_per_thread }
  in
  let inst = Alloc_api.Instance.of_nvalloc ~config ~threads:4 ~dev_size:(64 * mib) () in
  let streams = Check.History.generate sc ~large_ok:true in
  let published dest = Pmem.Device.read_int64 inst.Alloc_api.Instance.dev dest <> 0L in
  let step_of ~tid =
    let ops = streams.(tid) and i = ref 0 in
    fun () ->
      (match ops.(!i) with
      | Check.History.Alloc { slot; size } ->
          let dest = Workloads.Driver.slot inst ~tid slot in
          if not (published dest) then ignore (inst.Alloc_api.Instance.malloc ~tid ~size ~dest)
      | Check.History.Free { owner; slot } ->
          let dest = Workloads.Driver.slot inst ~tid:owner slot in
          if published dest then inst.Alloc_api.Instance.free ~tid ~dest);
      incr i;
      !i < Array.length ops
  in
  let r =
    Workloads.Driver.run ?rng:(Option.map Sim.Rng.create sched) inst
      ~ops_of:(fun ~tid -> Array.length streams.(tid))
      ~step_of
  in
  r.Workloads.Driver.makespan_ns

let verdict_of = function
  | None -> "ok"
  | Some { Support.Search.original; shrunk; reason } ->
      Printf.sprintf "cex original=%s shrunk=%s reason=%s"
        (Check.History.to_string original)
        (Check.History.to_string shrunk)
        reason

let test_interleave_deterministic () =
  let bits f = Printf.sprintf "%h" f in
  Alcotest.(check string)
    "same sched, same makespan" (bits (history_makespan ~sched:(Some 5)))
    (bits (history_makespan ~sched:(Some 5)));
  let go () =
    verdict_of
      (Check.Runner.check ~mutation:M.Header ~interleave:true ~alloc:"NVAlloc-LOG" ~seed:1
         ~runs:4 ~ops:600 ~threads:4 ())
  in
  let v = go () in
  Alcotest.(check string) "same sched, same verdict" v (go ());
  (* The shrunk repro keeps its scheduling seed. *)
  Alcotest.(check bool)
    "shrunk repro carries sched=" true
    (let needle = " sched=" in
     let n = String.length needle in
     let rec has i = i + n <= String.length v && (String.sub v i n = needle || has (i + 1)) in
     has 0)

let test_interleave_changes_order () =
  let a = history_makespan ~sched:(Some 1) and b = history_makespan ~sched:(Some 2) in
  Alcotest.(check bool)
    (Printf.sprintf "sched 1 vs 2 makespans differ (%.0f vs %.0f)" a b)
    true (a <> b);
  Alcotest.(check bool) "seeded differs from min-clock" true
    (history_makespan ~sched:None <> a)

(* Mutation teeth under --interleave: the same seeded bugs the min-clock
   checker catches must be caught when the op order is seeded too, and
   the same scenarios must pass without them. *)
let test_interleave_mutations_caught () =
  let check ?mutation () =
    Check.Runner.check ?mutation ~interleave:true ~alloc:"NVAlloc-LOG" ~seed:1 ~runs:8
      ~ops:1000 ~threads:2 ()
  in
  Alcotest.(check string) "clean interleaved scenarios pass" "ok" (verdict_of (check ()));
  List.iter
    (fun m ->
      match check ~mutation:m () with
      | Some _ -> ()
      | None -> Alcotest.failf "%s mutation escaped --interleave" (M.to_string m))
    [ M.Header; M.Wal_flush ]

let run_interleaved ~crash alloc =
  let sc =
    { Check.History.alloc; seed = 2; ops = 400; threads = 3; crash; sched = Some 9 }
  in
  match Check.Runner.run sc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" (Check.History.to_string sc) e

let nvalloc_variants = [ "NVAlloc-LOG"; "NVAlloc-GC"; "NVAlloc-IC" ]

let test_interleave_histories () = List.iter (run_interleaved ~crash:None) nvalloc_variants

let test_interleave_crash_scenarios () =
  List.iter (run_interleaved ~crash:(Some 60)) nvalloc_variants

(* Regression: the header mutation used to be a process-global flag, so
   building one mutated instance broke every heap created after it in
   the same process. Now each heap carries its own mutation. *)
let test_mutation_stays_in_its_heap () =
  let (_ : Alloc_api.Instance.t) =
    Alloc_api.Instance.of_nvalloc ~config:Nvalloc_core.Config.log_default ~threads:1
      ~dev_size:(64 * mib) ~mutation:M.Header ()
  in
  let dev = Pmem.Device.create ~size:(64 * mib) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc_core.Nvalloc.create dev clock in
  let th = Nvalloc_core.Nvalloc.thread t clock in
  for i = 0 to 63 do
    ignore
      (Nvalloc_core.Nvalloc.malloc_to t th ~size:(64 * (1 + (i mod 4)))
         ~dest:(Nvalloc_core.Nvalloc.root_addr t i))
  done;
  match Nvalloc_core.Nvalloc.integrity_walk t clock with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh heap inherited a mutation: %s" e

(* --- uniform unpublished-free error (satellite: Instance.free) ------------- *)

let test_uniform_free_error () =
  let check_raises name (inst : Alloc_api.Instance.t) =
    let dest = Workloads.Driver.slot inst ~tid:0 0 in
    match inst.Alloc_api.Instance.free ~tid:0 ~dest with
    | () -> Alcotest.failf "%s: free of an unpublished slot succeeded" name
    | exception Invalid_argument m ->
        Alcotest.(check string)
          (name ^ ": uniform message") Nvalloc_core.Nvalloc.err_free_unpublished m
  in
  List.iter
    (fun alloc ->
      let inst =
        match alloc with
        | "NVAlloc-LOG" ->
            Alloc_api.Instance.of_nvalloc ~config:Nvalloc_core.Config.log_default ~threads:1
              ~dev_size:(64 * mib) ()
        | name ->
            let knobs =
              List.find
                (fun k -> k.Baselines.Knobs.name = name)
                Baselines.Knobs.
                  [ pmdk; nvm_malloc; pallocator; makalu; ralloc; jemalloc; tcmalloc ]
            in
            Baselines.Bengine.instance ~knobs ~threads:1 ~dev_size:(64 * mib) ()
      in
      check_raises alloc inst)
    [ "NVAlloc-LOG"; "PMDK"; "nvm_malloc"; "PAllocator"; "Makalu"; "Ralloc"; "jemalloc";
      "tcmalloc" ]

(* --- driver argument validation (satellite: Driver) ------------------------ *)

let test_driver_validation () =
  let inst =
    Alloc_api.Instance.of_nvalloc ~config:Nvalloc_core.Config.log_default ~threads:2
      ~dev_size:(64 * mib) ()
  in
  (* Thread count <= 0 is rejected up front, not an array error later. *)
  let zero = { inst with Alloc_api.Instance.threads = 0 } in
  (match Workloads.Driver.slots_per_thread zero with
  | _ -> Alcotest.fail "threads=0 accepted by slots_per_thread"
  | exception Invalid_argument _ -> ());
  (match
     Workloads.Driver.run zero ~ops_of:(fun ~tid:_ -> 1) ~step_of:(fun ~tid:_ () -> false)
   with
  | _ -> Alcotest.fail "threads=0 accepted by run"
  | exception Invalid_argument _ -> ());
  (* Oversized per-thread slot demands raise a descriptive error. *)
  let per = Workloads.Driver.slots_per_thread inst in
  (match Workloads.Driver.require_slots inst (per + 1) with
  | () -> Alcotest.fail "oversized slot demand accepted"
  | exception Invalid_argument _ -> ());
  Workloads.Driver.require_slots inst per;
  (* A workload whose parameters overflow the partition reports the same
     clear error instead of an assert failure. *)
  match
    Workloads.Threadtest.run inst
      ~params:{ Workloads.Threadtest.iterations = 1; objects = per + 1; size = 64 }
      ()
  with
  | _ -> Alcotest.fail "oversized workload accepted"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "model: basics" `Quick test_model_basics;
    Alcotest.test_case "scenario: round trip" `Quick test_scenario_roundtrip;
    Alcotest.test_case "generator: deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "runner: all allocators" `Slow test_runner_all_allocators;
    Alcotest.test_case "runner: crash scenarios" `Slow test_runner_crash;
    Alcotest.test_case "mutation teeth" `Slow test_mutation_teeth;
    Alcotest.test_case "mutation teeth: forgotten commit record" `Slow
      test_mutation_group_commit;
    Alcotest.test_case "mutation teeth: packed-header mis-decode" `Slow
      test_mutation_header;
    Alcotest.test_case "checker determinism" `Slow test_checker_deterministic;
    Alcotest.test_case "interleave: same sched, same verdict" `Slow
      test_interleave_deterministic;
    Alcotest.test_case "interleave: sched changes the op order" `Quick
      test_interleave_changes_order;
    Alcotest.test_case "interleave: mutations caught" `Slow test_interleave_mutations_caught;
    Alcotest.test_case "interleave: histories pass" `Quick test_interleave_histories;
    Alcotest.test_case "interleave: crash scenarios" `Quick test_interleave_crash_scenarios;
    Alcotest.test_case "mutation stays in its heap" `Quick test_mutation_stays_in_its_heap;
    Alcotest.test_case "uniform unpublished-free error" `Quick test_uniform_free_error;
    Alcotest.test_case "driver validation" `Quick test_driver_validation;
  ]
