(* Domain-parallel seed sweeps: pool semantics (index-ordered results,
   exception propagation), pure RNG splitting, and the seed-sweep
   determinism guarantee — identical aggregated verdicts for any domain
   count. *)

let test_pool_result_order () =
  let pool = Par.Pool.create ~domains:4 in
  let results = Par.Pool.run pool ~n:23 (fun i -> i * i) in
  Alcotest.(check (array int))
    "results land by index, not completion order"
    (Array.init 23 (fun i -> i * i))
    results;
  (* Degenerate widths still cover every index. *)
  let seq = Par.Pool.run (Par.Pool.create ~domains:1) ~n:5 (fun i -> i + 1) in
  Alcotest.(check (array int)) "one domain runs inline" [| 1; 2; 3; 4; 5 |] seq;
  Alcotest.(check (array int)) "zero tasks" [||] (Par.Pool.run pool ~n:0 (fun i -> i))

exception Task_failed of int

let test_pool_error_propagation () =
  let pool = Par.Pool.create ~domains:3 in
  (* The lowest failing index wins, and the other tasks still ran. *)
  let ran = Array.make 12 false in
  (match
     Par.Pool.run pool ~n:12 (fun i ->
         ran.(i) <- true;
         if i = 7 || i = 4 then raise (Task_failed i))
   with
  | exception Task_failed i -> Alcotest.(check int) "lowest failing index" 4 i
  | _ -> Alcotest.fail "expected Task_failed");
  Alcotest.(check bool) "non-failing tasks completed" true (Array.for_all Fun.id ran);
  match Par.Pool.create ~domains:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "domains=0 accepted"

let test_rng_split_pure_and_deterministic () =
  let root = Sim.Rng.create 42 in
  let a = Array.init 8 (fun i -> Sim.Rng.int (Sim.Rng.split root i) 1_000_000) in
  (* Splitting never advances the root, and child i is a function of
     (seed, i) alone — so re-splitting, in any order, reproduces the
     same children. *)
  let b = Array.init 8 (fun i -> Sim.Rng.int (Sim.Rng.split root (7 - i)) 1_000_000) in
  Array.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "child %d" i) v b.(7 - i)) a;
  let after = Sim.Rng.int root 1_000_000 in
  let fresh = Sim.Rng.int (Sim.Rng.create 42) 1_000_000 in
  Alcotest.(check int) "root stream unperturbed by splitting" fresh after;
  let distinct = List.sort_uniq compare (Array.to_list a) in
  Alcotest.(check int) "children are distinct streams" 8 (List.length distinct)

(* Seed-sweep determinism. The aggregated verdict — passes and the
   (shrunk) counterexample alike — must be identical for any domain
   count, on both the clean path and a failing (mutated) one. *)
let verdict_of = function
  | None -> "ok"
  | Some { Check.Runner.original; shrunk; reason } ->
      Printf.sprintf "cex original=%s shrunk=%s reason=%s"
        (Check.History.to_string original)
        (Check.History.to_string shrunk)
        reason

let test_check_sweep_determinism () =
  let sweep ?mutation domains =
    verdict_of
      (Par.Sweep.check_sweep ?mutation
         (Par.Pool.create ~domains)
         ~alloc:"NVAlloc-LOG" ~seed:5 ~runs:6 ~ops:300 ~threads:2 ())
  in
  let clean1 = sweep 1 in
  Alcotest.(check string) "clean sweep passes" "ok" clean1;
  Alcotest.(check string) "clean verdict, 1 vs 3 domains" clean1 (sweep 3);
  Alcotest.(check string) "clean verdict, 1 vs 4 domains" clean1 (sweep 4);
  let broken1 = sweep ~mutation:Nvalloc_core.Mutation.Header 1 in
  Alcotest.(check bool)
    "mutated sweep fails" true
    (String.length broken1 > 3 && String.sub broken1 0 3 = "cex");
  Alcotest.(check string) "counterexample, 1 vs 3 domains" broken1
    (sweep ~mutation:Nvalloc_core.Mutation.Header 3)

let fuzz_verdict_of = function
  | None -> "ok"
  | Some { Fault.Fuzz.original; shrunk; reason } ->
      Printf.sprintf "cex original=%s shrunk=%s reason=%s"
        (Fault.Plan.to_string original) (Fault.Plan.to_string shrunk) reason

let test_fuzz_sweep_determinism () =
  let sweep ?mutation domains =
    fuzz_verdict_of
      (Par.Sweep.fuzz_sweep ?mutation (Par.Pool.create ~domains) ~seed:9 ~runs:4 ())
  in
  let clean1 = sweep 1 in
  Alcotest.(check string) "clean fuzz sweep passes" "ok" clean1;
  Alcotest.(check string) "clean verdict, 1 vs 3 domains" clean1 (sweep 3);
  let broken1 = sweep ~mutation:Nvalloc_core.Mutation.Wal_flush 1 in
  Alcotest.(check bool)
    "mutated fuzz sweep fails" true
    (String.length broken1 > 3 && String.sub broken1 0 3 = "cex");
  Alcotest.(check string) "counterexample, 1 vs 3 domains" broken1
    (sweep ~mutation:Nvalloc_core.Mutation.Wal_flush 3)

let suite =
  [
    Alcotest.test_case "pool returns results by index" `Quick test_pool_result_order;
    Alcotest.test_case "pool re-raises the lowest failing index" `Quick
      test_pool_error_propagation;
    Alcotest.test_case "rng split is pure and order-independent" `Quick
      test_rng_split_pure_and_deterministic;
    Alcotest.test_case "check-sweep verdicts identical for any domain count" `Slow
      test_check_sweep_determinism;
    Alcotest.test_case "fuzz-sweep verdicts identical for any domain count" `Slow
      test_fuzz_sweep_determinism;
  ]
