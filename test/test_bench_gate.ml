(* The exact micro-benchmark gate (Bench_micro.exact_check) against the
   committed BENCH_micro.json: fresh minor words and simulated makespans
   pass it, and a baseline tampered in either exact section fails it. *)

(* [json] with entry [name] of [section] moved by [delta]. *)
let tamper section name delta json =
  let open Telemetry.Json in
  let shift (k, v) = match v with Num x when k = name -> (k, Num (x +. delta)) | _ -> (k, v) in
  let section_shift (k, v) =
    match v with Obj entries when k = section -> (k, Obj (List.map shift entries)) | _ -> (k, v)
  in
  match json with Obj fields -> Obj (List.map section_shift fields) | j -> j

let test_gate () =
  let base =
    match Bench_micro.read_baseline "../BENCH_micro.json" with
    | Ok json -> json
    | Error e -> Alcotest.fail e
  in
  let words = Bench_micro.minor_words_per_run () in
  let makespans = Bench_micro.makespan_probes () in
  let failures json =
    List.filter_map
      (fun (failed, line) -> if failed then Some line else None)
      (Bench_micro.exact_check json ~words ~makespans)
  in
  Alcotest.(check (list string)) "the committed baseline passes" [] (failures base);
  let must_fail what json =
    Alcotest.(check bool) (what ^ " fails the gate") true (failures json <> [])
  in
  let makespan = "Threadtest/NVAlloc-LOG/4t" in
  must_fail "makespan +5 ns" (tamper "simulated_makespan_ns" makespan 5.0 base);
  must_fail "makespan -5 ns" (tamper "simulated_makespan_ns" makespan (-5.0) base);
  must_fail "words -0.001"
    (tamper "minor_words_per_run" "primitives/NVAlloc-LOG large pair (64KB)" (-0.001) base)

let suite = [ Alcotest.test_case "words and makespans checked exactly" `Quick test_gate ]
