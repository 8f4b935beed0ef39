(* Benchmark harness.

   Two parts:

   1. The paper reproduction: every table and figure of NVAlloc's
      evaluation (Tables 1-2, Figures 1-2 and 9-21), regenerated from the
      experiment registry and printed as the same rows/series the paper
      reports. These run on the simulated-latency substrate, so the
      numbers are simulated time — shapes, orderings and factors are the
      reproduction targets (see EXPERIMENTS.md).

   2. Bechamel microbenchmarks (one Test.make per core primitive,
      host-time): allocator fast paths and the substrate data structures
      (see Bench_micro).

   Usage:
     bench/main.exe                    full paper run + microbenches
     bench/main.exe micro              microbenches only
     bench/main.exe micro --check [P]  the perf gate against a baseline
                                       (default BENCH_micro.json): exit 1
                                       if minor words per run rose or a
                                       simulated makespan changed, 2 if P
                                       is unreadable; host ns/run is
                                       printed against P's origin
     bench/main.exe micro --json [P]   rewrite P's words and makespans,
                                       copying its host-ns origin; exit 2
                                       if P has none *)

let () =
  let argv = Array.to_list Sys.argv in
  let micro_only = List.mem "micro" argv in
  (* [--flag] with an optional following path (not starting with '-'). *)
  let opt_value flag default =
    let rec go = function
      | f :: rest when f = flag -> (
          match rest with
          | v :: _ when String.length v > 0 && v.[0] <> '-' -> Some v
          | _ -> Some default)
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  match (opt_value "--check" "BENCH_micro.json", opt_value "--json" "BENCH_micro.json") with
  | Some baseline, _ -> exit (Bench_micro.run_check ~baseline)
  | None, Some path -> exit (Bench_micro.write_json ~path)
  | None, None ->
      print_endline "NVAlloc (ASPLOS'22) reproduction — full benchmark run";
      if not micro_only then Harness.Registry.run_all ();
      Bench_micro.run_print ()
