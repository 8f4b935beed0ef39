(* Benchmark harness.

   Two parts:

   1. The paper reproduction: every table and figure of NVAlloc's
      evaluation (Tables 1-2, Figures 1-2 and 9-21), regenerated from the
      experiment registry and printed as the same rows/series the paper
      reports. These run on the simulated-latency substrate, so the
      numbers are simulated time — shapes, orderings and factors are the
      reproduction targets (see EXPERIMENTS.md).

   2. Bechamel microbenchmarks (one Test.make per core primitive,
      host-time): allocator fast paths and the substrate data structures,
      to catch real-time performance regressions of this implementation
      itself (see Bench_micro).

   Usage:
     bench/main.exe                    full paper run + microbenches
     bench/main.exe micro              microbenches only
     bench/main.exe micro --json [P]   also write the JSON baseline
                                       (default BENCH_micro.json); an
                                       existing micro_ns_per_run section
                                       (the host-ns origin) is kept
     bench/main.exe micro --check [P]  compare against a committed
                                       baseline; exit 1 on regression *)

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
  let json = opt_value "--json" "BENCH_micro.json" in
  let check = opt_value "--check" "BENCH_micro.json" in
  match check with
  | Some baseline -> exit (Bench_micro.run_check ~baseline)
  | None ->
      print_endline "NVAlloc (ASPLOS'22) reproduction — full benchmark run";
      if not micro_only then Harness.Registry.run_all ();
      (match json with
      | None -> ignore (Bench_micro.run_print () : (string * float) list)
      | Some path ->
          ignore (Bench_micro.run_print () : (string * float) list);
          Bench_micro.write_json ~path ~estimates:(fun () ->
              (* A new origin uses the per-bench median of 5 passes so one
                 pass's scheduling noise does not become the yardstick. *)
              print_endline "measuring the host-ns origin (median of 5 passes)...";
              Bench_micro.median_estimates ~rounds:5 ()))
