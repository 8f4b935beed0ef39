(* Command-line driver: run individual paper experiments by id.

   Examples:
     nvalloc-cli list
     nvalloc-cli run fig9 fig18
     nvalloc-cli all *)

open Cmdliner

let list_cmd =
  let doc = "List the available experiments (one per paper table/figure)." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-8s %s\n" e.Harness.Registry.id e.Harness.Registry.title)
      Harness.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- telemetry capture plumbing ------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let slug name =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '-') name

(* Shared --telemetry flag: capture a timeline per allocator instance the
   command builds, then export Chrome trace JSON + histogram CSV files. *)
let telemetry_flag =
  let doc =
    "Capture a telemetry timeline for every allocator instance the command \
     builds, and write trace_NN_<allocator>.json (Chrome trace-event format, \
     openable in Perfetto) plus trace_NN_<allocator>.csv (latency-histogram \
     percentiles) into the current directory."
  in
  Arg.(value & flag & info [ "telemetry" ] ~doc)

let with_capture enabled f =
  if not enabled then f ()
  else begin
    Telemetry.request_capture ();
    Fun.protect ~finally:Telemetry.cancel_capture f;
    let sinks = Telemetry.registered () in
    Telemetry.reset_registered ();
    List.iteri
      (fun i (name, sink) ->
        let base = Printf.sprintf "trace_%02d_%s" i (slug name) in
        write_file (base ^ ".json") (Telemetry.chrome_json sink);
        write_file (base ^ ".csv") (Telemetry.hist_csv sink);
        Printf.eprintf "telemetry: %s.json %s.csv (%d events, %d dropped)\n" base base
          (Telemetry.events_recorded sink)
          (Telemetry.events_dropped sink))
      sinks
  end

(* Shared --batch/--no-batch pair: whether NVAlloc instances keep the
   batched persistence pipeline (flush coalescing, WAL group commit,
   async checkpointing) or run fully synchronous for comparison. *)
let batch_flag =
  let batch =
    Arg.info [ "batch" ]
      ~doc:"Keep the batched persistence pipeline on NVAlloc instances (default)."
  in
  let no_batch =
    Arg.info [ "no-batch" ]
      ~doc:
        "Force the synchronous persistence pipeline on NVAlloc instances: \
         no flush coalescing, no WAL group commit, no async checkpointing \
         (Config.sync). Baselines are unaffected."
  in
  Arg.(value & vflag true [ (true, batch); (false, no_batch) ])

let mutate_flag =
  let module M = Nvalloc_core.Mutation in
  let doc =
    "Demo mode: seed one protocol bug into the NVAlloc heap under test, \
     to show the gate catching it. $(b,wal-flush) skips the WAL append \
     flush (the refill WAL-before-bitmap ordering bug); $(b,wal-record) \
     makes every WAL group commit forget its commit record (meaningful \
     with a crash); $(b,scrub) makes media scrub passes bless a damaged \
     primary instead of repairing it; $(b,header) mis-decodes the packed \
     slab header's size-class field on every read; $(b,none) is the \
     correct allocator."
  in
  Arg.(
    value
    & opt (enum (List.map (fun m -> (M.to_string m, m)) M.all)) M.Off
    & info [ "mutate" ] ~docv:"NAME" ~doc)

let with_batching batch f =
  Harness.Factory.force_sync := not batch;
  Fun.protect ~finally:(fun () -> Harness.Factory.force_sync := false) f

let run_cmd =
  let doc = "Run the experiments with the given ids." in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let run telemetry batch ids =
    with_batching batch (fun () ->
        with_capture telemetry (fun () -> List.iter Harness.Registry.run_one ids))
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ telemetry_flag $ batch_flag $ ids)

let all_cmd =
  let doc = "Run every experiment (the full paper reproduction)." in
  let run telemetry batch () =
    with_batching batch (fun () -> with_capture telemetry Harness.Registry.run_all)
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ telemetry_flag $ batch_flag $ const ())

let allocator_kind name =
  match
    List.find_opt
      (fun k -> String.lowercase_ascii (Harness.Factory.name k) = String.lowercase_ascii name)
      Harness.Factory.[ Pmdk; Nvm_malloc; Pallocator; Makalu; Ralloc; Nv_log; Nv_gc; Nv_ic ]
  with
  | Some k -> k
  | None -> failwith ("unknown allocator " ^ name)

let flushes_cmd =
  (* Figure 2 as raw data: one CSV line per metadata flush, for external
     plotting of the scatter the paper shows. *)
  let doc =
    "Dump the first 1000 metadata-flush addresses of a DBMStest run as CSV \
     (seq,category,address) for the given allocator (default NVAlloc-LOG)."
  in
  let alloc =
    Arg.(value & pos 0 string "NVAlloc-LOG" & info [] ~docv:"ALLOCATOR")
  in
  let run name =
    let kind = allocator_kind name in
    let inst = Harness.Factory.make ~dev_size:(512 * 1024 * 1024) ~threads:4 kind in
    let _ =
      Workloads.Dbmstest.run inst ~params:(Harness.Sizes.dbmstest 4) ()
    in
    print_endline "seq,category,address";
    List.iteri
      (fun i (cat, addr) ->
        Printf.printf "%d,%s,%d\n" i (Pmem.Stats.cat_name cat) addr)
      (Pmem.Stats.trace (Pmem.Device.stats inst.Alloc_api.Instance.dev))
  in
  Cmd.v (Cmd.info "flushes" ~doc) Term.(const run $ alloc)

let trace_cmd =
  let doc =
    "Run one workload with telemetry enabled and print its timeline as \
     Chrome trace-event JSON (load it at https://ui.perfetto.dev). \
     Timestamps are simulated nanoseconds; the trace is byte-identical \
     across runs with the same seed. Workloads: threadtest, prodcon, \
     shbench, larson (small objects), larson-large, dbmstest."
  in
  let workload = Arg.(value & pos 0 string "larson" & info [] ~docv:"WORKLOAD") in
  let alloc =
    let doc = "Allocator to trace (see $(b,flushes) for the list)." in
    Arg.(value & opt string "NVAlloc-LOG" & info [ "allocator" ] ~docv:"ALLOCATOR" ~doc)
  in
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload RNG seed.")
  in
  let out =
    let doc = "Write the trace JSON to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH" ~doc)
  in
  let hist =
    let doc = "Also write latency-histogram percentiles as CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "hist" ] ~docv:"PATH" ~doc)
  in
  let run workload alloc threads seed out hist batch =
    with_batching batch @@ fun () ->
    let kind = allocator_kind alloc in
    Telemetry.request_capture ();
    let inst =
      Fun.protect ~finally:Telemetry.cancel_capture (fun () ->
          Harness.Factory.make ~dev_size:(512 * 1024 * 1024) ~threads kind)
    in
    let sink =
      match Telemetry.registered () with
      | [ (_, sink) ] -> sink
      | _ -> failwith "expected exactly one captured telemetry sink"
    in
    Telemetry.reset_registered ();
    let result =
      match workload with
      | "threadtest" -> Workloads.Threadtest.run inst ~params:(Harness.Sizes.threadtest threads) ()
      | "prodcon" -> Workloads.Prodcon.run inst ~params:(Harness.Sizes.prodcon threads) ()
      | "shbench" -> Workloads.Shbench.run inst ~params:(Harness.Sizes.shbench threads) ~seed ()
      | "larson" -> Workloads.Larson.run inst ~params:(Harness.Sizes.larson_small threads) ~seed ()
      | "larson-large" ->
          Workloads.Larson.run inst ~params:(Harness.Sizes.larson_large threads) ~seed ()
      | "dbmstest" -> Workloads.Dbmstest.run inst ~params:(Harness.Sizes.dbmstest threads) ~seed ()
      | w -> failwith ("unknown workload " ^ w)
    in
    Printf.eprintf "%s on %s: %d ops, %.0f simulated ns, %.2f Mops/s (%d events, %d dropped)\n"
      workload result.Workloads.Driver.allocator result.Workloads.Driver.total_ops
      result.Workloads.Driver.makespan_ns result.Workloads.Driver.mops
      (Telemetry.events_recorded sink)
      (Telemetry.events_dropped sink);
    let json = Telemetry.chrome_json sink in
    (match out with Some path -> write_file path json | None -> print_string json);
    Option.iter (fun path -> write_file path (Telemetry.hist_csv sink)) hist
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ workload $ alloc $ threads $ seed $ out $ hist $ batch_flag)

let slo_cmd =
  let doc =
    "Run one workload with blame-tree attribution and SLO monitoring \
     enabled, then report per-op latency percentiles (p50/p99/p999, merged \
     across threads), error-budget burn rates against the Config-declared \
     SLO targets, and the per-component latency attribution (fence waits, \
     flushes, WAL group commit, slab refills, extent lookups, lock waits). \
     The report is byte-identical across runs with the same seed. \
     Workloads: threadtest, prodcon, shbench, larson, larson-large, \
     dbmstest."
  in
  let workload = Arg.(value & pos 0 string "larson" & info [] ~docv:"WORKLOAD") in
  let alloc =
    let doc = "Allocator to attribute (see $(b,flushes) for the list)." in
    Arg.(value & opt string "NVAlloc-LOG" & info [ "allocator" ] ~docv:"ALLOCATOR" ~doc)
  in
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload RNG seed.")
  in
  let json =
    let doc = "Print the report as JSON (schema nvalloc/slo/v1) instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let out =
    let doc = "Write the report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH" ~doc)
  in
  let folded =
    let doc =
      "Also write the blame tree as folded stacks (flamegraph.pl collapsed \
       format, one 'path;to;leaf self-ns' line per node) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"PATH" ~doc)
  in
  let prom =
    let doc = "Also write Prometheus text exposition to $(docv)." in
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"PATH" ~doc)
  in
  let window_ns =
    let doc = "SLO window width in simulated nanoseconds." in
    Arg.(value & opt float 1_000_000.0 & info [ "window-ns" ] ~docv:"NS" ~doc)
  in
  let check =
    let doc =
      "Gate the report against the baseline JSON at $(docv) \
       (Harness.Slo_report.check); exit 1 listing every failed gate."
    in
    Arg.(value & opt (some string) None & info [ "check" ] ~docv:"BASELINE" ~doc)
  in
  let run workload alloc threads seed json out folded prom window_ns check batch =
    with_batching batch @@ fun () ->
    let kind = allocator_kind alloc in
    Telemetry.request_capture ();
    let inst =
      Fun.protect ~finally:Telemetry.cancel_capture (fun () ->
          Harness.Factory.make ~dev_size:(512 * 1024 * 1024) ~threads kind)
    in
    let sink =
      match Telemetry.registered () with
      | [ (_, sink) ] -> sink
      | _ -> failwith "expected exactly one captured telemetry sink"
    in
    Telemetry.reset_registered ();
    let attr = Telemetry.enable_attribution sink in
    Telemetry.Attr.set_slo attr ~window_ns
      ~targets:Nvalloc_core.Config.log_default.Nvalloc_core.Config.slo_targets;
    let result =
      match workload with
      | "threadtest" -> Workloads.Threadtest.run inst ~params:(Harness.Sizes.threadtest threads) ()
      | "prodcon" -> Workloads.Prodcon.run inst ~params:(Harness.Sizes.prodcon threads) ()
      | "shbench" -> Workloads.Shbench.run inst ~params:(Harness.Sizes.shbench threads) ~seed ()
      | "larson" -> Workloads.Larson.run inst ~params:(Harness.Sizes.larson_small threads) ~seed ()
      | "larson-large" ->
          Workloads.Larson.run inst ~params:(Harness.Sizes.larson_large threads) ~seed ()
      | "dbmstest" -> Workloads.Dbmstest.run inst ~params:(Harness.Sizes.dbmstest threads) ~seed ()
      | w -> failwith ("unknown workload " ^ w)
    in
    let meta =
      {
        Harness.Slo_report.workload;
        allocator = result.Workloads.Driver.allocator;
        threads;
        seed;
        batching = batch;
        makespan_ns = result.Workloads.Driver.makespan_ns;
        total_ops = result.Workloads.Driver.total_ops;
      }
    in
    let report = Harness.Slo_report.build ~meta attr in
    let rendered =
      if json then Telemetry.Json.to_string report ^ "\n"
      else Harness.Slo_report.render report
    in
    (match out with Some path -> write_file path rendered | None -> print_string rendered);
    Option.iter (fun path -> write_file path (Telemetry.Attr.folded attr)) folded;
    Option.iter (fun path -> write_file path (Telemetry.prometheus sink)) prom;
    match check with
    | None -> ()
    | Some path ->
        let contents = In_channel.with_open_bin path In_channel.input_all in
        let baseline =
          match Telemetry.Json.parse contents with
          | Ok j -> j
          | Error e -> failwith (Printf.sprintf "cannot parse baseline %s: %s" path e)
        in
        (match Harness.Slo_report.check ~baseline ~current:report with
        | Ok () -> Printf.eprintf "slo check: OK against %s\n" path
        | Error failures ->
            List.iter (fun f -> Printf.eprintf "slo check FAIL: %s\n" f) failures;
            exit 1)
  in
  Cmd.v (Cmd.info "slo" ~doc)
    Term.(
      const run $ workload $ alloc $ threads $ seed $ json $ out $ folded $ prom $ window_ns
      $ check $ batch_flag)

let stats_cmd =
  let doc =
    "Run a DBMStest probe (large objects) and a small-object Larson probe \
     with the persist-ordering checker enabled and print the device's flush \
     statistics alongside the metadata-overhead figures (metadata bytes per \
     live object, header flush lines per allocation) and the checker's \
     counters (commits checked, dependencies tracked, violations recorded)."
  in
  let alloc =
    Arg.(value & pos 0 string "NVAlloc-LOG" & info [] ~docv:"ALLOCATOR")
  in
  let json =
    let doc =
      "Print the device's flush statistics as JSON (schema nvalloc/stats/v4: \
       v3 plus the metadata-layout counters extents_coalesced, \
       extent_tree_lookups, header_flush_lines; v1-v3 documents still \
       parse, counters their schema predates default to 0)."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run name batch json =
    let kind = allocator_kind name in
    let inst =
      with_batching batch (fun () ->
          Harness.Factory.make ~dev_size:(512 * 1024 * 1024) ~threads:4 kind)
    in
    let dev = inst.Alloc_api.Instance.dev in
    Pmem.Device.set_check_mode dev true;
    (* Count allocations through a shim so the metadata-overhead figures
       below can be normalised per alloc. *)
    let allocs = ref 0 in
    let counting =
      {
        inst with
        Alloc_api.Instance.malloc =
          (fun ~tid ~size ~dest ->
            incr allocs;
            inst.Alloc_api.Instance.malloc ~tid ~size ~dest);
      }
    in
    (* DBMStest covers the large-object path; the Larson probe exercises
       slabs so the per-object metadata figures below are non-trivial
       (DBMStest's 32 KB-512 KB objects never touch a slab). *)
    let _ = Workloads.Dbmstest.run counting ~params:(Harness.Sizes.dbmstest 4) () in
    let _ = Workloads.Larson.run counting ~params:(Harness.Sizes.larson_small 4) () in
    if json then print_endline (Pmem.Stats.to_json_string (Pmem.Device.stats dev))
    else begin
      Format.printf "%a@." Pmem.Stats.pp_summary (Pmem.Device.stats dev);
      (match inst.Alloc_api.Instance.metadata_bytes with
      | None -> ()
      | Some metadata_bytes ->
          let live = ref 0 in
          Option.iter
            (fun iter -> iter (fun ~addr:_ ~size:_ -> incr live))
            inst.Alloc_api.Instance.iter_live;
          let meta = metadata_bytes () in
          let header_lines =
            Pmem.Stats.header_flush_lines (Pmem.Device.stats dev)
          in
          Printf.printf "metadata overhead:\n";
          Printf.printf "  metadata bytes        %d\n" meta;
          Printf.printf "  live objects          %d\n" !live;
          if !live > 0 then
            Printf.printf "  metadata bytes/object %.1f\n"
              (float_of_int meta /. float_of_int !live);
          Printf.printf "  header flush lines    %d\n" header_lines;
          Printf.printf "  allocations           %d\n" !allocs;
          if !allocs > 0 then
            Printf.printf "  header flushes/alloc  %.3f\n"
              (float_of_int header_lines /. float_of_int !allocs));
      Printf.printf "persist-ordering checker:\n";
      Printf.printf "  commits checked       %d\n" (Pmem.Device.ordering_commits_checked dev);
      Printf.printf "  dependencies tracked  %d\n" (Pmem.Device.ordering_deps_tracked dev);
      Printf.printf "  violations            %d\n" (Pmem.Device.ordering_violation_count dev);
      List.iter
        (fun v -> Format.printf "  %a@." Pmem.Device.pp_violation v)
        (Pmem.Device.ordering_violations dev)
    end;
    if Pmem.Device.ordering_violation_count dev > 0 then exit 1
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ alloc $ batch_flag $ json)

let bench_cmd =
  let doc =
    "Run the host-time microbenchmarks (Bechamel ns/run per core primitive). \
     With $(b,--json) also write the machine-readable baseline; with \
     $(b,--check) compare against a committed baseline instead and exit \
     non-zero if any benchmark regressed beyond the threshold."
  in
  let json =
    let doc =
      "Write the baseline to $(docv): minor words per run, simulated makespans and \
       host-parallel probes. A host ns/run section already in $(docv) is kept as \
       the fixed origin; otherwise these estimates become it."
    in
    Arg.(
      value
      & opt ~vopt:(Some "BENCH_micro.json") (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let check =
    let doc = "Compare against the baseline JSON at $(docv); no benchmark output." in
    Arg.(
      value
      & opt ~vopt:(Some "BENCH_micro.json") (some string) None
      & info [ "check" ] ~docv:"PATH" ~doc)
  in
  let run json check =
    match check with
    | Some baseline -> exit (Bench_micro.run_check ~baseline)
    | None ->
        let ests = Bench_micro.run_print () in
        Option.iter (fun path -> Bench_micro.write_json ~path ~estimates:(fun () -> ests)) json
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const run $ json $ check)

let fuzz_cmd =
  let doc =
    "Run the crash-plan fuzzer: sample (workload seed, crash point, torn mode, \
     optional crash-during-recovery) plans, execute each against a fresh device \
     and check the full post-crash invariant oracle. On failure the plan is \
     shrunk and printed as a replayable one-liner (re-run it with $(b,--plan)). \
     Exits non-zero on a counterexample."
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Plan-sampling RNG seed.")
  in
  let runs =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N" ~doc:"Number of plans to run.")
  in
  let variant =
    let doc = "Pin the consistency variant ($(b,log), $(b,gc), $(b,ic), or $(b,any))." in
    Arg.(value & opt string "any" & info [ "variant" ] ~docv:"VARIANT" ~doc)
  in
  let plan =
    let doc = "Replay one plan (a line previously printed by the fuzzer) instead of sampling." in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let check_order =
    let doc =
      "Run every plan with the device's persist-ordering checker enabled: \
       commits that retire before a declared dependency persisted become \
       oracle failures even when the crash misses the vulnerable window."
    in
    Arg.(value & opt bool true & info [ "check-order" ] ~docv:"BOOL" ~doc)
  in
  let media =
    let doc =
      "Sample media-fault plans: each draws poisoned-line, bit-rot and/or \
       inject-then-scrub steps, runs with media replication on, and pins \
       the LOG variant."
    in
    Arg.(value & flag & info [ "media" ] ~doc)
  in
  let poison_n =
    let doc = "Pin $(docv) poisoned metadata lines on every plan (implies media sampling)." in
    Arg.(value & opt int 0 & info [ "poison" ] ~docv:"N" ~doc)
  in
  let bitrot_n =
    let doc = "Pin $(docv) at-rest bit flips on every plan (implies media sampling)." in
    Arg.(value & opt int 0 & info [ "bitrot" ] ~docv:"N" ~doc)
  in
  let scrub =
    let doc =
      "Pin the inject-then-scrub step on every plan (implies media sampling); \
       the step poisons a live slab header and immediately runs a scrub pass."
    in
    Arg.(value & flag & info [ "scrub" ] ~doc)
  in
  let tail =
    let doc =
      "On a failing plan, replay it with telemetry attached and dump the \
       last $(docv) timeline events (flushes, WAL appends, recovery phases) \
       leading up to the failure, plus the device's media counters."
    in
    Arg.(value & opt int 32 & info [ "tail" ] ~docv:"N" ~doc)
  in
  (* Replay a failing plan with a telemetry sink attached and print the
     last few events: the flushes/WAL appends/recovery phases right
     before the oracle's verdict, alongside the one-line repro and the
     device's media-fault counters. *)
  let dump_tail ~batch ~mutation ~check_order ~tail plan =
    if tail > 0 then begin
      let sink = Telemetry.create () in
      let media_line = ref "" in
      let on_device dev =
        let s = Pmem.Device.stats dev in
        media_line :=
          Printf.sprintf
            "poison_hits=%d media_repairs=%d quarantines=%d bitrot_flips=%d scrub_passes=%d"
            (Pmem.Stats.poison_hits s) (Pmem.Stats.media_repairs s)
            (Pmem.Stats.media_quarantines s) (Pmem.Stats.bitrot_flips s)
            (Pmem.Stats.scrub_passes s)
      in
      ignore
        (Fault.Fuzz.run_plan ~batch ~mutation ~check_order ~telemetry:sink ~on_device plan);
      let events = Telemetry.tail_events sink ~n:tail in
      if events <> [] then begin
        Printf.printf "  last %d telemetry events before failure:\n" (List.length events);
        List.iter (fun line -> Printf.printf "    %s\n" line) events
      end;
      Printf.printf "  device media counters: %s\n" !media_line
    end
  in
  let domains =
    let doc =
      "Fan the plans out over $(docv) OCaml domains (each plan on its own \
       fresh device). Sampling switches to pure per-index RNG splitting, so \
       the output is byte-identical for every $(docv) — including 1 — but \
       differs from the sequential sampler's plans at the same seed."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let run seed runs variant plan batch mutation media poison_n bitrot_n scrub check_order tail
      domains =
    let variant =
      match variant with
      | "any" -> None
      | "log" -> Some Fault.Plan.Log
      | "gc" -> Some Fault.Plan.Gc
      | "ic" -> Some Fault.Plan.Ic
      | v -> failwith ("unknown variant " ^ v ^ " (expected log|gc|ic|any)")
    in
    let media = media || poison_n > 0 || bitrot_n > 0 || scrub in
    (* Pin the flag-selected media fields over whatever was sampled or
       parsed; seeds fall back to the plan's workload seed so pinned
       plans stay fully determined by their one-line rendering. *)
    let adjust (p : Fault.Plan.t) =
      if poison_n = 0 && bitrot_n = 0 && not scrub then p
      else
        {
          p with
          Fault.Plan.poison = (if poison_n > 0 then poison_n else p.Fault.Plan.poison);
          pseed = (if p.Fault.Plan.pseed = 0 then p.Fault.Plan.seed else p.Fault.Plan.pseed);
          rot = (if bitrot_n > 0 then bitrot_n else p.Fault.Plan.rot);
          rseed = (if p.Fault.Plan.rseed = 0 then p.Fault.Plan.seed else p.Fault.Plan.rseed);
          scrub = (scrub || p.Fault.Plan.scrub);
        }
    in
    match plan with
    | Some line -> (
        match Fault.Plan.of_string line with
        | Error e -> failwith ("bad --plan: " ^ e)
        | Ok p -> (
            let p = adjust p in
            match Fault.Fuzz.run_plan ~batch ~mutation ~check_order p with
            | Ok report ->
                Format.printf "ok: %s@.  %a@." (Fault.Plan.to_string p)
                  Nvalloc_core.Nvalloc.pp_recovery_report report
            | Error reason ->
                Format.printf "FAIL: %s@.  %s@." (Fault.Plan.to_string p) reason;
                dump_tail ~batch ~mutation ~check_order ~tail p;
                exit 1))
    | None -> (
        let outcome =
          match domains with
          | None ->
              Fault.Fuzz.fuzz ~batch ~mutation ~check_order ?variant ~media ~adjust ~seed ~runs ()
          | Some d ->
              Par.Sweep.fuzz_sweep ~batch ~mutation ~check_order ?variant ~media ~adjust
                (Par.Pool.create ~domains:d)
                ~seed ~runs ()
        in
        match outcome with
        | None -> Printf.printf "ok: %d plans, no counterexamples (seed %d)\n" runs seed
        | Some cex ->
            Format.printf "counterexample (shrunk): %s@.  reason: %s@.  original: %s@."
              (Fault.Plan.to_string cex.Fault.Fuzz.shrunk)
              cex.Fault.Fuzz.reason
              (Fault.Plan.to_string cex.Fault.Fuzz.original);
            dump_tail ~batch ~mutation ~check_order ~tail cex.Fault.Fuzz.shrunk;
            exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seed $ runs $ variant $ plan $ batch_flag $ mutate_flag $ media $ poison_n
      $ bitrot_n $ scrub $ check_order $ tail $ domains)

let check_cmd =
  let doc =
    "Run the model checker: generate seed-deterministic concurrent \
     allocation histories and execute them differentially against a volatile \
     reference heap model, checking per-step invariants (no overlapping live \
     blocks, alignment, destination publication) plus NVAlloc's deep \
     heap-integrity walk, persist-ordering cleanliness, and — with \
     $(b,--crash) — the full post-crash oracle. On failure the scenario is \
     shrunk and printed as a replayable one-liner (re-run it with \
     $(b,--scenario)). Exits non-zero on a counterexample."
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"History-generation RNG seed.")
  in
  let runs =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~docv:"N" ~doc:"Scenarios per allocator (seeds SEED..SEED+N-1).")
  in
  let ops =
    Arg.(
      value & opt int 2000
      & info [ "ops" ] ~docv:"N" ~doc:"Total operations per scenario, across all threads.")
  in
  let threads =
    Arg.(value & opt int 4 & info [ "threads" ] ~docv:"N" ~doc:"Simulated threads.")
  in
  let crash =
    let doc =
      "Also arm a crash after $(docv) flushed lines and run the post-crash \
       oracle (NVAlloc variants only; baselines ignore the crash point)."
    in
    Arg.(value & opt (some int) None & info [ "crash" ] ~docv:"N" ~doc)
  in
  let allocators =
    let doc =
      "Comma-separated allocator names to check, or $(b,all). See \
       $(b,nvalloc-cli list) / the NVAlloc variants NVAlloc-LOG, NVAlloc-GC, \
       NVAlloc-IC."
    in
    Arg.(value & opt string "all" & info [ "allocators" ] ~docv:"NAMES" ~doc)
  in
  let interleave =
    let doc =
      "Run every generated scenario under the scheduler's seeded pick rule: \
       each step goes to a uniformly chosen runnable thread instead of the \
       one with the smallest simulated clock, seeded by the scenario seed \
       (printed as $(b,sched=N) in the scenario line). Reaches op orders \
       the default rule never produces; every order replays and shrinks."
    in
    Arg.(value & flag & info [ "interleave" ] ~doc)
  in
  let scenario =
    let doc =
      "Replay one scenario (a line previously printed by the checker) instead \
       of generating fresh ones; overrides the other selection flags."
    in
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"LINE" ~doc)
  in
  let domains =
    let doc =
      "Fan the scenarios out over $(docv) OCaml domains (each seed on its own \
       fresh device, still on the simulated scheduler). The verdict is \
       byte-identical to the sequential checker's for every $(docv)."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let run seed runs ops threads crash allocators batch mutation interleave scenario domains =
    match scenario with
    | Some line -> (
        match Check.History.of_string line with
        | Error e -> failwith ("bad --scenario: " ^ e)
        | Ok sc -> (
            match Check.Runner.run ~batch ~mutation sc with
            | Ok () -> Printf.printf "ok: %s\n" (Check.History.to_string sc)
            | Error reason ->
                Printf.printf "FAIL: %s\n  reason: %s\n" (Check.History.to_string sc) reason;
                exit 1))
    | None ->
        let names =
          if allocators = "all" then Check.Runner.allocator_names
          else String.split_on_char ',' allocators |> List.map String.trim
        in
        let failed = ref false in
        List.iter
          (fun alloc ->
            let outcome =
              match domains with
              | None ->
                  Check.Runner.check ~batch ~mutation ~interleave ~alloc ~seed ~runs ~ops
                    ~threads ?crash ()
              | Some d ->
                  Par.Sweep.check_sweep ~batch ~mutation ~interleave
                    (Par.Pool.create ~domains:d)
                    ~alloc ~seed ~runs ~ops ~threads ?crash ()
            in
            match outcome with
            | None ->
                Printf.printf "ok: %-12s %d scenario(s), ops=%d threads=%d seed=%d%s%s\n" alloc
                  runs ops threads seed
                  (match crash with None -> "" | Some n -> Printf.sprintf " crash=%d" n)
                  (if interleave then " interleaved" else "")
            | Some cex ->
                failed := true;
                Printf.printf
                  "counterexample (shrunk): %s\n  reason: %s\n  original: %s\n"
                  (Check.History.to_string cex.Check.Runner.shrunk)
                  cex.Check.Runner.reason
                  (Check.History.to_string cex.Check.Runner.original))
          names;
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run $ seed $ runs $ ops $ threads $ crash $ allocators $ batch_flag $ mutate_flag
      $ interleave $ scenario $ domains)

let () =
  let doc = "NVAlloc (ASPLOS'22) reproduction driver" in
  let info = Cmd.info "nvalloc-cli" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            all_cmd;
            trace_cmd;
            slo_cmd;
            flushes_cmd;
            stats_cmd;
            bench_cmd;
            fuzz_cmd;
            check_cmd;
          ]))
