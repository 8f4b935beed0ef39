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

(* Run [f] with global telemetry capture requested; return its result
   and the sinks of every instance it built, oldest first. *)
let capture f =
  Telemetry.request_capture ();
  let result = Fun.protect ~finally:Telemetry.cancel_capture f in
  let sinks = Telemetry.registered () in
  Telemetry.reset_registered ();
  (result, sinks)

let with_capture enabled f =
  if not enabled then f ()
  else begin
    let (), sinks = capture f in
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

(* Shared --batch/--no-batch pair: [Config.batch] on NVAlloc instances,
   the batched persistence pipeline or the synchronous one for
   comparison. *)
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
         (Config.batch off). Baselines are unaffected."
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

(* Every value is parsed where cmdliner reads it: a bad one is a usage
   error (exit 124, naming the flag), not a crash or a vacuous ok. *)
let int_within ~min ~max expected =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min && n <= max -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_within ~min:1 ~max:max_int "a positive integer"
let non_negative = int_within ~min:0 ~max:max_int "a non-negative integer"

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 && Float.is_finite x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* An output file, opened where cmdliner reads it (and removed again if
   that created it): an unwritable path fails before any workload runs. *)
let writable =
  let parse s =
    let existed = Sys.file_exists s in
    match open_out_gen [ Open_wronly; Open_creat ] 0o666 s with
    | oc ->
        close_out oc;
        if not existed then Sys.remove s;
        Ok s
    | exception Sys_error e -> Error (`Msg (Printf.sprintf "cannot write %s" e))
  in
  Arg.conv (parse, Format.pp_print_string)

(* An slo --check baseline: read and parsed as JSON where cmdliner reads
   it, kept with its path. *)
let baseline =
  let parse s =
    match In_channel.with_open_bin s In_channel.input_all with
    | exception Sys_error e -> Error (`Msg e)
    | contents -> (
        match Telemetry.Json.parse contents with
        | Ok j -> Ok (s, j)
        | Error e -> Error (`Msg (Printf.sprintf "cannot parse baseline %s: %s" s e)))
  in
  Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)

(* Allocator names match case-insensitively. *)
let caseless names s =
  match
    List.find_opt (fun n -> String.lowercase_ascii n = String.lowercase_ascii s) names
  with
  | Some n -> Ok n
  | None ->
      Error (Printf.sprintf "unknown allocator %S, expected one of %s" s (String.concat ", " names))

(* The eight persistent allocators. *)
let allocator =
  let kinds =
    Harness.Factory.[ Pmdk; Nvm_malloc; Pallocator; Makalu; Ralloc; Nv_log; Nv_gc; Nv_ic ]
  in
  let parse s =
    Result.map
      (fun n -> List.find (fun k -> Harness.Factory.name k = n) kinds)
      (caseless (List.map Harness.Factory.name kinds) s)
  in
  Arg.conv' (parse, fun ppf k -> Format.pp_print_string ppf (Harness.Factory.name k))

(* A one-line repro ([--plan], [--scenario]) read by its own parser. *)
let repro of_string to_string =
  Arg.conv' (of_string, fun ppf v -> Format.pp_print_string ppf (to_string v))

(* Shared --domains flag of the two counterexample searches. *)
let domains_flag =
  let max = Support.Search.max_domains in
  let doc =
    Printf.sprintf
      "Run the search on $(docv) OCaml domains, 1 to %d (each case on its \
       own fresh device). The output is the same for every $(docv); only \
       the wall clock changes."
      max
  in
  let domains = int_within ~min:1 ~max (Printf.sprintf "an integer from 1 to %d" max) in
  Arg.(value & opt domains 1 & info [ "domains" ] ~docv:"N" ~doc)

(* Both searches print a counterexample the same way. *)
let print_counterexample to_string (cex : _ Support.Search.counterexample) =
  Printf.printf "counterexample (shrunk): %s\n  reason: %s\n  original: %s\n"
    (to_string cex.shrunk) cex.reason (to_string cex.original)

let with_batching batch f =
  Harness.Factory.force_sync := not batch;
  Fun.protect ~finally:(fun () -> Harness.Factory.force_sync := false) f

let run_cmd =
  let doc = "Run the experiments with the given ids." in
  let ids =
    let id e = (e.Harness.Registry.id, e.Harness.Registry.id) in
    Arg.(non_empty & pos_all (enum (List.map id Harness.Registry.all)) [] & info [] ~docv:"ID")
  in
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

let flushes_cmd =
  (* Figure 2 as raw data: one CSV line per metadata flush, for external
     plotting of the scatter the paper shows. *)
  let doc =
    "Dump the first 1000 metadata-flush addresses of a DBMStest run as CSV \
     (seq,category,address) for the given allocator (default NVAlloc-LOG)."
  in
  let alloc = Arg.(value & pos 0 allocator Harness.Factory.Nv_log & info [] ~docv:"ALLOCATOR") in
  let run kind =
    let inst = Harness.Factory.make ~threads:4 kind in
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

(* One instance of [kind] built under capture, with its telemetry sink. *)
let captured_instance kind ~threads =
  match capture (fun () -> Harness.Factory.make ~threads kind) with
  | inst, [ (_, sink) ] -> (inst, sink)
  | _ -> failwith "expected exactly one captured telemetry sink"

(* The workloads [trace] and [slo] run, by name. *)
let workloads =
  [
    ( "threadtest",
      fun inst ~threads ~seed:_ ->
        Workloads.Threadtest.run inst ~params:(Harness.Sizes.threadtest threads) () );
    ( "prodcon",
      fun inst ~threads ~seed:_ ->
        Workloads.Prodcon.run inst ~params:(Harness.Sizes.prodcon threads) () );
    ( "shbench",
      fun inst ~threads ~seed ->
        Workloads.Shbench.run inst ~params:(Harness.Sizes.shbench threads) ~seed () );
    ( "larson",
      fun inst ~threads ~seed ->
        Workloads.Larson.run inst ~params:(Harness.Sizes.larson_small threads) ~seed () );
    ( "larson-large",
      fun inst ~threads ~seed ->
        Workloads.Larson.run inst ~params:(Harness.Sizes.larson_large threads) ~seed () );
    ( "dbmstest",
      fun inst ~threads ~seed ->
        Workloads.Dbmstest.run inst ~params:(Harness.Sizes.dbmstest threads) ~seed () );
  ]

let run_workload workload = List.assoc workload workloads

let workload_arg =
  let names = List.map (fun (n, _) -> (n, n)) workloads in
  Arg.(value & pos 0 (enum names) "larson" & info [] ~docv:"WORKLOAD")

let threads_arg =
  Arg.(value & opt positive 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker threads.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload RNG seed.")

let trace_cmd =
  let doc =
    "Run one workload with telemetry enabled and print its timeline as \
     Chrome trace-event JSON (load it at https://ui.perfetto.dev). \
     Timestamps are simulated nanoseconds; the trace is byte-identical \
     across runs with the same seed. Workloads: threadtest, prodcon, \
     shbench, larson (small objects), larson-large, dbmstest."
  in
  let alloc =
    let doc = "Allocator to trace (see $(b,flushes) for the list)." in
    Arg.(value & opt allocator Harness.Factory.Nv_log & info [ "allocator" ] ~docv:"ALLOCATOR" ~doc)
  in
  let out =
    let doc = "Write the trace JSON to $(docv) instead of stdout." in
    Arg.(value & opt (some writable) None & info [ "out"; "o" ] ~docv:"PATH" ~doc)
  in
  let hist =
    let doc = "Also write latency-histogram percentiles as CSV to $(docv)." in
    Arg.(value & opt (some writable) None & info [ "hist" ] ~docv:"PATH" ~doc)
  in
  let run workload alloc threads seed out hist batch =
    with_batching batch @@ fun () ->
    let inst, sink = captured_instance alloc ~threads in
    let result = run_workload workload inst ~threads ~seed in
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
    Term.(const run $ workload_arg $ alloc $ threads_arg $ seed_arg $ out $ hist $ batch_flag)

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
  let alloc =
    let doc = "Allocator to attribute (see $(b,flushes) for the list)." in
    Arg.(value & opt allocator Harness.Factory.Nv_log & info [ "allocator" ] ~docv:"ALLOCATOR" ~doc)
  in
  let json =
    let doc = "Print the report as JSON (schema nvalloc/slo/v1) instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let out =
    let doc = "Write the report to $(docv) instead of stdout." in
    Arg.(value & opt (some writable) None & info [ "out"; "o" ] ~docv:"PATH" ~doc)
  in
  let folded =
    let doc =
      "Also write the blame tree as folded stacks (flamegraph.pl collapsed \
       format, one 'path;to;leaf self-ns' line per node) to $(docv)."
    in
    Arg.(value & opt (some writable) None & info [ "folded" ] ~docv:"PATH" ~doc)
  in
  let prom =
    let doc = "Also write Prometheus text exposition to $(docv)." in
    Arg.(value & opt (some writable) None & info [ "prom" ] ~docv:"PATH" ~doc)
  in
  let window_ns =
    let doc = "SLO window width in simulated nanoseconds." in
    Arg.(value & opt positive_float 1_000_000.0 & info [ "window-ns" ] ~docv:"NS" ~doc)
  in
  let check =
    let doc =
      "Gate the report against the baseline JSON at $(docv) \
       (Harness.Slo_report.check); exit 1 listing every failed gate."
    in
    Arg.(value & opt (some baseline) None & info [ "check" ] ~docv:"BASELINE" ~doc)
  in
  let run workload alloc threads seed json out folded prom window_ns check batch =
    with_batching batch @@ fun () ->
    let inst, sink = captured_instance alloc ~threads in
    let attr = Telemetry.enable_attribution sink in
    Telemetry.Attr.set_slo attr ~window_ns
      ~targets:Nvalloc_core.Config.log_default.Nvalloc_core.Config.slo_targets;
    let result = run_workload workload inst ~threads ~seed in
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
    | Some (path, baseline) -> (
        match Harness.Slo_report.check ~baseline ~current:report with
        | Ok () -> Printf.eprintf "slo check: OK against %s\n" path
        | Error failures ->
            List.iter (fun f -> Printf.eprintf "slo check FAIL: %s\n" f) failures;
            exit 1)
  in
  Cmd.v (Cmd.info "slo" ~doc)
    Term.(
      const run $ workload_arg $ alloc $ threads_arg $ seed_arg $ json $ out $ folded $ prom
      $ window_ns $ check $ batch_flag)

let stats_cmd =
  let doc =
    "Run a DBMStest probe (large objects) and a small-object Larson probe \
     with the persist-ordering checker enabled and print the device's flush \
     statistics alongside the metadata-overhead figures (metadata bytes per \
     live object, header flush lines per allocation) and the checker's \
     counters (commits checked, dependencies tracked, violations recorded)."
  in
  let alloc = Arg.(value & pos 0 allocator Harness.Factory.Nv_log & info [] ~docv:"ALLOCATOR") in
  let json =
    let doc =
      "Print the device's flush statistics as JSON (schema nvalloc/stats/v4): \
       every counter by name, the reflush ratio, flush time per category, \
       the mean WAL group size and the first metadata-flush addresses."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run kind batch json =
    let inst =
      with_batching batch (fun () -> Harness.Factory.make ~threads:4 kind)
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
          let header_lines = Pmem.Stats.get (Pmem.Device.stats dev) Header_flush_lines in
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

let fuzz_cmd =
  let doc =
    "Run the crash-plan fuzzer: sample (workload seed, crash point, torn mode, \
     optional crash-during-recovery) plans, execute each against a fresh device \
     with the persist-ordering checker on and check the full post-crash \
     invariant oracle. On failure the plan is \
     shrunk and printed as a replayable one-liner (re-run it with $(b,--plan)). \
     Exits non-zero on a counterexample."
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Plan-sampling RNG seed.")
  in
  let runs =
    Arg.(value & opt positive 200 & info [ "runs" ] ~docv:"N" ~doc:"Number of plans to run.")
  in
  let variant =
    let doc = "Pin the consistency variant ($(b,log), $(b,gc), $(b,ic), or $(b,any))." in
    let variants =
      Fault.Plan.[ ("log", Some Log); ("gc", Some Gc); ("ic", Some Ic); ("any", None) ]
    in
    Arg.(value & opt (enum variants) None & info [ "variant" ] ~docv:"VARIANT" ~doc)
  in
  let plan =
    let doc = "Replay one plan (a line previously printed by the fuzzer) instead of sampling." in
    let plan = repro Fault.Plan.of_string Fault.Plan.to_string in
    Arg.(value & opt (some plan) None & info [ "plan" ] ~docv:"PLAN" ~doc)
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
    Arg.(value & opt non_negative 0 & info [ "poison" ] ~docv:"N" ~doc)
  in
  let bitrot_n =
    let doc = "Pin $(docv) at-rest bit flips on every plan (implies media sampling)." in
    Arg.(value & opt non_negative 0 & info [ "bitrot" ] ~docv:"N" ~doc)
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
    Arg.(value & opt non_negative 32 & info [ "tail" ] ~docv:"N" ~doc)
  in
  (* Replay a failing plan with a telemetry sink attached and print the
     last few events: the flushes/WAL appends/recovery phases right
     before the oracle's verdict, alongside the one-line repro and the
     device's media-fault counters. *)
  let dump_tail ~batch ~mutation ~tail plan =
    if tail > 0 then begin
      let sink = Telemetry.create () in
      let media_line = ref "" in
      let on_device dev =
        let s = Pmem.Device.stats dev in
        media_line :=
          Printf.sprintf
            "poison_hits=%d media_repairs=%d quarantines=%d bitrot_flips=%d scrub_passes=%d"
            (Pmem.Stats.get s Poison_hits) (Pmem.Stats.get s Media_repairs)
            (Pmem.Stats.get s Media_quarantines) (Pmem.Stats.get s Bitrot_flips)
            (Pmem.Stats.get s Scrub_passes)
      in
      ignore (Fault.Fuzz.run_plan ~batch ~mutation ~telemetry:sink ~on_device plan);
      let events = Telemetry.tail_events sink ~n:tail in
      if events <> [] then begin
        Printf.printf "  last %d telemetry events before failure:\n" (List.length events);
        List.iter (fun line -> Printf.printf "    %s\n" line) events
      end;
      Printf.printf "  device media counters: %s\n" !media_line
    end
  in
  let run seed runs variant plan batch mutation media poison_n bitrot_n scrub tail domains =
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
    | Some p -> (
        let p = adjust p in
        match Fault.Fuzz.run_plan ~batch ~mutation p with
        | Ok report ->
            Format.printf "ok: %s@.  %a@." (Fault.Plan.to_string p)
              Nvalloc_core.Nvalloc.pp_recovery_report report
        | Error reason ->
            Format.printf "FAIL: %s@.  %s@." (Fault.Plan.to_string p) reason;
            dump_tail ~batch ~mutation ~tail p;
            exit 1)
    | None -> (
        match
          Fault.Fuzz.fuzz ~batch ~mutation ?variant ~media ~adjust ~domains ~seed ~runs ()
        with
        | None -> Printf.printf "ok: %d plans, no counterexamples (seed %d)\n" runs seed
        | Some cex ->
            print_counterexample Fault.Plan.to_string cex;
            dump_tail ~batch ~mutation ~tail cex.Support.Search.shrunk;
            exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ seed $ runs $ variant $ plan $ batch_flag $ mutate_flag $ media $ poison_n
      $ bitrot_n $ scrub $ tail $ domains_flag)

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
      value & opt positive 1
      & info [ "runs" ] ~docv:"N" ~doc:"Scenarios per allocator (seeds SEED..SEED+N-1).")
  in
  let ops =
    Arg.(
      value & opt positive 2000
      & info [ "ops" ] ~docv:"N" ~doc:"Total operations per scenario, across all threads.")
  in
  let threads =
    Arg.(value & opt positive 4 & info [ "threads" ] ~docv:"N" ~doc:"Simulated threads.")
  in
  let crash =
    let doc =
      "Also arm a crash after $(docv) flushed lines and run the post-crash \
       oracle (NVAlloc variants only; baselines ignore the crash point)."
    in
    Arg.(value & opt (some positive) None & info [ "crash" ] ~docv:"N" ~doc)
  in
  let allocators =
    let all = Check.Runner.allocator_names in
    let doc =
      "Comma-separated allocator names to check (any case), or $(b,all): "
      ^ String.concat ", " all ^ "."
    in
    let rec names = function
      | [] -> Ok []
      | n :: rest ->
          Result.bind (caseless all (String.trim n)) (fun n ->
              Result.map (List.cons n) (names rest))
    in
    let parse s = if s = "all" then Ok all else names (String.split_on_char ',' s) in
    let print ppf names =
      Format.pp_print_string ppf (if names = all then "all" else String.concat "," names)
    in
    Arg.(value & opt (conv' (parse, print)) all & info [ "allocators" ] ~docv:"NAMES" ~doc)
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
    let of_string line =
      Result.bind (Check.History.of_string line) (fun sc ->
          Result.map
            (fun alloc -> { sc with Check.History.alloc })
            (caseless Check.Runner.allocator_names sc.Check.History.alloc))
    in
    let scenario = repro of_string Check.History.to_string in
    Arg.(value & opt (some scenario) None & info [ "scenario" ] ~docv:"LINE" ~doc)
  in
  let run seed runs ops threads crash allocators batch mutation interleave scenario domains =
    match scenario with
    | Some sc -> (
        match Check.Runner.run ~batch ~mutation sc with
        | Ok () -> Printf.printf "ok: %s\n" (Check.History.to_string sc)
        | Error reason ->
            Printf.printf "FAIL: %s\n  reason: %s\n" (Check.History.to_string sc) reason;
            exit 1)
    | None ->
        let failed = ref false in
        List.iter
          (fun alloc ->
            match
              Check.Runner.check ~batch ~mutation ~interleave ~domains ~alloc ~seed ~runs ~ops
                ~threads ?crash ()
            with
            | None ->
                Printf.printf "ok: %-12s %d scenario(s), ops=%d threads=%d seed=%d%s%s\n" alloc
                  runs ops threads seed
                  (match crash with None -> "" | Some n -> Printf.sprintf " crash=%d" n)
                  (if interleave then " interleaved" else "")
            | Some cex ->
                failed := true;
                print_counterexample Check.History.to_string cex)
          allocators;
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run $ seed $ runs $ ops $ threads $ crash $ allocators $ batch_flag $ mutate_flag
      $ interleave $ scenario $ domains_flag)

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
            fuzz_cmd;
            check_cmd;
          ]))
