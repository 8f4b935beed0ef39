(* Host-time microbenchmarks of the substrate and allocator fast paths,
   plus the persisted perf baseline (BENCH_micro.json).

   Three kinds of numbers go into the baseline file:

   - Bechamel ns/run estimates (host time): catch real-time performance
     regressions of this implementation itself;
   - minor words per run of the same primitives: deterministic, so the
     allocation gate is exact;
   - simulated makespans of a few fixed workload probes: deterministic
     to the bit, so any change is an intentional model/allocator change,
     never noise.

   `scripts/bench_check.sh` re-runs the microbenchmarks and fails if any
   tracked one regresses more than [regression_threshold] versus the
   committed baseline, or allocates more minor words per run. *)

open Bechamel
open Toolkit

let mib = 1024 * 1024

let nvalloc_smallish_config =
  {
    Nvalloc_core.Config.log_default with
    Nvalloc_core.Config.arenas = 1;
    root_slots = 65536;
    booklog_chunks = 256;
    wal_entries = 4096;
  }

(* Each primitive is a constructor: it builds fresh state and returns
   one run of the operation. Bechamel times the runs; the allocation
   gate counts their minor words from a fresh instance of the same
   state, so its numbers repeat exactly. *)

let nvalloc_pair ~size () =
  (* One allocate/free round trip through the public API. *)
  let dev = Pmem.Device.create ~size:(256 * mib) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc_core.Nvalloc.create ~config:nvalloc_smallish_config dev clock in
  let th = Nvalloc_core.Nvalloc.thread t clock in
  let dest = Nvalloc_core.Nvalloc.root_addr t 0 in
  fun () ->
    ignore (Nvalloc_core.Nvalloc.malloc_to t th ~size ~dest);
    Nvalloc_core.Nvalloc.free_from t th ~dest

let baseline_pair ~knobs ~size () =
  let inst =
    Baselines.Bengine.instance ~knobs ~threads:1 ~dev_size:(256 * mib) ~root_slots:65536 ()
  in
  let dest = inst.Alloc_api.Instance.root 0 in
  fun () ->
    ignore (inst.Alloc_api.Instance.malloc ~tid:0 ~size ~dest);
    inst.Alloc_api.Instance.free ~tid:0 ~dest

let rbtree () =
  let module Rb = Support.Rbtree.Make (Int) in
  let t = Rb.create () in
  let rng = Sim.Rng.create 1 in
  for _ = 1 to 10_000 do
    Rb.insert t (Sim.Rng.int rng 1_000_000) 0
  done;
  let i = ref 0 in
  fun () ->
    incr i;
    let k = 1_000_000 + (!i mod 4096) in
    Rb.insert t k 0;
    Rb.remove t k

let booklog () =
  let dev = Pmem.Device.create ~size:(16 * mib) () in
  let clock = Sim.Clock.create () in
  let log = Nvalloc_core.Booklog.create dev ~base:0 ~chunks:1024 ~interleave:true in
  fun () ->
    let r =
      Nvalloc_core.Booklog.append_normal log clock Nvalloc_core.Booklog.Extent
        ~addr:(1 lsl 20) ~size:65536
    in
    Nvalloc_core.Booklog.append_tombstone log clock r

let wal () =
  let dev = Pmem.Device.create ~size:(4 * mib) () in
  let clock = Sim.Clock.create () in
  let wal = Nvalloc_core.Wal.create dev ~base:0 ~entries:65536 ~interleave:true in
  fun () ->
    if Nvalloc_core.Wal.near_full wal then Nvalloc_core.Wal.checkpoint wal clock;
    Nvalloc_core.Wal.append wal clock Nvalloc_core.Wal.Alloc ~addr:4096 ~dest:8192

(* The fence-heavy path the batched pipeline exists for: grouped appends
   defer their entry flushes, and every 8th append pays the three-fence
   group close instead of 8 synchronous entry fences. *)
let wal_grouped () =
  let dev = Pmem.Device.create ~size:(4 * mib) () in
  Pmem.Device.set_batching dev true;
  let clock = Sim.Clock.create () in
  let wal = Nvalloc_core.Wal.create ~group:8 dev ~base:0 ~entries:65536 ~interleave:true in
  fun () ->
    if Nvalloc_core.Wal.near_full wal then Nvalloc_core.Wal.checkpoint wal clock;
    Nvalloc_core.Wal.append wal clock Nvalloc_core.Wal.Alloc ~addr:4096 ~dest:8192;
    if Nvalloc_core.Wal.open_group wal >= 8 then Nvalloc_core.Wal.flush_group wal clock

(* The address-ordered extent index at depth: populate hundreds of live
   large objects (with alternating frees so the reclaimed-by-size tree is
   non-trivial too), then time one large pair. Each round trip pays
   best-fit lookups, address-tree insert/remove, and neighbour
   coalescing at a realistic tree height — the path PR 8 moved off
   linear Dlist walks. *)
let extent_lookup () =
  let dev = Pmem.Device.create ~size:(512 * mib) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc_core.Nvalloc.create ~config:nvalloc_smallish_config dev clock in
  let th = Nvalloc_core.Nvalloc.thread t clock in
  let live = 512 in
  for i = 0 to live - 1 do
    ignore
      (Nvalloc_core.Nvalloc.malloc_to t th ~size:20480
         ~dest:(Nvalloc_core.Nvalloc.root_addr t i))
  done;
  for i = 0 to (live / 2) - 1 do
    Nvalloc_core.Nvalloc.free_from t th ~dest:(Nvalloc_core.Nvalloc.root_addr t (i * 2))
  done;
  let dest = Nvalloc_core.Nvalloc.root_addr t live in
  fun () ->
    ignore (Nvalloc_core.Nvalloc.malloc_to t th ~size:65536 ~dest);
    Nvalloc_core.Nvalloc.free_from t th ~dest

let device_flush () =
  let dev = Pmem.Device.create ~size:(16 * mib) () in
  let clock = Sim.Clock.create () in
  let i = ref 0 in
  fun () ->
    incr i;
    let addr = !i * 64 mod (8 * mib) in
    Pmem.Device.write_int64 dev addr 42L;
    Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr ~len:8

let group = "primitives"

let primitives =
  [
    ("NVAlloc-LOG small pair (64B)", nvalloc_pair ~size:64);
    ("NVAlloc-LOG large pair (64KB)", nvalloc_pair ~size:65536);
    ("PMDK small pair (64B)", baseline_pair ~knobs:Baselines.Knobs.pmdk ~size:64);
    ("Makalu small pair (64B)", baseline_pair ~knobs:Baselines.Knobs.makalu ~size:64);
    ("rbtree insert+remove (10k live)", rbtree);
    ("extent lookup pair (64KB, 256 live)", extent_lookup);
    ("booklog append+tombstone", booklog);
    ("wal append", wal);
    ("wal append (group commit x8)", wal_grouped);
    ("device write+flush", device_flush);
  ]

let microbenches () =
  Test.make_grouped ~name:group
    (List.map (fun (name, make) -> Test.make ~name (Staged.stage (make ()))) primitives)

(* --- allocation gate --------------------------------------------------------- *)

(* Minor words per run of each primitive: [words_runs] runs after
   [words_warmup], from fresh state. Deterministic, so the gate compares
   exactly: any increase fails (dev builds pass -opaque, so an allocation
   that cross-module inlining would have removed still counts). *)
let words_warmup = 1_000
let words_runs = 10_000

let minor_words_per_run () =
  List.map
    (fun (name, make) ->
      let run = make () in
      for _ = 1 to words_warmup do
        run ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to words_runs do
        run ()
      done;
      (group ^ "/" ^ name, (Gc.minor_words () -. w0) /. float_of_int words_runs))
    primitives

(* The recorded precision; the gate compares at exactly this one. *)
let recorded_words w = float_of_string (Printf.sprintf "%.3f" w)

let estimates () =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (microbenches ()) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.filter_map
    (fun (name, r) ->
      match Analyze.OLS.estimates r with Some [ est ] -> Some (name, est) | _ -> None)
    (List.sort compare rows)

let print_estimates ests =
  List.iter (fun (name, est) -> Printf.printf "%-56s %10.1f ns/run\n" name est) ests;
  flush stdout

let run_print () =
  print_endline "\n### Bechamel microbenchmarks (host time per run)";
  let ests = estimates () in
  print_estimates ests;
  ests

(* Per-bench median over [rounds] independent measurement passes: the
   recorded baseline should not inherit one pass's scheduling noise. *)
let median_estimates ~rounds () =
  let runs = List.init rounds (fun _ -> estimates ()) in
  let names = List.map fst (List.hd runs) in
  List.filter_map
    (fun name ->
      match List.sort compare (List.filter_map (List.assoc_opt name) runs) with
      | [] -> None
      | samples -> Some (name, List.nth samples (List.length samples / 2)))
    names

(* --- simulated makespan probes ------------------------------------------- *)

(* Fixed, fast workload runs whose simulated makespans are recorded next
   to the host-time numbers: they are deterministic, so the committed
   baseline doubles as a regression oracle for the simulation itself. *)
let makespan_probes () =
  let probe name kind run =
    let inst = Harness.Factory.make ~threads:4 kind in
    (name, (run inst).Workloads.Driver.makespan_ns)
  in
  (* NVAlloc-LOG runs the batched persistence pipeline by default; the
     -sync probes pin the synchronous configuration so the baseline
     records the batched-vs-sync makespan contrast. *)
  let sync_log =
    Harness.Factory.Nv_custom
      ("NVAlloc-LOG-sync", Nvalloc_core.Config.sync Nvalloc_core.Config.log_default)
  in
  [
    probe "Threadtest/NVAlloc-LOG/4t" Harness.Factory.Nv_log (fun inst ->
        Workloads.Threadtest.run inst ~params:(Harness.Sizes.threadtest 4) ());
    probe "Threadtest/NVAlloc-LOG-sync/4t" sync_log (fun inst ->
        Workloads.Threadtest.run inst ~params:(Harness.Sizes.threadtest 4) ());
    probe "Threadtest/PMDK/4t" Harness.Factory.Pmdk (fun inst ->
        Workloads.Threadtest.run inst ~params:(Harness.Sizes.threadtest 4) ());
    probe "Larson-small/NVAlloc-LOG/4t" Harness.Factory.Nv_log (fun inst ->
        Workloads.Larson.run inst ~params:(Harness.Sizes.larson_small 4) ());
    probe "Larson-small/NVAlloc-LOG-sync/4t" sync_log (fun inst ->
        Workloads.Larson.run inst ~params:(Harness.Sizes.larson_small 4) ());
    probe "DBMStest/NVAlloc-LOG/4t" Harness.Factory.Nv_log (fun inst ->
        Workloads.Dbmstest.run inst ~params:(Harness.Sizes.dbmstest 4) ());
  ]

(* --- host-parallel throughput probes -------------------------------------- *)

(* Host wall-time of a domain-parallel seed sweep: a fixed check sweep
   at one domain vs the host's recommended count. Host time is noisy and
   machine-dependent by nature, so these live in their own [host_par]
   section that the regression gate never reads ([run_check] parses only
   [micro_ns_per_run]); the informational speedup line lives in
   scripts/interleave_check.sh. Every probe doubles as a correctness
   assertion: a counterexample aborts the baseline write. *)
let host_par_probes () =
  let sweep_ns domains =
    let pool = Par.Pool.create ~domains in
    let t0 = Unix.gettimeofday () in
    (match
       Par.Sweep.check_sweep pool ~alloc:"NVAlloc-LOG" ~seed:1 ~runs:8 ~ops:600 ~threads:2 ()
     with
    | None -> ()
    | Some cex ->
        failwith ("host_par probe counterexample: " ^ cex.Check.Runner.reason));
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let nd = max 2 (Domain.recommended_domain_count ()) in
  let d1_ns = sweep_ns 1 in
  let dn_ns = sweep_ns nd in
  [
    ("domains", float_of_int nd);
    ("check_sweep_8x600_1d_ns", d1_ns);
    ("check_sweep_8x600_nd_ns", dn_ns);
    ("sweep_speedup_x", if dn_ns > 0.0 then d1_ns /. dn_ns else 0.0);
  ]

(* --- JSON baseline -------------------------------------------------------- *)

let schema = "nvalloc/bench-micro/v1"
let regression_threshold = 0.25

let json_escape s =
  (* Bench names contain no quotes or control characters; keep the
     writer honest anyway. *)
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_section b name fmt entries =
  Buffer.add_string b (Printf.sprintf "  \"%s\": {\n" name);
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": %s%s\n" (json_escape k) (Printf.sprintf fmt v)
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string b "  }"

let json_string ?host_par ~micro ~words ~makespans () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": \"%s\",\n" schema);
  Buffer.add_string b
    "  \"note\": \"micro_ns_per_run is host time (noisy); minor_words_per_run is deterministic (gated exactly); simulated_makespan_ns is deterministic simulated time; host_par is host time of domain-parallel seed sweeps (informational, never gated)\",\n";
  json_section b "micro_ns_per_run" "%.1f" micro;
  Buffer.add_string b ",\n";
  json_section b "minor_words_per_run" "%.3f" words;
  Buffer.add_string b ",\n";
  json_section b "simulated_makespan_ns" "%.3f" makespans;
  (match host_par with
  | None -> ()
  | Some entries ->
      Buffer.add_string b ",\n";
      json_section b "host_par" "%.1f" entries);
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(* --- minimal reader for our own baseline format --------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Extract the ["name": number] pairs of one [section] of a baseline
   file. Not a general JSON parser — it reads exactly the line-oriented
   format [json_string] emits, which is all it is ever pointed at. *)
let parse_section text section =
  let needle = "\"" ^ section ^ "\"" in
  let rec find_from i =
    if i + String.length needle > String.length text then None
    else if String.sub text i (String.length needle) = needle then Some i
    else find_from (i + 1)
  in
  match find_from 0 with
  | None -> []
  | Some start ->
      let stop = try String.index_from text start '}' with Not_found -> String.length text in
      let body = String.sub text start (stop - start) in
      let lines = String.split_on_char '\n' body in
      List.filter_map
        (fun line ->
          let line = String.trim line in
          (* lines look like:  "name": 123.4,  *)
          if String.length line < 4 || line.[0] <> '"' then None
          else
            match String.index_from_opt line 1 '"' with
            | None -> None
            | Some q ->
                let name = String.sub line 1 (q - 1) in
                let rest = String.sub line (q + 1) (String.length line - q - 1) in
                let rest = String.trim rest in
                if String.length rest < 2 || rest.[0] <> ':' then None
                else
                  let num = String.trim (String.sub rest 1 (String.length rest - 1)) in
                  let num =
                    if String.length num > 0 && num.[String.length num - 1] = ',' then
                      String.sub num 0 (String.length num - 1)
                    else num
                  in
                  float_of_string_opt num |> Option.map (fun v -> (name, v)))
        lines

(* [micro_ns_per_run] is the fixed origin of the host-ns trajectory and
   is never re-recorded: when [path] already holds that section it is kept
   as it is, and only the deterministic sections and [host_par] are
   rewritten. [estimates] measures an origin for a file that has none. *)
let write_json ~path ~estimates =
  let micro =
    match parse_section (read_file path) "micro_ns_per_run" with
    | _ :: _ as origin ->
        Printf.printf "keeping the host-ns origin recorded in %s\n%!" path;
        origin
    | [] | (exception Sys_error _) -> estimates ()
  in
  print_endline "counting minor words per run...";
  let words = minor_words_per_run () in
  print_endline "running simulated makespan probes...";
  let makespans = makespan_probes () in
  print_endline "running host-parallel probes...";
  let host_par = host_par_probes () in
  let oc = open_out path in
  output_string oc (json_string ~host_par ~micro ~words ~makespans ());
  close_out oc;
  Printf.printf
    "wrote %s (%d microbenches, %d allocation counts, %d makespan probes, %d host_par probes)\n%!"
    path (List.length micro) (List.length words) (List.length makespans)
    (List.length host_par)

(* The exact allocation gate: any increase over the baseline's
   [minor_words_per_run] fails, decreases are printed so they can be
   recorded. Returns the number of failures. *)
let check_words ~baseline base =
  match parse_section base "minor_words_per_run" with
  | [] ->
      Printf.printf "no minor_words_per_run section in %s: allocation gate skipped\n%!" baseline;
      0
  | base_words ->
      Printf.printf "checking minor words per run against %s (fail on any increase)\n%!"
        baseline;
      let fresh = List.map (fun (name, w) -> (name, recorded_words w)) (minor_words_per_run ()) in
      let failures = ref 0 in
      List.iter
        (fun (name, old_w) ->
          match List.assoc_opt name fresh with
          | None ->
              incr failures;
              Printf.printf "MISSING   %-52s (baseline %.3f words/run)\n" name old_w
          | Some now_w ->
              let verdict =
                if now_w > old_w then begin
                  incr failures;
                  "INCREASED"
                end
                else if now_w < old_w then "decreased"
                else "ok"
              in
              Printf.printf "%-9s %-52s %10.3f -> %10.3f words/run\n" verdict name old_w now_w)
        base_words;
      !failures

let run_check ~baseline =
  match read_file baseline with
  | exception Sys_error msg ->
      Printf.eprintf "cannot read baseline: %s\n" msg;
      2
  | base ->
  let base_micro = parse_section base "micro_ns_per_run" in
  if base_micro = [] then begin
    Printf.eprintf "no micro_ns_per_run entries in %s\n" baseline;
    2
  end
  else begin
    let word_failures = check_words ~baseline base in
    Printf.printf "checking microbenchmarks against %s (fail threshold: +%.0f%%)\n%!"
      baseline (100.0 *. regression_threshold);
    (* Interference only ever inflates a timing, so the minimum over
       rounds is the robust estimate: re-measure (up to [max_rounds])
       keeping per-bench minima, and stop as soon as nothing exceeds the
       threshold. A regression that survives every round is real. *)
    let max_rounds = 3 in
    let regressed merged =
      List.exists
        (fun (name, old_ns) ->
          match List.assoc_opt name merged with
          | None -> true
          | Some now_ns -> (now_ns -. old_ns) /. old_ns > regression_threshold)
        base_micro
    in
    let merge a b =
      List.map
        (fun (name, v) ->
          match List.assoc_opt name a with
          | Some prev -> (name, Float.min prev v)
          | None -> (name, v))
        b
    in
    let rec measure round acc =
      let merged = merge acc (estimates ()) in
      if round < max_rounds && regressed merged then begin
        Printf.printf "round %d/%d: over threshold, re-measuring...\n%!" round max_rounds;
        measure (round + 1) merged
      end
      else merged
    in
    let fresh = measure 1 [] in
    let failures = ref 0 in
    List.iter
      (fun (name, old_ns) ->
        match List.assoc_opt name fresh with
        | None ->
            incr failures;
            Printf.printf "MISSING  %-52s (baseline %.1f ns/run)\n" name old_ns
        | Some now_ns ->
            let delta = (now_ns -. old_ns) /. old_ns in
            let verdict =
              if delta > regression_threshold then begin
                incr failures;
                "REGRESSED"
              end
              else "ok"
            in
            Printf.printf "%-9s %-52s %10.1f -> %10.1f ns/run (%+.1f%%)\n" verdict name
              old_ns now_ns (100.0 *. delta))
      base_micro;
    List.iter
      (fun (name, now_ns) ->
        if not (List.mem_assoc name base_micro) then
          Printf.printf "NEW      %-52s %10.1f ns/run (not in baseline)\n" name now_ns)
      fresh;
    flush stdout;
    if word_failures > 0 then
      Printf.printf "%d microbench(es) allocate more minor words than the baseline\n%!"
        word_failures;
    if !failures > 0 then
      Printf.printf "%d microbench(es) regressed beyond %.0f%%\n%!" !failures
        (100.0 *. regression_threshold);
    if !failures > 0 || word_failures > 0 then 1
    else begin
      print_endline "all tracked microbenches within threshold";
      0
    end
  end
