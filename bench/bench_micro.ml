(* Host-time microbenchmarks of the substrate and allocator fast paths,
   and the perf gate over the committed baseline (BENCH_micro.json).

   The baseline has three sections:

   - micro_ns_per_run: Bechamel host ns/run of each primitive, the fixed
     origin of the host-ns trajectory. It is recorded once and copied
     verbatim by every rewrite; it never decides a verdict;
   - minor_words_per_run: minor words per run of the same primitives;
   - simulated_makespan_ns: simulated makespans of a few fixed workload
     probes.

   The last two are deterministic, so `micro --check`
   (scripts/bench_check.sh) compares them exactly: a words increase or
   any makespan difference fails. It then prints each primitive's host
   ns/run next to its origin, as a trajectory with no verdict. *)

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
  let module Rb = Support.Rbtree in
  let t = Rb.create ~dummy:0 in
  let rng = Sim.Rng.create 1 in
  for _ = 1 to 10_000 do
    ignore (Rb.insert t (Sim.Rng.int rng 1_000_000) 0 0 : Rb.node)
  done;
  let i = ref 0 in
  fun () ->
    incr i;
    let k = 1_000_000 + (!i mod 4096) in
    ignore (Rb.insert t k 0 0 : Rb.node);
    Rb.remove t k 0

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

(* --- minor words per run ---------------------------------------------------- *)

(* Minor words per run of each primitive: [words_runs] runs after
   [words_warmup], from fresh state. Deterministic (dev builds pass
   -opaque, so an allocation that cross-module inlining would have
   removed still counts). *)
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

(* --- host ns per run --------------------------------------------------------- *)

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

let run_print () =
  print_endline "\n### Bechamel microbenchmarks (host time per run)";
  List.iter (fun (name, est) -> Printf.printf "%-56s %10.1f ns/run\n%!" name est) (estimates ())

(* --- simulated makespan probes ------------------------------------------- *)

(* Fixed, fast workload runs whose simulated makespans are deterministic
   to the bit: the gate makes the committed baseline a regression oracle
   for the simulation itself, so any change is an intentional model or
   allocator change, never noise. *)
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
      ( "NVAlloc-LOG-sync",
        { Nvalloc_core.Config.log_default with Nvalloc_core.Config.batch = false } )
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

(* --- the baseline file ------------------------------------------------------ *)

let read_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Result.map_error (fun e -> path ^ ": " ^ e) (Telemetry.Json.parse text)

(* The ["name": number] entries of one section, in file order. *)
let section json name =
  match Telemetry.Json.member name json with
  | Some (Telemetry.Json.Obj entries) ->
      List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (Telemetry.Json.num v)) entries
  | _ -> []

let json_section b name fmt entries =
  Printf.bprintf b "  \"%s\": {\n" name;
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b "    \"";
      Telemetry.Json.escape b k;
      Printf.bprintf b "\": %s%s\n" (Printf.sprintf fmt v)
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Buffer.add_string b "  }"

let json_string ~origin ~words ~makespans =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"schema\": \"nvalloc/bench-micro/v1\",\n";
  Buffer.add_string b
    "  \"note\": \"micro_ns_per_run is the fixed host-ns origin (recorded once, copied verbatim, reported as a trajectory, never gated); minor_words_per_run (any increase fails) and simulated_makespan_ns (any difference fails) are deterministic and gated exactly\",\n";
  json_section b "micro_ns_per_run" "%.1f" origin;
  Buffer.add_string b ",\n";
  json_section b "minor_words_per_run" "%.3f" words;
  Buffer.add_string b ",\n";
  json_section b "simulated_makespan_ns" "%.3f" makespans;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

(* Rewrites [path]'s deterministic sections from fresh measurements. The
   origin is copied verbatim: it was recorded at 0.1 ns, so "%.1f"
   reprints it byte for byte. A file without an origin is refused (exit
   2): this never measures a new one. *)
let write_json ~path =
  match Result.map (fun base -> section base "micro_ns_per_run") (read_baseline path) with
  | Error msg ->
      prerr_endline msg;
      2
  | Ok [] ->
      Printf.eprintf "no micro_ns_per_run origin in %s; micro --json never measures one\n" path;
      2
  | Ok origin ->
      let words = minor_words_per_run () in
      let makespans = makespan_probes () in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (json_string ~origin ~words ~makespans));
      Printf.printf "wrote %s (origin kept, %d allocation counts, %d makespan probes)\n" path
        (List.length words) (List.length makespans);
      0

(* --- the exact gate ---------------------------------------------------------- *)

(* Both exact sections are recorded at three decimals; fresh numbers are
   compared at that precision. *)
let recorded v = float_of_string (Printf.sprintf "%.3f" v)

(* One line per entry of either side: [(failed, line)]. An entry on one
   side only fails, and so does any [now] for which [fails base now]. *)
let compare_section ~fails ~unit base fresh =
  let line verdict name b now =
    let show = function Some v -> Printf.sprintf "%.3f" v | None -> "-" in
    Printf.sprintf "%-9s %-52s %16s -> %16s %s" verdict name (show b) (show now) unit
  in
  List.map
    (fun (name, b) ->
      match List.assoc_opt name fresh with
      | None -> (true, line "MISSING" name (Some b) None)
      | Some now ->
          let now = recorded now in
          let failed = fails b now in
          let verdict = if failed then "FAIL" else if now < b then "decreased" else "ok" in
          (failed, line verdict name (Some b) (Some now)))
    base
  @ List.filter_map
      (fun (name, now) ->
        if List.mem_assoc name base then None
        else Some (true, line "NEW" name None (Some (recorded now))))
      fresh

(* The gate, as a pure function of the parsed baseline and the fresh
   numbers: any words increase, any makespan difference, and any entry
   on one side only fail. *)
let exact_check base ~words ~makespans =
  compare_section ~fails:(fun b now -> now > b) ~unit:"words/run"
    (section base "minor_words_per_run") words
  @ compare_section ~fails:(fun b now -> now <> b) ~unit:"sim ns"
      (section base "simulated_makespan_ns") makespans

let run_check ~baseline =
  match read_baseline baseline with
  | Error msg ->
      prerr_endline msg;
      2
  | Ok base ->
      Printf.printf
        "checking %s exactly: minor words per run (any increase fails), simulated makespans \
         (any difference fails)\n%!"
        baseline;
      let rows =
        exact_check base ~words:(minor_words_per_run ()) ~makespans:(makespan_probes ())
      in
      List.iter (fun (_, line) -> print_endline line) rows;
      Printf.printf "host ns/run against the fixed origin in %s (a trajectory, not gated)\n%!"
        baseline;
      let origin = section base "micro_ns_per_run" in
      List.iter
        (fun (name, now) ->
          match List.assoc_opt name origin with
          | Some o ->
              Printf.printf "%-52s origin %9.1f  now %9.1f ns/run  x%.2f\n" name o now (now /. o)
          | None -> Printf.printf "%-52s origin %9s  now %9.1f ns/run\n" name "-" now)
        (estimates ());
      let failures = List.length (List.filter fst rows) in
      if failures > 0 then begin
        Printf.printf "FAIL: %d exact entries differ from %s\n" failures baseline;
        1
      end
      else begin
        Printf.printf "words and makespans match %s exactly\n" baseline;
        0
      end
