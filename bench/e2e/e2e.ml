(* End-to-end benchmark. It drives every layer only through its public
   functions (Workloads.*.run over Harness.Factory instances, the
   Alloc_api.Instance closures, Pmem.Device.stats, Telemetry,
   Fault.Plan.sample + Fault.Fuzz.run_plan), times the calls into each
   layer from outside, and reads each layer's counters. README.md has the
   metric table, the layer -> end-to-end map and the A/B procedure.

     e2e.exe --workload W --seed N --seconds S --trace 0|1
     e2e.exe --smoke BENCHMARK.json

   One workload per process: Gc top_heap_words only grows and the
   telemetry capture registry is process-global. A run is: timed set-ups,
   a warm-up rep (discarded), timed reps for --seconds (at least
   [min_timed_reps]), device calibration, then one traced rep. Every rep
   builds a fresh instance and runs the same seeded inputs, so every
   simulated result and device counter must repeat bit for bit across
   reps; the run exits 3 if one does not. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let mib = 1024 * 1024
let min_timed_reps = 3

(* --- statistics ---------------------------------------------------------- *)

let sort a =
  Array.stable_sort Float.compare a;
  a

let sorted_floats xs = sort (Array.of_list xs)

let median xs =
  let a = sorted_floats xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(xs, n=4) (its default exclusive method),
   so printed quartiles match the ones the A/B procedure computes. *)
let quartiles xs =
  let a = sorted_floats xs in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)
  end

(* Nearest rank on a sorted array: the smallest sample with at least a
   [q] share of the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- spans ---------------------------------------------------------------- *)

(* Per-call spans of the traced rep: host and simulated duration of every
   call into one layer, kept in memory and summarised when the rep ends.
   Sized up front from the warm-up rep's op count, so the traced rep
   neither copies nor faults in span arrays while it is timed. *)
module Spans = struct
  type t = { mutable n : int; mutable host : int array; mutable sim : float array }

  let create capacity =
    let c = max 1 capacity in
    { n = 0; host = Array.make c 0; sim = Array.make c 0.0 }

  let add t host sim =
    if t.n = Array.length t.host then begin
      let grow a fill =
        let b = Array.make (2 * t.n) fill in
        Array.blit a 0 b 0 t.n;
        b
      in
      t.host <- grow t.host 0;
      t.sim <- grow t.sim 0.0
    end;
    t.host.(t.n) <- host;
    t.sim.(t.n) <- sim;
    t.n <- t.n + 1

  let host_total t =
    let s = ref 0 in
    for i = 0 to t.n - 1 do
      s := !s + t.host.(i)
    done;
    !s

  let sorted_host t = sort (Array.init t.n (fun i -> float_of_int t.host.(i)))
  let sorted_sim ts = sort (Array.concat (List.map (fun t -> Array.sub t.sim 0 t.n) ts))
end

type tracer = {
  mallocs : Spans.t;
  frees : Spans.t;
  mutable maint_calls : int;
  mutable maint_ns : int;
}

(* The instance the workload sees in the traced rep: the same closures
   with a span around each call. Reads clocks only, so simulated time
   cannot move. *)
let with_spans tr (inst : Alloc_api.Instance.t) =
  {
    inst with
    malloc =
      (fun ~tid ~size ~dest ->
        let clock = inst.clocks.(tid) in
        let s0 = Sim.Clock.now clock in
        let h0 = now_ns () in
        let addr = inst.malloc ~tid ~size ~dest in
        let h1 = now_ns () in
        Spans.add tr.mallocs (h1 - h0) (Sim.Clock.now clock -. s0);
        addr);
    free =
      (fun ~tid ~dest ->
        let clock = inst.clocks.(tid) in
        let s0 = Sim.Clock.now clock in
        let h0 = now_ns () in
        inst.free ~tid ~dest;
        let h1 = now_ns () in
        Spans.add tr.frees (h1 - h0) (Sim.Clock.now clock -. s0));
    maintenance =
      Option.map
        (fun tick clock ->
          let h0 = now_ns () in
          let ran = tick clock in
          tr.maint_ns <- tr.maint_ns + (now_ns () - h0);
          tr.maint_calls <- tr.maint_calls + 1;
          ran)
        inst.maintenance;
  }

(* --- workloads ------------------------------------------------------------- *)

type alloc = {
  threads : int;
  slo : bool;
      (** attach a sink with attribution and SLO targets as [nvalloc-cli slo]
          does; the timed section then includes building the report *)
  run : Alloc_api.Instance.t -> seed:int -> Workloads.Driver.result;
}

type kind = Alloc of alloc | Fuzz of int  (** plans per rep *)

(* Why each workload exists is in README.md; [tiny] is the smoke-test size. *)
let workloads ~tiny =
  let pick full small = if tiny then small else full in
  [
    ( "tt-small",
      Alloc
        {
          threads = 4;
          slo = false;
          run =
            (fun inst ~seed:_ ->
              Workloads.Threadtest.run inst
                ~params:{ iterations = pick 50 2; objects = pick 2000 200; size = 64 }
                ());
        } );
    ( "larson-large",
      Alloc
        {
          threads = 4;
          slo = false;
          run =
            (fun inst ~seed ->
              Workloads.Larson.run inst
                ~params:{ Workloads.Larson.large with ops = pick 150_000 300 }
                ~seed ());
        } );
    ( "frag-w3",
      Alloc
        {
          threads = 1;
          slo = false;
          run =
            (fun inst ~seed ->
              (Workloads.Fragbench.run inst ~workload:Workloads.Fragbench.w3
                 ~params:{ live_cap = pick (12 * mib) mib; churn = pick (120 * mib) (4 * mib) }
                 ~seed ())
                .result);
        } );
    ( "larson-slo",
      Alloc
        {
          threads = 4;
          slo = true;
          run =
            (fun inst ~seed ->
              Workloads.Larson.run inst
                ~params:{ Workloads.Larson.small with ops = pick 250_000 2000 }
                ~seed ());
        } );
    ("fuzz-sweep", Fuzz (pick 1000 10));
  ]

(* Workload RNG seed from the --seed argument. Larson seeds thread t with
   seed + t, so adjacent raw seeds would share thread streams. *)
let workload_seed seed =
  Int64.to_int (Sim.Rng.next_int64 (Sim.Rng.create seed)) land 0x3fff_ffff

(* --- allocator reps ------------------------------------------------------- *)

let setup (w : alloc) =
  let make () = Harness.Factory.make ~threads:w.threads Harness.Factory.Nv_log in
  if not w.slo then (make (), None)
  else begin
    Telemetry.request_capture ();
    let inst = Fun.protect ~finally:Telemetry.cancel_capture make in
    let sink =
      match Telemetry.registered () with
      | [ (_, sink) ] -> sink
      | _ -> failwith "expected exactly one captured telemetry sink"
    in
    Telemetry.reset_registered ();
    let attr = Telemetry.enable_attribution sink in
    Telemetry.Attr.set_slo attr ~window_ns:1_000_000.0
      ~targets:Nvalloc_core.Config.log_default.Nvalloc_core.Config.slo_targets;
    (inst, Some (sink, attr))
  end

(* Every counter and simulated-time total of the device's Stats, under its
   JSON name (flush_ns.<cat> flattened). Ratios are recomputed from deltas. *)
let counters dev =
  let open Telemetry.Json in
  match Pmem.Stats.to_json (Pmem.Device.stats dev) with
  | Obj fields ->
      List.concat_map
        (fun (k, v) ->
          match (k, v) with
          | ("trace_limit" | "reflush_ratio" | "group_commit_size"), _ -> []
          | _, Num x -> [ (k, x) ]
          | _, Obj sub ->
              List.filter_map (fun (c, v) -> Option.map (fun x -> (k ^ "." ^ c, x)) (num v)) sub
          | _ -> [])
        fields
  | _ -> []

type alloc_rep = {
  run_ns : int;  (** the workload's run call *)
  report_ns : int;  (** Slo_report.build + Json.to_string, larson-slo only *)
  words : float;  (** minor words over run + report *)
  result : Workloads.Driver.result;
  device : (string * float) list;  (** Stats deltas over the run *)
  metadata_bytes : int;
  events : int;
  dropped : int;
  gc : int * float * int;  (** minor collections, promoted words, major collections *)
  verdict : (string, string) result;  (** the integrity walk after the run *)
}

let alloc_rep ~name (w : alloc) ~seed ?tracer () =
  Gc.compact ();
  let inst, sink = setup w in
  let driven = match tracer with Some tr -> with_spans tr inst | None -> inst in
  let before = counters inst.dev in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t1 = now_ns () in
  let result = w.run driven ~seed in
  let t2 = now_ns () in
  let report_ns =
    match sink with
    | None -> 0
    | Some (_, attr) ->
        let meta =
          {
            Harness.Slo_report.workload = name;
            allocator = result.allocator;
            threads = w.threads;
            seed;
            batching = true;
            makespan_ns = result.makespan_ns;
            total_ops = result.total_ops;
          }
        in
        ignore (Telemetry.Json.to_string (Harness.Slo_report.build ~meta attr) : string);
        now_ns () - t2
  in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let device = List.map2 (fun (k, a) (_, b) -> (k, a -. b)) (counters inst.dev) before in
  let metadata_bytes = match inst.metadata_bytes with Some f -> f () | None -> 0 in
  let events, dropped =
    match sink with
    | Some (s, _) -> (Telemetry.events_recorded s, Telemetry.events_dropped s)
    | None -> (0, 0)
  in
  let verdict = match inst.integrity with Some f -> f () | None -> Ok "" in
  {
    run_ns = t2 - t1;
    report_ns;
    words = w1 -. w0;
    result;
    device;
    metadata_bytes;
    events;
    dropped;
    gc =
      ( g1.minor_collections - g0.minor_collections,
        g1.promoted_words -. g0.promoted_words,
        g1.major_collections - g0.major_collections );
    verdict;
  }

(* What must repeat bit for bit across reps, traced or not. *)
let fingerprint r =
  (r.result.total_ops, r.result.makespan_ns, r.result.peak_bytes, r.device, r.metadata_bytes)

(* --- fuzz reps ------------------------------------------------------------- *)

type fuzz_rep = {
  f_run_ns : int;
  f_words : float;
  f_gc : int * float * int;
  plan_ns : int array;  (** per-plan host ns, traced rep only *)
  failures : (int * string) list;  (** plan index, oracle verdict *)
  replayed : int;
  marked : int;
  commits : int;
}

(* The same plan stream as [nvalloc-cli fuzz --seed N --runs P]. *)
let sample_plans ~plans ~seed =
  let rng = Sim.Rng.create seed in
  Array.init plans (fun _ -> Fault.Plan.sample rng)

(* Each plan through run_plan with its defaults (batched, ordering checker
   on). A failing plan is recorded and the sweep goes on; nothing is
   shrunk. *)
let fuzz_rep ps ~traced =
  Gc.compact ();
  let plans = Array.length ps in
  let plan_ns = Array.make (if traced then plans else 0) 0 in
  let commits = ref 0 and replayed = ref 0 and marked = ref 0 and failures = ref [] in
  let on_device dev = commits := !commits + Pmem.Device.ordering_commits_checked dev in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t1 = now_ns () in
  Array.iteri
    (fun i p ->
      let h0 = if traced then now_ns () else 0 in
      (match Fault.Fuzz.run_plan ~on_device p with
      | Ok r ->
          replayed := !replayed + r.Nvalloc_core.Nvalloc.wal_entries_replayed;
          marked := !marked + r.Nvalloc_core.Nvalloc.gc_blocks_marked
      | Error reason -> failures := (i, reason) :: !failures);
      if traced then plan_ns.(i) <- now_ns () - h0)
    ps;
  let t2 = now_ns () in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  {
    f_run_ns = t2 - t1;
    f_words = w1 -. w0;
    f_gc =
      ( g1.minor_collections - g0.minor_collections,
        g1.promoted_words -. g0.promoted_words,
        g1.major_collections - g0.major_collections );
    plan_ns;
    failures = List.rev !failures;
    replayed = !replayed;
    marked = !marked;
    commits = !commits;
  }

let fuzz_fingerprint r = (r.failures, r.replayed, r.marked, r.commits)

(* --- the run -------------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit : string;
  layer : bool;  (** per-layer (printed with --trace 1) or end-to-end *)
  det : bool;  (** deterministic: must repeat exactly for a seed *)
}

type outcome = {
  metrics : metric list;
  notes : string list;  (** per-rep values, quartiles, failing plans *)
  attempted : int;
  failed : int;
  self_check : string list;  (** determinism violations; empty when sound *)
}

(* Timed reps while another one still fits in [seconds] of wall clock
   (judged by the last rep's length), at least [min_timed_reps] of them. *)
let timed_reps ~seconds rep =
  let start = now_ns () in
  let rec go acc n last =
    let elapsed = float_of_int (now_ns () - start) /. 1e9 in
    if n >= min_timed_reps && elapsed +. last > seconds then List.rev acc
    else begin
      let t0 = now_ns () in
      let r = rep () in
      go (r :: acc) (n + 1) (float_of_int (now_ns () - t0) /. 1e9)
    end
  in
  go [] 0 0.0

(* Set-up time: back-to-back constructions before the first rep, each
   after a full major GC, in seconds. The first [setup_warmups] are
   discarded: they fault in the memory every later construction reuses
   (run.sh keeps malloc from handing it back to the kernel). The reps
   build their instances untimed: how fast a construction runs there
   depends on how much memory the earlier reps left for malloc to reuse,
   so it drifts within a run. *)
let setup_warmups = 5
let setup_samples = 51

let setup_times make =
  let time () =
    Gc.full_major ();
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (make ()));
    float_of_int (now_ns () - t0) /. 1e9
  in
  for _ = 1 to setup_warmups do
    ignore (time () : float)
  done;
  List.init setup_samples (fun _ -> time ())

(* Read right after the warm-up rep, the first in a fresh process: the
   peak then covers exactly one instance and one run. Read later, it
   would depend on how many reps the wall-clock budget allowed. *)
let top_heap_mib () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. float_of_int mib

(* bench/hotloop.ml's device write+flush loop, run in-process: the host
   cost of one isolated line flush, to split host time between the device
   and the allocator above it. *)
let isolated_flush_ns ~iters =
  let round () =
    let dev = Pmem.Device.create ~size:(16 * mib) () in
    let clock = Sim.Clock.create () in
    let t0 = now_ns () in
    for i = 0 to iters - 1 do
      let addr = i * 64 mod (8 * mib) in
      Pmem.Device.write_int64 dev addr 42L;
      Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr ~len:8
    done;
    per (now_ns () - t0) iters
  in
  median [ round (); round (); round () ]

let notes_line name xs =
  let q1, q3 = quartiles xs in
  Printf.sprintf "%s samples=[%s] q1=%.17g median=%.17g q3=%.17g" name
    (String.concat " " (List.map (Printf.sprintf "%.17g") xs))
    q1 (median xs) q3

let e2e ?(det = false) name value unit = { name; value; unit; layer = false; det }
let lay ?(det = false) name value unit = { name; value; unit; layer = true; det }

let gc_metrics (minor, promoted, major) ops =
  [
    lay "ocaml_gc.minor_collections_per_kop" (1000.0 *. per minor ops) "1/kop";
    lay "ocaml_gc.promoted_words_per_op" (promoted /. float_of_int (max 1 ops)) "words/op";
    lay "ocaml_gc.major_collections" (float_of_int major) "count";
  ]

let bench_alloc ~name ~seed ~seconds ~tiny (w : alloc) =
  let setups = setup_times (fun () -> setup w) in
  let warm = alloc_rep ~name w ~seed () in
  let heap_mib = top_heap_mib () in
  let timed = timed_reps ~seconds (fun () -> alloc_rep ~name w ~seed ()) in
  let flush_ns = isolated_flush_ns ~iters:(if tiny then 10_000 else 500_000) in
  let detached = if w.slo then [ alloc_rep ~name { w with slo = false } ~seed () ] else [] in
  let calls = warm.result.total_ops in
  let tr =
    { mallocs = Spans.create calls; frees = Spans.create calls; maint_calls = 0; maint_ns = 0 }
  in
  let traced = alloc_rep ~name w ~seed ~tracer:tr () in
  let reps = (warm :: timed) @ (traced :: detached) in
  let ops = traced.result.total_ops in
  let self_check =
    List.filter_map
      (fun (label, r) ->
        if fingerprint r = fingerprint traced then None
        else Some (label ^ " rep differs from the traced rep in makespan, peak or device counters"))
      (("warm-up", warm)
      :: List.mapi (fun i r -> (Printf.sprintf "timed %d" i, r)) timed
      @ List.map (fun r -> ("sink-detached", r)) detached)
    @
    match List.sort_uniq Float.compare (List.map (fun r -> r.words) timed) with
    | [ _ ] -> []
    | _ -> [ "minor words differ across timed reps" ]
  in
  let failed_reps = List.filter (fun r -> Result.is_error r.verdict) reps in
  let per_op x = x /. float_of_int ops in
  let host_per_op r = per_op (float_of_int (r.run_ns + r.report_ns)) in
  let host = List.map host_per_op timed in
  let host_median = median host in
  let d k = try List.assoc k traced.device with Not_found -> 0.0 in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let sims = Spans.sorted_sim [ tr.mallocs; tr.frees ] in
  let core_ns = Spans.host_total tr.mallocs + Spans.host_total tr.frees + tr.maint_ns in
  let flushes_per_op = per_op (d "flushes") in
  let est_pmem = flushes_per_op *. flush_ns in
  let call_metrics label (s : Spans.t) =
    let h = Spans.sorted_host s and sim = Spans.sorted_sim [ s ] in
    [
      lay ~det:true (label ^ ".calls_per_op") (per s.n ops) "calls/op";
      lay (label ^ ".host_ns_p50") (percentile h 0.5) "ns";
      lay (label ^ ".host_ns_p999") (percentile h 0.999) "ns";
      lay ~det:true (label ^ ".sim_ns_p50") (percentile sim 0.5) "sim-ns";
      lay ~det:true (label ^ ".sim_ns_p999") (percentile sim 0.999) "sim-ns";
    ]
  in
  let telemetry_ns =
    match detached with
    | [ r ] -> host_median -. host_per_op r
    | _ -> 0.0
  in
  let metrics =
    [
      e2e "host_ns_per_op" host_median "ns";
      e2e ~det:true "minor_words_per_op"
        (median (List.map (fun r -> per_op r.words) timed))
        "words";
      e2e "host_peak_heap_mib" heap_mib "MiB";
      e2e "setup_s" (median setups) "s";
      e2e ~det:true "sim_mops" traced.result.mops "Mops/sim-s";
      e2e ~det:true "sim_op_p50_ns" (percentile sims 0.5) "sim-ns";
      e2e ~det:true "sim_op_p999_ns" (percentile sims 0.999) "sim-ns";
      e2e ~det:true "peak_mapped_mib" (per traced.result.peak_bytes mib) "MiB";
      lay "sim.self_ns_per_op" (per (traced.run_ns - core_ns) ops) "ns";
    ]
    @ call_metrics "core.malloc" tr.mallocs
    @ call_metrics "core.free" tr.frees
    @ [
        lay ~det:true "core.maintenance.calls_per_op" (per tr.maint_calls ops) "calls/op";
        lay "core.maintenance.host_ns_per_call" (per tr.maint_ns tr.maint_calls) "ns";
        lay "core.self_est_ns_per_op" (per core_ns ops -. est_pmem) "ns";
        lay ~det:true "core.metadata_kib" (float_of_int traced.metadata_bytes /. 1024.0) "KiB";
        lay ~det:true "pmem.flushes_per_op" flushes_per_op "flushes/op";
        lay ~det:true "pmem.reflush_ratio" (ratio (d "reflushes") (d "flushes")) "ratio";
        lay ~det:true "pmem.random_flush_ratio" (ratio (d "random_flushes") (d "flushes")) "ratio";
        lay ~det:true "pmem.flushes_coalesced_per_op" (per_op (d "flushes_coalesced")) "flushes/op";
        lay ~det:true "pmem.fences_saved_per_op" (per_op (d "fences_saved")) "fences/op";
        lay ~det:true "pmem.group_commit_size"
          (ratio (d "group_commit_entries") (d "group_commits"))
          "entries";
        lay ~det:true "pmem.header_flush_lines_per_op" (per_op (d "header_flush_lines")) "lines/op";
        lay ~det:true "pmem.extent_tree_lookups_per_op"
          (per_op (d "extent_tree_lookups"))
          "lookups/op";
        lay ~det:true "pmem.extents_coalesced_per_op" (per_op (d "extents_coalesced")) "merges/op";
      ]
    @ List.map
        (fun c ->
          lay ~det:true
            ("pmem.flush_sim_ns_per_op." ^ c)
            (per_op (d ("flush_ns." ^ c)))
            "sim-ns/op")
        [ "meta"; "wal"; "log"; "data" ]
    @ List.map
        (fun c ->
          lay ~det:true ("pmem." ^ c ^ "_sim_ns_per_op") (per_op (d (c ^ "_ns"))) "sim-ns/op")
        [ "fence"; "read"; "search"; "other" ]
    @ [
        lay "pmem.isolated_flush_host_ns" flush_ns "ns";
        lay "pmem.est_host_ns_per_op" est_pmem "ns";
        lay ~det:true "telemetry.events_per_op" (per traced.events ops) "events/op";
        lay ~det:true "telemetry.events_dropped" (float_of_int traced.dropped) "count";
        lay "telemetry.host_ns_per_op" telemetry_ns "ns";
        lay "telemetry.report_ms"
          (median (List.map (fun r -> float_of_int r.report_ns /. 1e6) timed))
          "ms";
      ]
    @ gc_metrics traced.gc ops
    @ [ lay "trace.overhead_pct" (100.0 *. ((host_per_op traced /. host_median) -. 1.0)) "%" ]
  in
  {
    metrics;
    notes =
      notes_line "host_ns_per_op" host
      :: notes_line "setup_s" setups
      :: List.map (fun r -> "integrity FAIL: " ^ Result.get_error r.verdict) failed_reps;
    attempted = ops * List.length reps;
    failed = ops * List.length failed_reps;
    self_check;
  }

let bench_fuzz ~seed ~seconds ~plans =
  let setups = setup_times (fun () -> sample_plans ~plans ~seed) in
  let ps = sample_plans ~plans ~seed in
  let warm = fuzz_rep ps ~traced:false in
  let heap_mib = top_heap_mib () in
  let timed = timed_reps ~seconds (fun () -> fuzz_rep ps ~traced:false) in
  let traced = fuzz_rep ps ~traced:true in
  let reps = (warm :: timed) @ [ traced ] in
  let self_check =
    List.filter_map
      (fun r ->
        if fuzz_fingerprint r = fuzz_fingerprint traced then None
        else Some "a rep's verdicts or recovery counters differ from the traced rep's")
      (warm :: timed)
  in
  let host = List.map (fun r -> per r.f_run_ns plans) timed in
  let host_median = median host in
  let plan_ms = sort (Array.map (fun ns -> float_of_int ns /. 1e6) traced.plan_ns) in
  let variants v =
    Array.fold_left (fun n p -> if p.Fault.Plan.variant = v then n + 1 else n) 0 ps
  in
  let failed = List.length traced.failures in
  let metrics =
    [
      e2e "host_ns_per_op" host_median "ns";
      e2e ~det:true "minor_words_per_op"
        (median (List.map (fun r -> r.f_words /. float_of_int plans) timed))
        "words";
      e2e "host_peak_heap_mib" heap_mib "MiB";
      e2e "setup_s" (median setups) "s";
      lay "fault.plan.host_ms_p50" (percentile plan_ms 0.5) "ms";
      lay "fault.plan.host_ms_p99" (percentile plan_ms 0.99) "ms";
      lay ~det:true "fault.plan.ops_mean"
        (per (Array.fold_left (fun n p -> n + p.Fault.Plan.ops) 0 ps) plans)
        "ops";
      lay ~det:true "fault.recovery.wal_replayed_per_plan" (per traced.replayed plans) "entries";
      lay ~det:true "fault.recovery.gc_marked_per_plan" (per traced.marked plans) "blocks";
      lay ~det:true "fault.ordering.commits_checked_per_plan" (per traced.commits plans) "commits";
      lay ~det:true "fault.plans.log" (float_of_int (variants Fault.Plan.Log)) "plans";
      lay ~det:true "fault.plans.gc" (float_of_int (variants Fault.Plan.Gc)) "plans";
      lay ~det:true "fault.plans.ic" (float_of_int (variants Fault.Plan.Ic)) "plans";
    ]
    @ gc_metrics traced.f_gc plans
    @ [
        lay "trace.overhead_pct"
          (100.0 *. ((per traced.f_run_ns plans /. host_median) -. 1.0))
          "%";
      ]
  in
  {
    metrics;
    notes =
      notes_line "host_ns_per_op" host
      :: notes_line "setup_s" setups
      :: List.map
           (fun (i, reason) ->
             Printf.sprintf "FAIL plan %d: %s\n#   reason: %s" i
               (Fault.Plan.to_string ps.(i))
               reason)
           traced.failures;
    attempted = plans * List.length reps;
    failed = failed * List.length reps;
    self_check;
  }

let bench ~tiny ~seed ~seconds name kind =
  match kind with
  | Alloc w -> bench_alloc ~name ~seed:(workload_seed seed) ~seconds ~tiny w
  | Fuzz plans -> bench_fuzz ~seed ~seconds ~plans

(* --- output --------------------------------------------------------------- *)

let number v =
  if not (Float.is_finite v) then invalid_arg "non-finite metric";
  Printf.sprintf "%.17g" v

let report name ~seed ~trace o =
  Printf.printf "# e2e %s seed=%d\n" name seed;
  List.iter (fun n -> Printf.printf "# %s\n" n) o.notes;
  List.iter (fun m -> Printf.printf "%s %s %s\n" m.name (number m.value) m.unit) o.metrics;
  (* Ops in failed reps (fuzz: failed plans) over ops attempted. It is 0
     on a healthy run, so it lives in the result's attempted/failed
     fields rather than among the gated metrics. *)
  Printf.printf "fail_ratio %s ratio\n" (number (per o.failed o.attempted));
  List.iter (fun s -> Printf.printf "# SELF-CHECK FAILED: %s\n" s) o.self_check;
  let b = Buffer.create 1024 in
  let chosen = List.filter (fun m -> m.layer = trace) o.metrics in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
       (o.failed = 0 && o.self_check = [])
       o.attempted o.failed);
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (number m.value) m.unit))
    chosen;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* --- smoke test ----------------------------------------------------------- *)

(* Every workload twice at the tiny size, in one process: every metric
   BENCHMARK.json names is printed, deterministic metrics repeat exactly
   (which also catches state leaking from one run into the next), and the
   self-check (traced = untraced makespans) holds. *)
let smoke path =
  let doc =
    match Telemetry.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let names key =
    match Option.bind (Telemetry.Json.member key doc) Telemetry.Json.arr with
    | Some items ->
        List.filter_map
          (fun it -> Option.bind (Telemetry.Json.member "name" it) Telemetry.Json.str)
          items
    | None -> failwith (path ^ ": no " ^ key)
  in
  let table = workloads ~tiny:true in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun w -> if not (List.mem_assoc w table) then fail "%s names unknown workload %s" path w)
    (names "workloads");
  List.iter
    (fun (name, kind) ->
      let run () = bench ~tiny:true ~seed:1 ~seconds:0.0 name kind in
      let a = run () in
      let b = run () in
      List.iter (fun s -> fail "%s: %s" name s) (a.self_check @ b.self_check);
      if List.mem name (names "workloads") then
        List.iter
          (fun (key, layer) ->
            let declared = names key in
            let printed =
              List.filter_map (fun x -> if x.layer = layer then Some x.name else None) a.metrics
            in
            List.iter
              (fun m ->
                if not (List.mem m printed) then fail "%s: %s metric %s is not printed" name key m)
              declared;
            List.iter
              (fun m ->
                if not (List.mem m declared) then fail "%s: %s lacks printed metric %s" name key m)
              printed)
          [ ("end_to_end", false); ("per_layer", true) ];
      List.iter2
        (fun x y ->
          if x.det && x.value <> y.value then
            fail "%s: %s differs across runs (%s vs %s)" name x.name (number x.value)
              (number y.value))
        a.metrics b.metrics;
      Printf.printf "smoke %s: %d metrics\n%!" name (List.length a.metrics))
    table;
  match List.rev !errors with
  | [] -> print_endline "e2e smoke OK"
  | errs ->
      List.iter prerr_endline errs;
      exit 1

(* --- main ------------------------------------------------------------------ *)

let usage () =
  prerr_endline "usage: e2e.exe --workload W --seed N --seconds S --trace 0|1";
  prerr_endline "       e2e.exe --smoke BENCHMARK.json";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "--smoke"; path ] -> smoke path
  | args ->
      let rec parse acc = function
        | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            parse ((flag, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let num conv k = match conv (get k) with Some v -> v | None -> usage () in
      let name = get "--workload" in
      let seed = num int_of_string_opt "--seed" in
      let seconds = num float_of_string_opt "--seconds" in
      let trace =
        match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      let kind =
        match List.assoc_opt name (workloads ~tiny:false) with
        | Some k -> k
        | None ->
            Printf.eprintf "unknown workload %s\n" name;
            exit 2
      in
      let o = bench ~tiny:false ~seed ~seconds name kind in
      report name ~seed ~trace o;
      if o.self_check <> [] then exit 3
