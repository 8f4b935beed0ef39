(* Telemetry: JSON printer/parser, histograms, bounded rings, trace
   determinism, zero perturbation of simulated results, and the Stats
   JSON round trip. *)

module J = Telemetry.Json

(* --- Json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd");
        ("i", J.Num 42.0);
        ("f", J.Num 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("a", J.Arr [ J.Num 0.0; J.Str ""; J.Obj [] ]);
      ]
  in
  let s = J.to_string v in
  (match J.parse s with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok v' -> Alcotest.(check string) "print/parse/print stable" s (J.to_string v'));
  (* Integral floats print without a decimal point. *)
  Alcotest.(check string) "integral" "42" (J.to_string (J.Num 42.0));
  Alcotest.(check string) "fractional" "1.500" (J.to_string (J.Num 1.5))

let test_json_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("parse accepted garbage: " ^ s))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "{\"a\":1}x" ]

let test_json_escapes () =
  (* Every escape our printer can emit decodes back, plus \u for the
     Latin-1 range. *)
  (match J.parse {|"a\nb\tc\rd\be\ff\"g\\h\/iA\u00e9"|} with
  | Ok (J.Str s) ->
      Alcotest.(check string) "escape decoding" "a\nb\tc\rd\be\012f\"g\\h/iA\xe9" s
  | Ok _ -> Alcotest.fail "parsed to non-string"
  | Error e -> Alcotest.fail ("escapes rejected: " ^ e));
  (* Beyond Latin-1, malformed hex, unknown escapes, truncations: all
     rejected with Error, never an exception. *)
  List.iter
    (fun s ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("parse accepted bad escape: " ^ s)
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "parse raised on %s: %s" s (Printexc.to_string e)))
    [ {|"\u0100"|}; {|"\ud800"|}; {|"\uzzzz"|}; {|"\x"|}; {|"\|}; {|"\u00|}; {|"\u|} ]

let test_json_deep_nesting () =
  (* A few hundred nesting levels must parse and round-trip — deep
     blame-tree paths serialise as nested structures, and the recursive
     parser has to survive them. *)
  let depth = 400 in
  let b = Buffer.create (depth * 12) in
  for _ = 1 to depth do
    Buffer.add_string b {|{"a":[|}
  done;
  Buffer.add_string b "null";
  for _ = 1 to depth do
    Buffer.add_string b "]}"
  done;
  let s = Buffer.contents b in
  match J.parse s with
  | Error e -> Alcotest.fail ("deep nesting rejected: " ^ e)
  | Ok v ->
      Alcotest.(check string) "deep round trip" s (J.to_string v);
      let rec depth_of v =
        match v with
        | J.Obj [ ("a", J.Arr [ inner ]) ] -> 1 + depth_of inner
        | J.Null -> 0
        | _ -> Alcotest.fail "unexpected shape"
      in
      Alcotest.(check int) "all levels present" depth (depth_of v)

let test_json_error_stability () =
  (* Error messages are part of the interface: scripts and humans match
     on them, so they are pinned exactly (message + offset). *)
  List.iter
    (fun (input, expected) ->
      match J.parse input with
      | Ok _ -> Alcotest.fail ("parse accepted: " ^ input)
      | Error e -> Alcotest.(check string) ("message for " ^ input) expected e)
    [
      ("", "unexpected end of input at offset 0");
      ("   ", "unexpected end of input at offset 3");
      ("{", {|expected '"' at offset 1|});
      ("\"abc", "unterminated string at offset 4");
      ("[1, 2", "expected ',' or ']' at offset 5");
      ({|{"a":1|}, "expected ',' or '}' at offset 6");
      ("1 x", "trailing garbage at offset 2");
      ("tru", "expected true at offset 0");
      ("-", "bad number at offset 1");
      ({|"\uzzzz"|}, {|bad \u escape at offset 2|});
      ({|"\u0100"|}, {|unsupported \u escape at offset 2|});
      ({|"\q"|}, {|bad escape '\q' at offset 2|});
    ]

(* --- Histogram ----------------------------------------------------------- *)

let test_histogram () =
  let h = Telemetry.Histogram.create "h" in
  Alcotest.(check int) "empty count" 0 (Telemetry.Histogram.count h);
  List.iter (Telemetry.Histogram.observe h) [ 100; 200; 300; 400; 100000 ];
  Alcotest.(check int) "count" 5 (Telemetry.Histogram.count h);
  Alcotest.(check (float 1e-9)) "min" 100.0 (Telemetry.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100000.0 (Telemetry.Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 20200.0 (Telemetry.Histogram.mean h);
  let p50 = Telemetry.Histogram.percentile h 0.5 in
  Alcotest.(check bool) "p50 within factor-2 bucket" true (p50 >= 200.0 && p50 <= 512.0);
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 100000.0
    (Telemetry.Histogram.percentile h 1.0);
  let p0 = Telemetry.Histogram.percentile h 0.0 in
  Alcotest.(check bool) "p0 within min's bucket" true (p0 >= 100.0 && p0 <= 128.0)

(* Merge oracle: merging per-thread histograms must be exactly a single
   histogram fed every observation — same counts, same moments, same
   percentiles at every quantile. *)
let prop_histogram_merge =
  let open QCheck in
  Test.make ~name:"Histogram.merge equals one histogram of all observations" ~count:200
    (make
       (* Partial sums of int observations are exact in double precision:
          the oracle compares totals with [=], not a tolerance. *)
       Gen.(list_size (int_range 0 6) (list_size (int_range 0 40) (int_range 0 200_000))))
    (fun groups ->
      let parts =
        List.map
          (fun obs ->
            let h = Telemetry.Histogram.create "part" in
            List.iter (Telemetry.Histogram.observe h) obs;
            h)
          groups
      in
      let merged = Telemetry.Histogram.merge ~name:"merged" parts in
      let oracle = Telemetry.Histogram.create "merged" in
      List.iter (List.iter (Telemetry.Histogram.observe oracle)) groups;
      let module H = Telemetry.Histogram in
      H.count merged = H.count oracle
      && H.total merged = H.total oracle
      && H.mean merged = H.mean oracle
      && (H.count merged = 0
         || H.min_value merged = H.min_value oracle && H.max_value merged = H.max_value oracle
         )
      && List.for_all
           (fun q -> H.percentile merged q = H.percentile oracle q)
           [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let test_histogram_merge_empty () =
  let m = Telemetry.Histogram.merge ~name:"m" [] in
  Alcotest.(check int) "empty merge" 0 (Telemetry.Histogram.count m);
  let h = Telemetry.Histogram.create "h" in
  Telemetry.Histogram.observe h 7;
  let m1 = Telemetry.Histogram.merge ~name:"m" [ h ] in
  Alcotest.(check int) "singleton count" 1 (Telemetry.Histogram.count m1);
  Alcotest.(check (float 1e-9)) "singleton mean" 7.0 (Telemetry.Histogram.mean m1);
  (* Merge does not alias its inputs: observing into the merge leaves
     the parts untouched. *)
  Telemetry.Histogram.observe m1 9;
  Alcotest.(check int) "input untouched" 1 (Telemetry.Histogram.count h)

(* --- Rings --------------------------------------------------------------- *)

let test_ring_bounds () =
  let t = Telemetry.create ~ring_capacity:4 () in
  let name = Telemetry.intern t "ev" in
  for i = 1 to 10 do
    Telemetry.span t ~tid:0 ~name ~ts:i ~dur:1
  done;
  Alcotest.(check int) "recorded" 10 (Telemetry.events_recorded t);
  Alcotest.(check int) "dropped oldest" 6 (Telemetry.events_dropped t);
  (* The tail holds the newest events, oldest first. *)
  let tail = Telemetry.tail_events t ~n:10 in
  Alcotest.(check int) "tail bounded by capacity" 4 (List.length tail);
  Alcotest.(check bool) "newest survives" true
    (List.exists (fun l -> String.length l > 0) tail)

let test_ring_capacity_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Telemetry.create: ring_capacity must be positive (got 0)") (fun () ->
      ignore (Telemetry.create ~ring_capacity:0 ()))

let test_interning () =
  let t = Telemetry.create () in
  let a = Telemetry.intern t "alloc" and b = Telemetry.intern t "free" in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "stable" a (Telemetry.intern t "alloc");
  Alcotest.(check string) "name_of" "free" (Telemetry.name_of t b)

(* --- End-to-end: traced workload runs ------------------------------------ *)

let larson_params =
  { Workloads.Larson.slots = 64; ops = 500; min_size = 64; max_size = 256; cross_frac = 0.2 }

let mk () =
  Alloc_api.Instance.of_nvalloc
    ~config:
      {
        Nvalloc_core.Config.log_default with
        Nvalloc_core.Config.arenas = 2;
        root_slots = 1 lsl 16;
      }
    ~threads:4 ~dev_size:(256 * 1024 * 1024) ()

let traced_run ~seed =
  Telemetry.reset_registered ();
  Telemetry.request_capture ();
  let inst = Fun.protect ~finally:Telemetry.cancel_capture (fun () -> mk ()) in
  let sink =
    match Telemetry.registered () with
    | [ (_, s) ] -> s
    | l -> Alcotest.fail (Printf.sprintf "expected 1 registered sink, got %d" (List.length l))
  in
  Telemetry.reset_registered ();
  let r = Workloads.Larson.run inst ~params:larson_params ~seed () in
  (sink, r)

let test_trace_determinism () =
  (* Satellite: two same-seed runs export byte-identical trace JSON,
     even though raw clock ids differ between the runs (tids are
     normalised at export). *)
  let sink1, _ = traced_run ~seed:7 in
  let sink2, _ = traced_run ~seed:7 in
  let j1 = Telemetry.chrome_json sink1 and j2 = Telemetry.chrome_json sink2 in
  Alcotest.(check int) "same length" (String.length j1) (String.length j2);
  Alcotest.(check bool) "byte-identical JSON" true (String.equal j1 j2);
  Alcotest.(check string) "identical histogram CSV" (Telemetry.hist_csv sink1)
    (Telemetry.hist_csv sink2)

let test_trace_validity () =
  let sink, _ = traced_run ~seed:3 in
  Alcotest.(check bool) "events recorded" true (Telemetry.events_recorded sink > 0);
  let json =
    match J.parse (Telemetry.chrome_json sink) with
    | Error e -> Alcotest.fail ("trace JSON does not parse: " ^ e)
    | Ok j -> j
  in
  let events =
    match Option.bind (J.member "traceEvents" json) J.arr with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 100);
  let phases = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let field name = Option.bind (J.member name ev) in
      (match field "ph" J.str with
      | Some ("X" | "i" | "C" | "M") as p -> Hashtbl.replace phases (Option.get p) ()
      | Some ph -> Alcotest.fail ("unexpected ph " ^ ph)
      | None -> Alcotest.fail "event without ph");
      (match field "ts" J.num with
      | Some ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
      | None -> Alcotest.fail "event without ts");
      (match field "pid" J.num with
      | Some 0.0 -> ()
      | _ -> Alcotest.fail "event without pid 0");
      match field "tid" J.num with
      | Some tid -> Alcotest.(check bool) "tid normalised" true (tid >= 0.0 && tid < 16.0)
      | None -> Alcotest.fail "event without tid")
    events;
  (* All four phase kinds appear: spans, snapshots (counters), thread
     names (metadata). *)
  Alcotest.(check bool) "has spans" true (Hashtbl.mem phases "X");
  Alcotest.(check bool) "has counters" true (Hashtbl.mem phases "C");
  Alcotest.(check bool) "has metadata" true (Hashtbl.mem phases "M");
  (* Heap-introspection track exists and carries occupancy counters. *)
  let csv = Telemetry.hist_csv sink in
  Alcotest.(check bool) "alloc histogram present" true
    (String.length csv > 0
    && List.exists
         (fun line -> String.length line >= 6 && String.sub line 0 6 = "alloc,")
         (String.split_on_char '\n' csv))

let test_zero_perturbation () =
  (* Attaching a sink must not change simulated results: same makespan
     with telemetry on and off. *)
  let _, r_on = traced_run ~seed:11 in
  let r_off = Workloads.Larson.run (mk ()) ~params:larson_params ~seed:11 () in
  Alcotest.(check (float 1e-9)) "identical makespans"
    r_off.Workloads.Driver.makespan_ns r_on.Workloads.Driver.makespan_ns;
  Alcotest.(check int) "identical op counts" r_off.Workloads.Driver.total_ops
    r_on.Workloads.Driver.total_ops

let test_fuzz_plan_telemetry () =
  (* A failing plan replayed with a sink yields a non-empty tail whose
     capture does not change the verdict. *)
  let plan =
    match Fault.Plan.of_string "v=log seed=5 ops=40 crash=200 torn=line tseed=1 rcrash=-" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let bare = Fault.Fuzz.run_plan plan in
  let sink = Telemetry.create () in
  let traced = Fault.Fuzz.run_plan ~telemetry:sink plan in
  Alcotest.(check bool) "same verdict" true
    (match (bare, traced) with Ok _, Ok _ | Error _, Error _ -> true | _ -> false);
  Alcotest.(check bool) "timeline captured" true (Telemetry.events_recorded sink > 0);
  Alcotest.(check bool) "tail renders" true (Telemetry.tail_events sink ~n:8 <> [])

(* --- Blame-tree attribution ---------------------------------------------- *)

module A = Telemetry.Attr

let test_attr_blame_tree () =
  (* Hand-driven op: charges land on (frame, component) leaves, frame
     self-time is wall minus children and charges, the root completion
     feeds the op histogram, and the folded export is exact. *)
  let sink = Telemetry.create () in
  let a = Telemetry.enable_attribution sink in
  Alcotest.(check bool) "enable is idempotent" true (Telemetry.enable_attribution sink == a);
  A.enter_root_named a ~tid:3 ~name:"op" ~ts:0;
  A.charge_named a ~tid:3 ~name:"fence" ~ns:10;
  A.enter_named a ~tid:3 ~name:"refill" ~ts:20;
  A.charge_named a ~tid:3 ~name:"flush" ~ns:30;
  A.leave a ~tid:3 ~ts:60;
  A.leave a ~tid:3 ~ts:100;
  Alcotest.(check string) "folded export"
    "op 50\nop;fence 10\nop;refill 10\nop;refill;flush 30\n" (A.folded a);
  Alcotest.(check (list string)) "op names" [ "op" ] (A.op_names a);
  let h = A.op_histogram a "op" in
  Alcotest.(check int) "one completion" 1 (Telemetry.Histogram.count h);
  Alcotest.(check (float 1e-9)) "op wall time" 100.0 (Telemetry.Histogram.mean h);
  (* nodes carries counts too: the refill frame completed once, the
     flush charge hit once. *)
  List.iter
    (fun (path, self, count) ->
      match String.concat ";" path with
      | "op" -> Alcotest.(check int) "op self" 50 self
      | "op;fence" -> Alcotest.(check int) "fence count" 1 count
      | "op;refill" -> Alcotest.(check int) "refill self" 10 self
      | "op;refill;flush" -> Alcotest.(check int) "flush self" 30 self
      | p -> Alcotest.fail ("unexpected node " ^ p))
    (A.nodes a)

let test_attr_edge_cases () =
  let sink = Telemetry.create () in
  let a = Telemetry.enable_attribution sink in
  (* A charge with no open frame still lands (directly under the root)
     rather than being dropped or crashing. *)
  A.charge_named a ~tid:0 ~name:"orphan" ~ns:5;
  (* Leaving with no open frame is a no-op. *)
  A.leave a ~tid:0 ~ts:50;
  Alcotest.(check string) "orphan charge kept" "orphan 5\n" (A.folded a);
  (* enter_root resets a stack left open by a faulted op. *)
  A.enter_root_named a ~tid:0 ~name:"op1" ~ts:0;
  A.enter_named a ~tid:0 ~name:"inner" ~ts:1;
  Alcotest.(check int) "two frames open" 2 (A.depth a ~tid:0);
  A.enter_root_named a ~tid:0 ~name:"op2" ~ts:2;
  Alcotest.(check int) "root reset the stack" 1 (A.depth a ~tid:0);
  (* Charges beyond the frame's wall time clamp self at zero (batched
     flush charges are pipeline occupancy and can outlast the op), but
     the op histogram still records the true wall time. *)
  A.charge_named a ~tid:0 ~name:"pipeline" ~ns:1000;
  A.leave a ~tid:0 ~ts:52;
  let h = A.op_histogram a "op2" in
  Alcotest.(check (float 1e-9)) "wall time not inflated" 50.0 (Telemetry.Histogram.mean h);
  List.iter
    (fun (path, self, _) ->
      if String.concat ";" path = "op2" then
        Alcotest.(check int) "self clamped at 0" 0 self)
    (A.nodes a)

let test_attr_slo_windows () =
  let sink = Telemetry.create () in
  let a = Telemetry.enable_attribution sink in
  A.set_slo a ~window_ns:100.0 ~targets:[ ("op", 10.0, 0.9) ];
  let complete ~start ~stop =
    A.enter_root_named a ~tid:0 ~name:"op" ~ts:start;
    A.leave a ~tid:0 ~ts:stop
  in
  complete ~start:0 ~stop:5;
  complete ~start:10 ~stop:30;
  complete ~start:150 ~stop:170;
  Alcotest.(check int) "two violations" 2 (A.violations a ~op:"op");
  (match A.windows a ~op:"op" with
  | [ (0, h0, v0); (1, h1, v1) ] ->
      Alcotest.(check int) "window 0 count" 2 (Telemetry.Histogram.count h0);
      Alcotest.(check int) "window 0 violations" 1 v0;
      Alcotest.(check int) "window 1 count" 1 (Telemetry.Histogram.count h1);
      Alcotest.(check int) "window 1 violations" 1 v1
  | ws -> Alcotest.fail (Printf.sprintf "expected windows 0 and 1, got %d" (List.length ws)));
  (* Burn rate: 2 of 3 ops violated a 10% error budget. *)
  Alcotest.(check (float 1e-9)) "burn rate" (2.0 /. 3.0 /. 0.1)
    (Harness.Slo_report.burn_rate ~violations:2 ~count:3 ~goal:0.9);
  Alcotest.(check (float 1e-9)) "no ops, no burn" 0.0
    (Harness.Slo_report.burn_rate ~violations:0 ~count:0 ~goal:0.9);
  (* Degradation events are capped, ordered, and annotate the timeline. *)
  A.note_event a ~ts:42 ~name:"media:repair";
  A.note_event a ~ts:77 ~name:"wal:checkpoint";
  Alcotest.(check (list (pair int string))) "events oldest first"
    [ (42, "media:repair"); (77, "wal:checkpoint") ]
    (A.events a)

let test_attr_invalid_window () =
  let sink = Telemetry.create () in
  let a = Telemetry.enable_attribution sink in
  Alcotest.check_raises "zero window"
    (Invalid_argument "Telemetry.Attr.set_slo: window_ns must be positive (got 0)") (fun () ->
      A.set_slo a ~window_ns:0.0 ~targets:[])

(* --- SLO report: build, determinism, gate -------------------------------- *)

let slo_meta =
  {
    Harness.Slo_report.workload = "larson";
    allocator = "NVAlloc-LOG";
    threads = 4;
    seed = 13;
    batching = true;
    makespan_ns = 0.0;
    total_ops = 0;
  }

let attributed_run ~seed =
  Telemetry.reset_registered ();
  Telemetry.request_capture ();
  let inst = Fun.protect ~finally:Telemetry.cancel_capture (fun () -> mk ()) in
  let sink =
    match Telemetry.registered () with
    | [ (_, s) ] -> s
    | l -> Alcotest.fail (Printf.sprintf "expected 1 registered sink, got %d" (List.length l))
  in
  Telemetry.reset_registered ();
  let a = Telemetry.enable_attribution sink in
  A.set_slo a ~window_ns:100_000.0
    ~targets:Nvalloc_core.Config.log_default.Nvalloc_core.Config.slo_targets;
  let r = Workloads.Larson.run inst ~params:larson_params ~seed () in
  let meta =
    { slo_meta with seed; makespan_ns = r.Workloads.Driver.makespan_ns; total_ops = r.total_ops }
  in
  (Harness.Slo_report.build ~meta a, sink, r)

let test_slo_report_determinism () =
  (* Acceptance: same-seed runs produce byte-identical SLO reports,
     folded-stack exports and Prometheus expositions. *)
  let report1, sink1, r1 = attributed_run ~seed:13 in
  let report2, sink2, r2 = attributed_run ~seed:13 in
  Alcotest.(check string) "byte-identical report JSON" (J.to_string report1)
    (J.to_string report2);
  let f1 = Option.get (Telemetry.attribution sink1) and f2 = Option.get (Telemetry.attribution sink2) in
  Alcotest.(check string) "byte-identical folded stacks" (A.folded f1) (A.folded f2);
  Alcotest.(check string) "byte-identical prometheus" (Telemetry.prometheus sink1)
    (Telemetry.prometheus sink2);
  (* Attribution must not perturb the simulation either: same makespan
     as a bare run. *)
  let bare = Workloads.Larson.run (mk ()) ~params:larson_params ~seed:13 () in
  Alcotest.(check (float 1e-9)) "attribution does not perturb" bare.Workloads.Driver.makespan_ns
    r1.Workloads.Driver.makespan_ns;
  ignore r2;
  (* The report carries real content: ops with counts, a nonempty
     component breakdown, and every declared target present. *)
  let ops = Option.value ~default:[] (Option.bind (J.member "ops" report1) J.arr) in
  Alcotest.(check bool) "has op classes" true (List.length ops >= 2);
  List.iter
    (fun op ->
      match Option.bind (J.member "count" op) J.num with
      | Some c -> Alcotest.(check bool) "op count positive" true (c > 0.0)
      | None -> Alcotest.fail "op without count")
    ops;
  let comps = Option.value ~default:[] (Option.bind (J.member "components" report1) J.arr) in
  Alcotest.(check bool) "has components" true (List.length comps >= 3);
  (* Folded export is valid flamegraph input: every line "path int". *)
  String.split_on_char '\n' (A.folded f1)
  |> List.iter (fun line ->
         if line <> "" then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.fail ("folded line without space: " ^ line)
           | Some i -> (
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match int_of_string_opt v with
               | Some n -> Alcotest.(check bool) "folded value positive" true (n > 0)
               | None -> Alcotest.fail ("folded value not an int: " ^ line)))

let test_slo_report_gate () =
  let report, _, _ = attributed_run ~seed:13 in
  (* A report gates cleanly against itself. *)
  (match Harness.Slo_report.check ~baseline:report ~current:report with
  | Ok () -> ()
  | Error fs -> Alcotest.fail ("self-check failed: " ^ String.concat "; " fs));
  (* Identity mismatches fail loudly. *)
  let retag key v j =
    match j with
    | J.Obj fields -> J.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  (match
     Harness.Slo_report.check ~baseline:(retag "seed" (J.Num 99.0) report) ~current:report
   with
  | Error [ msg ] ->
      Alcotest.(check bool) "seed named" true
        (String.length msg >= 4 && String.sub msg 0 4 = "seed")
  | Error fs -> Alcotest.fail ("expected one failure, got " ^ String.concat "; " fs)
  | Ok () -> Alcotest.fail "seed mismatch passed");
  (* A doubled fence share trips the component gate. *)
  let inflate name j =
    match j with
    | J.Obj fields ->
        J.Obj
          (List.map
             (fun (k, x) ->
               if k <> "components" then (k, x)
               else
                 match x with
                 | J.Arr comps ->
                     ( k,
                       J.Arr
                         (List.map
                            (fun c ->
                              if Option.bind (J.member "component" c) J.str <> Some name then c
                              else
                                match c with
                                | J.Obj cf ->
                                    J.Obj
                                      (List.map
                                         (fun (ck, cv) ->
                                           if ck <> "share" then (ck, cv)
                                           else
                                             match cv with
                                             | J.Num s -> (ck, J.Num ((s *. 2.0) +. 0.1))
                                             | _ -> (ck, cv))
                                         cf)
                                | _ -> c)
                            comps) )
                 | _ -> (k, x))
             fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  match Harness.Slo_report.check ~baseline:report ~current:(inflate "fence" report) with
  | Error fs ->
      Alcotest.(check bool) "fence share gate trips" true
        (List.exists
           (fun m ->
             String.length m >= 15 && String.sub m 0 15 = "component fence")
           fs)
  | Ok () -> Alcotest.fail "inflated fence share passed the gate"

(* --- Stats JSON + reset satellites --------------------------------------- *)

let populated_stats () =
  let st = Pmem.Stats.create ~trace_limit:8 () in
  Pmem.Stats.record_flush st Pmem.Stats.Meta ~addr:64 ~reflush:false ~sequential:true ~ns:100;
  Pmem.Stats.record_flush st Pmem.Stats.Wal ~addr:128 ~reflush:true ~sequential:false ~ns:200;
  Pmem.Stats.record_flush st Pmem.Stats.Data ~addr:256 ~reflush:false ~sequential:true ~ns:300;
  Pmem.Stats.record_fence st ~ns:20;
  Pmem.Stats.record_read st ~ns:50;
  Pmem.Stats.charge_work st Pmem.Stats.Search ~ns:75;
  Pmem.Stats.record_fences_saved st 3;
  Pmem.Stats.record_flush_coalesced st;
  Pmem.Stats.record_group_commit st ~entries:5;
  st

let test_stats_json_roundtrip () =
  let st = populated_stats () in
  let s = Pmem.Stats.to_json_string st in
  match Pmem.Stats.of_json_string s with
  | Error e -> Alcotest.fail ("of_json failed: " ^ e)
  | Ok st' ->
      Alcotest.(check string) "round trip" s (Pmem.Stats.to_json_string st');
      Alcotest.(check int) "flushes" (Pmem.Stats.flushes st) (Pmem.Stats.flushes st');
      Alcotest.(check int) "reflushes" (Pmem.Stats.reflushes st) (Pmem.Stats.reflushes st');
      Alcotest.(check int) "fences_saved" 3 (Pmem.Stats.fences_saved st');
      Alcotest.(check int) "flushes_coalesced" 1 (Pmem.Stats.flushes_coalesced st');
      Alcotest.(check int) "group_commits" 1 (Pmem.Stats.group_commits st');
      Alcotest.(check int) "group_commit_entries" 5 (Pmem.Stats.group_commit_entries st');
      Alcotest.(check bool) "trace" true (Pmem.Stats.trace st = Pmem.Stats.trace st')

(* Only the current schema parses: v1-v3 documents, complete for their
   own revision, fail with the "unknown schema" error rather than
   loading with defaulted counters. *)
let test_stats_json_old_schemas_rejected () =
  let doc schema =
    Printf.sprintf
      {|{"schema":"%s","trace_limit":8,"flushes":7,"reflushes":1,
         "sequential_flushes":4,"random_flushes":3,"reflush_ratio":0.14,
         "flush_ns":{"meta":100,"wal":200,"log":0,"data":300},
         "fence_ns":20,"read_ns":50,"search_ns":75,"other_ns":0,
         "fences_saved":3,"flushes_coalesced":1,"group_commits":1,
         "group_commit_entries":5,"group_commit_size":5,"trace":[]}|}
      schema
  in
  List.iter
    (fun schema ->
      match Pmem.Stats.of_json_string (doc schema) with
      | Error e ->
          Alcotest.(check string) (schema ^ " rejected by schema")
            (Printf.sprintf "Stats.of_json: unknown schema %S" schema)
            e
      | Ok _ -> Alcotest.failf "%s document accepted" schema)
    [ "nvalloc/stats/v1"; "nvalloc/stats/v2"; "nvalloc/stats/v3" ]

let test_stats_json_rejects () =
  List.iter
    (fun s ->
      match Pmem.Stats.of_json_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("of_json accepted: " ^ s))
    [ "{}"; "{\"schema\":\"nvalloc/stats/v2\"}"; "[1,2]"; "not json" ]

(* Simulated times are whole ns: a fractional one is an error naming the
   field, never a silent truncation. *)
let test_stats_json_non_integral_time () =
  let doc =
    match Pmem.Stats.to_json (populated_stats ()) with
    | J.Obj fields ->
        J.Obj (List.map (fun (k, v) -> if k = "fence_ns" then (k, J.Num 0.5) else (k, v)) fields)
    | _ -> Alcotest.fail "stats JSON is not an object"
  in
  match Pmem.Stats.of_json doc with
  | Error e ->
      Alcotest.(check string)
        "names the field" "Stats.of_json: non-integral time \"fence_ns\" = 0.5" e
  | Ok _ -> Alcotest.fail "fractional fence_ns accepted"

let test_stats_reset_clears_trace () =
  let st = populated_stats () in
  Alcotest.(check bool) "trace non-empty before" true (Pmem.Stats.trace st <> []);
  Pmem.Stats.reset st;
  Alcotest.(check int) "flushes zero" 0 (Pmem.Stats.flushes st);
  Alcotest.(check bool) "trace cleared" true (Pmem.Stats.trace st = []);
  Alcotest.(check string) "reset = fresh" (Pmem.Stats.to_json_string (Pmem.Stats.create ~trace_limit:8 ()))
    (Pmem.Stats.to_json_string st);
  (* And the trace records again after the reset. *)
  Pmem.Stats.record_flush st Pmem.Stats.Meta ~addr:64 ~reflush:false ~sequential:true ~ns:1;
  Alcotest.(check int) "records after reset" 1 (List.length (Pmem.Stats.trace st))

let test_stats_trace_limit_zero () =
  let st = Pmem.Stats.create ~trace_limit:0 () in
  Pmem.Stats.record_flush st Pmem.Stats.Meta ~addr:64 ~reflush:false ~sequential:true ~ns:1;
  Alcotest.(check int) "counts still work" 1 (Pmem.Stats.flushes st);
  Alcotest.(check bool) "no trace kept" true (Pmem.Stats.trace st = []);
  Pmem.Stats.reset st;
  Alcotest.(check int) "reset fine" 0 (Pmem.Stats.flushes st)

let test_stats_trace_limit_negative () =
  Alcotest.check_raises "negative trace_limit"
    (Invalid_argument "Pmem.Stats.create: trace_limit must be >= 0 (got -1)") (fun () ->
      ignore (Pmem.Stats.create ~trace_limit:(-1) ()))

let test_device_reset_stats () =
  (* Device.reset_stats clears the reflush bookkeeping too: the same
     line flushed right after a reset is NOT counted as a reflush. *)
  let dev = Pmem.Device.create ~size:(1 lsl 20) () in
  let clock = Sim.Clock.create () in
  Pmem.Device.write_int dev 64 0xdead;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:64 ~len:8;
  Pmem.Device.write_int dev 64 0xbeef;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:64 ~len:8;
  Alcotest.(check int) "reflush seen" 1 (Pmem.Stats.reflushes (Pmem.Device.stats dev));
  Pmem.Device.reset_stats dev;
  Alcotest.(check int) "counters cleared" 0 (Pmem.Stats.flushes (Pmem.Device.stats dev));
  Pmem.Device.write_int dev 64 0xf00d;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:64 ~len:8;
  Alcotest.(check int) "no stale reflush" 0 (Pmem.Stats.reflushes (Pmem.Device.stats dev))

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_errors;
    Alcotest.test_case "json escape sequences" `Quick test_json_escapes;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    Alcotest.test_case "json error messages are pinned" `Quick test_json_error_stability;
    Alcotest.test_case "histogram" `Quick test_histogram;
    QCheck_alcotest.to_alcotest prop_histogram_merge;
    Alcotest.test_case "histogram merge edge cases" `Quick test_histogram_merge_empty;
    Alcotest.test_case "ring bounds + drop-oldest" `Quick test_ring_bounds;
    Alcotest.test_case "ring capacity validation" `Quick test_ring_capacity_validation;
    Alcotest.test_case "name interning" `Quick test_interning;
    Alcotest.test_case "same-seed trace is byte-identical" `Quick test_trace_determinism;
    Alcotest.test_case "trace JSON is well-formed" `Quick test_trace_validity;
    Alcotest.test_case "telemetry does not perturb simulation" `Quick test_zero_perturbation;
    Alcotest.test_case "fuzz plan replay with sink" `Quick test_fuzz_plan_telemetry;
    Alcotest.test_case "attr: blame tree exact attribution" `Quick test_attr_blame_tree;
    Alcotest.test_case "attr: orphan charge, reset, clamp" `Quick test_attr_edge_cases;
    Alcotest.test_case "attr: slo windows + violations + burn" `Quick test_attr_slo_windows;
    Alcotest.test_case "attr: invalid window rejected" `Quick test_attr_invalid_window;
    Alcotest.test_case "slo report: deterministic + non-perturbing" `Quick
      test_slo_report_determinism;
    Alcotest.test_case "slo report: regression gate" `Quick test_slo_report_gate;
    Alcotest.test_case "stats: json round trip" `Quick test_stats_json_roundtrip;
    Alcotest.test_case "stats: json rejects bad input" `Quick test_stats_json_rejects;
    Alcotest.test_case "stats: json rejects a non-integral time" `Quick
      test_stats_json_non_integral_time;
    Alcotest.test_case "stats: v1-v3 rejected" `Quick test_stats_json_old_schemas_rejected;
    Alcotest.test_case "stats: reset clears trace" `Quick test_stats_reset_clears_trace;
    Alcotest.test_case "stats: trace_limit 0" `Quick test_stats_trace_limit_zero;
    Alcotest.test_case "stats: negative trace_limit" `Quick test_stats_trace_limit_negative;
    Alcotest.test_case "device: reset_stats clears reflush state" `Quick test_device_reset_stats;
  ]
