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
  Alcotest.(check bool) "malloc:small histogram present" true
    (String.length csv > 0
    && List.exists
         (fun line -> String.length line >= 13 && String.sub line 0 13 = "malloc:small,")
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

(* The recording calls by name, for hand-driven tests. *)
let enter sink ~tid ~name ~ts = Telemetry.enter sink ~tid ~name:(Telemetry.intern sink name) ~ts

let enter_root sink ~tid ~name ~ts =
  Telemetry.enter_root sink ~tid ~name:(Telemetry.intern sink name) ~ts

let charge sink ~tid ~name ~ns = Telemetry.charge sink ~tid ~name:(Telemetry.intern sink name) ~ns

let find_histogram sink name =
  List.find_opt (fun h -> Telemetry.Histogram.name h = name) (Telemetry.histograms sink)

let test_attr_blame_tree () =
  (* Hand-driven op: charges land on (frame, component) leaves, frame
     self-time is wall minus children and charges, the root completion
     feeds the op histogram, and the folded export is exact. *)
  let sink = Telemetry.create () in
  let a = Telemetry.enable_attribution sink in
  Alcotest.(check bool) "enable is idempotent" true (Telemetry.enable_attribution sink == a);
  enter_root sink ~tid:3 ~name:"op" ~ts:0;
  charge sink ~tid:3 ~name:"fence" ~ns:10;
  enter sink ~tid:3 ~name:"refill" ~ts:20;
  charge sink ~tid:3 ~name:"flush" ~ns:30;
  Telemetry.leave sink ~tid:3 ~ts:60;
  Telemetry.leave sink ~tid:3 ~ts:100;
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
  charge sink ~tid:0 ~name:"orphan" ~ns:5;
  (* Leaving with no open frame is a no-op. *)
  Telemetry.leave sink ~tid:0 ~ts:50;
  Alcotest.(check string) "orphan charge kept" "orphan 5\n" (A.folded a);
  Alcotest.(check int) "no span from an empty stack" 0 (Telemetry.events_recorded sink);
  (* enter_root resets a stack left open by a faulted op. *)
  enter_root sink ~tid:0 ~name:"op1" ~ts:0;
  enter sink ~tid:0 ~name:"inner" ~ts:1;
  Alcotest.(check int) "two frames open" 2 (Telemetry.depth sink ~tid:0);
  enter_root sink ~tid:0 ~name:"op2" ~ts:2;
  Alcotest.(check int) "root reset the stack" 1 (Telemetry.depth sink ~tid:0);
  (* Charges beyond the frame's wall time clamp self at zero (batched
     flush charges are pipeline occupancy and can outlast the op), but
     the op histogram still records the true wall time. *)
  charge sink ~tid:0 ~name:"pipeline" ~ns:1000;
  Telemetry.leave sink ~tid:0 ~ts:52;
  let h = A.op_histogram a "op2" in
  Alcotest.(check (float 1e-9)) "wall time not inflated" 50.0 (Telemetry.Histogram.mean h);
  List.iter
    (fun (path, self, _) ->
      if String.concat ";" path = "op2" then
        Alcotest.(check int) "self clamped at 0" 0 self)
    (A.nodes a)

let test_region_one_name () =
  (* A region's span, histogram and blame node carry one name. A frame
     opened before attribution was enabled settles no blame node, and
     neither do the frames and charges under it; a root opened after
     does. *)
  let sink = Telemetry.create () in
  enter_root sink ~tid:1 ~name:"early" ~ts:0;
  let a = Telemetry.enable_attribution sink in
  enter sink ~tid:1 ~name:"child" ~ts:5;
  charge sink ~tid:1 ~name:"fence" ~ns:2;
  Telemetry.leave sink ~tid:1 ~ts:9;
  Telemetry.leave sink ~tid:1 ~ts:10;
  Alcotest.(check string) "nothing settled" "" (A.folded a);
  Alcotest.(check (list string)) "no op completion" [] (A.op_names a);
  enter_root sink ~tid:1 ~name:"late" ~ts:20;
  let flush = Telemetry.intern sink "flush:meta" and addr = Telemetry.intern sink "addr" in
  Telemetry.leaf sink ~tid:1 ~name:flush ~ts:21 ~dur:4 ~k1:addr ~v1:64 ~k2:(-1) ~v2:0;
  Telemetry.leave2 sink ~tid:1 ~ts:30 ~k1:addr ~v1:128 ~k2:(-1) ~v2:0;
  Alcotest.(check string) "late root settled" "late 6\nlate;flush:meta 4\n" (A.folded a);
  Alcotest.(check (list string)) "late op completed" [ "late" ] (A.op_names a);
  Alcotest.(check (list (triple string int (float 0.0))))
    "one histogram per region and leaf name"
    [ ("child", 1, 4.0); ("early", 1, 10.0); ("flush:meta", 1, 4.0); ("late", 1, 10.0) ]
    (List.map
       (fun h -> Telemetry.Histogram.(name h, count h, total h))
       (Telemetry.histograms sink));
  Alcotest.(check int) "one span per region and leaf" 4 (Telemetry.events_recorded sink);
  Alcotest.(check bool) "the root span carries its args" true
    (List.exists
       (fun line -> String.ends_with ~suffix:"late addr=128" line)
       (Telemetry.tail_events sink ~n:4))

let test_attr_slo_windows () =
  let sink = Telemetry.create () in
  let a = Telemetry.enable_attribution sink in
  A.set_slo a ~window_ns:100.0 ~targets:[ ("op", 10.0, 0.9) ];
  let complete ~start ~stop =
    enter_root sink ~tid:0 ~name:"op" ~ts:start;
    Telemetry.leave sink ~tid:0 ~ts:stop
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

(* --- Enabled-path cost --------------------------------------------------- *)

(* Minor words per call of [f i], after a warm-up that creates every lane,
   node, histogram and window the measured calls touch. *)
let words_per_call f =
  for i = 0 to 99 do
    f i
  done;
  let before = Gc.minor_words () in
  for i = 100 to 10_099 do
    f i
  done;
  (Gc.minor_words () -. before) /. 10_000.0

(* The recording calls an enabled sink runs per region, leaf, charge,
   sample, event and op completion cost stores only: no allocation even
   when every call switches thread (tids 1 and 2 alternate), with a bare
   sink and with attribution and SLO windows on. *)
let test_enabled_primitives_allocation_free () =
  let check_sink ~attribution =
    let sink = Telemetry.create () in
    let a = if attribution then Some (Telemetry.enable_attribution sink) else None in
    Option.iter (fun a -> A.set_slo a ~window_ns:1e12 ~targets:[ ("op", 50.0, 0.9) ]) a;
    let name = Telemetry.intern sink "ev" and key = Telemetry.intern sink "k" in
    let fence = Telemetry.intern sink "fence" and inner = Telemetry.intern sink "inner" in
    let op = Telemetry.intern sink "op" in
    let h = Telemetry.Histogram.create "h" in
    let tid i = 1 + (i land 1) in
    (* An open root frame on each thread, so frames and charges nest. *)
    Telemetry.enter_root sink ~tid:1 ~name:op ~ts:0;
    Telemetry.enter_root sink ~tid:2 ~name:op ~ts:0;
    let check label f =
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s (%s): minor words per call" label
           (if attribution then "attribution on" else "sink only"))
        0.0 (words_per_call f)
    in
    check "leaf" (fun i ->
        Telemetry.leaf sink ~tid:(tid i) ~name:fence ~ts:i ~dur:3 ~k1:key ~v1:i ~k2:(-1) ~v2:0);
    check "charge" (fun i -> Telemetry.charge sink ~tid:(tid i) ~name:fence ~ns:20);
    check "sample" (fun i -> Telemetry.sample sink ~tid:(tid i) ~name ~ts:i ~num:i ~den:64);
    check "counter_int" (fun i -> Telemetry.counter_int sink ~tid:(tid i) ~name ~ts:i ~value:i);
    check "counter_ratio" (fun i ->
        Telemetry.counter_ratio sink ~tid:(tid i) ~name ~ts:i ~num:i ~den:64);
    check "Histogram.observe" (fun i -> Telemetry.Histogram.observe h (i land 1023));
    check "Histogram.observe_ratio" (fun i ->
        Telemetry.Histogram.observe_ratio h ~num:(i land 1023) ~den:64);
    check "enter + leave" (fun i ->
        Telemetry.enter sink ~tid:(tid i) ~name:inner ~ts:i;
        Telemetry.leave sink ~tid:(tid i) ~ts:(i + 5));
    check "enter + leave2" (fun i ->
        Telemetry.enter sink ~tid:(tid i) ~name:inner ~ts:i;
        Telemetry.leave2 sink ~tid:(tid i) ~ts:(i + 5) ~k1:key ~v1:i ~k2:key ~v2:(i + 1));
    check "enter by interned string + leave" (fun i ->
        Telemetry.enter sink ~tid:(tid i) ~name:(Telemetry.intern sink "named") ~ts:i;
        Telemetry.leave sink ~tid:(tid i) ~ts:(i + 5));
    check "root op" (fun i ->
        Telemetry.enter_root sink ~tid:(tid i) ~name:op ~ts:i;
        Telemetry.charge sink ~tid:(tid i) ~name:fence ~ns:20;
        Telemetry.leave sink ~tid:(tid i) ~ts:(i + 40 + (i land 31)));
    Option.iter
      (fun a ->
        Alcotest.(check bool) "root ops reached the SLO windows" true (A.violations a ~op:"op" > 0))
      a
  in
  check_sink ~attribution:false;
  check_sink ~attribution:true

(* Reference model of attribution over plain keyed tables:
   (parent, name) -> node, (tid, op) -> histogram and
   (op, window index) -> window. *)
module Model = struct
  type frame = { node : int; fname : string; fts : int; mutable facc : int }

  type t = {
    window_ns : float;
    targets : (string * float) list;
    edges : (int * string, int) Hashtbl.t;
    node_info : (int, int * string) Hashtbl.t; (* node -> (parent, name) *)
    self : (int, int ref * int ref) Hashtbl.t; (* node -> (self ns, count) *)
    stacks : (int, frame list) Hashtbl.t;
    ops : (int * string, Telemetry.Histogram.t) Hashtbl.t;
    windows : (string * int, Telemetry.Histogram.t * int ref) Hashtbl.t;
  }

  let create ~window_ns ~targets =
    {
      window_ns;
      targets;
      edges = Hashtbl.create 16;
      node_info = Hashtbl.create 16;
      self = Hashtbl.create 16;
      stacks = Hashtbl.create 4;
      ops = Hashtbl.create 8;
      windows = Hashtbl.create 64;
    }

  let node m ~parent ~name =
    match Hashtbl.find_opt m.edges (parent, name) with
    | Some n -> n
    | None ->
        let n = Hashtbl.length m.edges + 1 in
        Hashtbl.replace m.edges (parent, name) n;
        Hashtbl.replace m.node_info n (parent, name);
        Hashtbl.replace m.self n (ref 0, ref 0);
        n

  let add m n ns =
    let self, count = Hashtbl.find m.self n in
    self := !self + ns;
    incr count

  let stack m tid = Option.value ~default:[] (Hashtbl.find_opt m.stacks tid)
  let top_node = function f :: _ -> f.node | [] -> 0

  let enter m ~tid ~name ~ts =
    let st = stack m tid in
    let node = node m ~parent:(top_node st) ~name in
    Hashtbl.replace m.stacks tid ({ node; fname = name; fts = ts; facc = 0 } :: st)

  let enter_root m ~tid ~name ~ts =
    Hashtbl.replace m.stacks tid [];
    enter m ~tid ~name ~ts

  let charge m ~tid ~name ~ns =
    let st = stack m tid in
    add m (node m ~parent:(top_node st) ~name) ns;
    match st with f :: _ -> f.facc <- f.facc + ns | [] -> ()

  let find_or_add tbl key make =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.replace tbl key v;
        v

  let complete m ~tid ~op ~ts ~dur =
    Telemetry.Histogram.observe
      (find_or_add m.ops (tid, op) (fun () -> Telemetry.Histogram.create op))
      dur;
    let idx = int_of_float (float_of_int ts /. m.window_ns) in
    let h, viol =
      find_or_add m.windows (op, idx) (fun () -> (Telemetry.Histogram.create op, ref 0))
    in
    Telemetry.Histogram.observe h dur;
    match List.assoc_opt op m.targets with
    | Some target when float_of_int dur > target -> incr viol
    | _ -> ()

  let leave m ~tid ~ts =
    match stack m tid with
    | [] -> ()
    | f :: rest ->
        Hashtbl.replace m.stacks tid rest;
        let dur = Int.max 0 (ts - f.fts) in
        add m f.node (Int.max 0 (dur - f.facc));
        (match rest with
        | g :: _ -> g.facc <- g.facc + dur
        | [] -> complete m ~tid ~op:f.fname ~ts ~dur)

  let nodes m =
    let rec path n =
      if n = 0 then []
      else
        let parent, name = Hashtbl.find m.node_info n in
        path parent @ [ name ]
    in
    Hashtbl.fold
      (fun n (self, count) acc -> (path n, !self, !count) :: acc)
      m.self []
    |> List.sort compare

  let op_names m = List.sort_uniq compare (Hashtbl.fold (fun (_, op) _ acc -> op :: acc) m.ops [])

  let op_thread_histograms m op =
    Hashtbl.fold (fun (tid, o) h acc -> if o = op then (tid, h) :: acc else acc) m.ops []
    |> List.sort (fun (t1, _) (t2, _) -> compare t1 t2)
    |> List.map snd

  let windows m op =
    Hashtbl.fold
      (fun (o, idx) (h, viol) acc -> if o = op then (idx, h, !viol) :: acc else acc)
      m.windows []
    |> List.sort (fun (i1, _, _) (i2, _, _) -> compare i1 i2)
end

let model_ops = [ "op1"; "op2"; "op3" ]
let model_targets = [ ("op1", 20.0); ("op2", 5.0) ]

(* Everything a histogram reports, so two histograms compare as values. *)
let hist_summary h =
  let module H = Telemetry.Histogram in
  ( H.name h,
    H.count h,
    H.total h,
    H.min_value h,
    H.max_value h,
    List.map (H.percentile h) [ 0.0; 0.5; 0.9; 0.99; 1.0 ] )

let agrees_with_model a m =
  Alcotest.(check (list (triple (list string) int int)))
    "nodes" (Model.nodes m) (A.nodes a);
  Alcotest.(check (list string)) "op names" (Model.op_names m) (A.op_names a);
  List.iter
    (fun op ->
      let summaries = List.map hist_summary in
      Alcotest.(check bool) (op ^ ": per-thread histograms") true
        (summaries (Model.op_thread_histograms m op) = summaries (A.op_thread_histograms a op));
      let windows = List.map (fun (idx, h, v) -> (idx, hist_summary h, v)) in
      Alcotest.(check bool) (op ^ ": windows") true
        (windows (Model.windows m op) = windows (A.windows a ~op));
      Alcotest.(check int) (op ^ ": violations")
        (List.fold_left (fun acc (_, _, v) -> acc + v) 0 (Model.windows m op))
        (A.violations a ~op))
    model_ops

(* One step of a random script: [(kind, thread, name, clock advance)].
   Each thread has its own clock, so completions reach the windows out of
   order, as lagging simulated threads do. *)
let run_script ~window_ns steps =
  let sink = Telemetry.create ~ring_capacity:4 () in
  let a = Telemetry.enable_attribution sink in
  A.set_slo a ~window_ns
    ~targets:(List.map (fun (op, target) -> (op, target, 0.9)) model_targets);
  let m = Model.create ~window_ns ~targets:model_targets in
  let clocks = Array.make 3 0 in
  let frame_names = [| "refill"; "morph"; "wal"; "extent" |] in
  let leaf_names = [| "fence"; "flush"; "refill"; "lock_wait" |] in
  List.iter
    (fun (kind, th, k, dt) ->
      let tid = 10 + th in
      clocks.(th) <- clocks.(th) + dt;
      let ts = clocks.(th) in
      match kind with
      | 0 ->
          enter sink ~tid ~name:frame_names.(k) ~ts;
          Model.enter m ~tid ~name:frame_names.(k) ~ts
      | 1 ->
          let op = List.nth model_ops (k mod 3) in
          enter_root sink ~tid ~name:op ~ts;
          Model.enter_root m ~tid ~name:op ~ts
      | 2 ->
          charge sink ~tid ~name:leaf_names.(k) ~ns:dt;
          Model.charge m ~tid ~name:leaf_names.(k) ~ns:dt
      | _ ->
          Telemetry.leave sink ~tid ~ts;
          Model.leave m ~tid ~ts)
    steps;
  (sink, a, m, Array.fold_left Int.max 0 clocks)

let script_gen =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (quad (int_range 0 4) (int_range 0 2) (int_range 0 3) (int_range 0 30)))

let prop_attr_model =
  QCheck.Test.make ~name:"attr: lanes, linked tree and windows equal the keyed-table model"
    ~count:200
    (QCheck.make QCheck.Gen.(pair (oneofl [ 1.0; 16.0; 1000.0 ]) script_gen))
    (fun (window_ns, steps) ->
      let _, a, m, _ = run_script ~window_ns steps in
      agrees_with_model a m;
      true)

(* A completion far past the last window materialises that one window:
   window memory follows the windows used, not simulated time / width
   ([--window-ns] is user input). *)
let test_attr_far_window () =
  let steps = QCheck.Gen.generate1 ~rand:(Random.State.make [| 17 |]) script_gen in
  let sink, a, m, last = run_script ~window_ns:1.0 steps in
  let count () = List.length (A.windows a ~op:"op1") in
  let before = count () in
  let ts = last + 10_000_000 in
  let bytes = Gc.allocated_bytes () in
  enter_root sink ~tid:10 ~name:"op1" ~ts;
  Telemetry.leave sink ~tid:10 ~ts:(ts + 30);
  let allocated = Gc.allocated_bytes () -. bytes in
  Model.enter_root m ~tid:10 ~name:"op1" ~ts;
  Model.leave m ~tid:10 ~ts:(ts + 30);
  Alcotest.(check int) "one window materialised" (before + 1) (count ());
  Alcotest.(check bool)
    (Printf.sprintf "under 1 MiB allocated (%.0f bytes)" allocated)
    true
    (allocated < 1048576.0);
  agrees_with_model a m

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

(* On a traced Larson run with attribution on from the start, each
   region and leaf name reads the same in every view: its spans in the
   trace add up to its histogram, which counts exactly the blame nodes
   that end in that name, and a root-only op's histogram is its merged
   per-op latency histogram. Samples have counter events and a histogram
   but no node; blame-only charges a node and no histogram.
   [wal:checkpoint] is left out of the op comparison: it is a root on
   the maintenance daemon and a nested region inline. *)
let test_views_agree () =
  let _, sink, _ = attributed_run ~seed:13 in
  let a = Option.get (Telemetry.attribution sink) in
  Alcotest.(check int) "whole trace kept" 0 (Telemetry.events_dropped sink);
  let traced = Hashtbl.create 32 in
  (match J.parse (Telemetry.chrome_json sink) with
  | Error e -> Alcotest.fail e
  | Ok json ->
      List.iter
        (fun ev ->
          let field name f = Option.bind (J.member name ev) f in
          match (field "name" J.str, field "ph" J.str) with
          | Some name, Some ("X" | "C") ->
              let n, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt traced name) in
              Hashtbl.replace traced name
                (n + 1, total +. Option.value ~default:0.0 (field "dur" J.num))
          | _ -> ())
        (Option.value ~default:[] (Option.bind (J.member "traceEvents" json) J.arr)));
  let node_counts = Hashtbl.create 32 in
  List.iter
    (fun (path, _, count) ->
      let name = List.nth path (List.length path - 1) in
      Hashtbl.replace node_counts name
        (count + Option.value ~default:0 (Hashtbl.find_opt node_counts name)))
    (A.nodes a);
  let samples = [ "group_commit"; "wpq_depth" ] in
  let charges = [ "dram"; "lock_wait"; "pm_read"; "search" ] in
  let hists = Telemetry.histograms sink in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true (find_histogram sink name <> None))
    [ "malloc:small"; "free"; "refill"; "wal:append"; "wal:group_commit"; "flush:wal"; "fence" ];
  List.iter
    (fun h ->
      let name = Telemetry.Histogram.name h in
      let count = Telemetry.Histogram.count h in
      let sample = List.mem name samples in
      Alcotest.(check (pair int (float 0.0))) (name ^ ": trace events")
        (count, if sample then 0.0 else Telemetry.Histogram.total h)
        (Option.value ~default:(0, 0.0) (Hashtbl.find_opt traced name));
      Alcotest.(check int) (name ^ ": blame node counts")
        (if sample then 0 else count)
        (Option.value ~default:0 (Hashtbl.find_opt node_counts name)))
    hists;
  Hashtbl.iter
    (fun name _ ->
      if not (List.mem name charges) then
        Alcotest.(check bool) (name ^ ": has a histogram") true (find_histogram sink name <> None))
    node_counts;
  List.iter
    (fun op ->
      Alcotest.(check bool) (op ^ ": histogram = op histogram") true
        (hist_summary (Option.get (find_histogram sink op)) = hist_summary (A.op_histogram a op)))
    [ "malloc:small"; "free" ]

(* --- Stats JSON writer + reset satellites --------------------------------- *)

(* Every counter and category time distinct, three traced metadata
   flushes (one of each classification) and three untraced data
   flushes. *)
let populated_stats () =
  let st = Pmem.Stats.create () in
  let flush cat addr ~reflush ~sequential ns =
    Pmem.Stats.record_flush st cat ~addr ~reflush ~sequential ~ns
  in
  flush Meta 64 ~reflush:true ~sequential:false 100;
  flush Wal 128 ~reflush:false ~sequential:true 200;
  flush Log 192 ~reflush:false ~sequential:false 300;
  flush Data 256 ~reflush:false ~sequential:true 40;
  flush Data 320 ~reflush:false ~sequential:false 50;
  flush Data 384 ~reflush:false ~sequential:false 60;
  List.iter
    (fun (c, n) -> Pmem.Stats.add st c n)
    Pmem.Stats.
      [
        (Fence_ns, 21); (Read_ns, 22); (Search_ns, 23); (Other_ns, 24); (Fences_saved, 25);
        (Flushes_coalesced, 26); (Group_commits, 4); (Group_commit_entries, 10);
        (Poison_hits, 27); (Media_repairs, 28); (Media_quarantines, 29); (Bitrot_flips, 30);
        (Scrub_passes, 31); (Extents_coalesced, 32); (Extent_tree_lookups, 33);
        (Header_flush_lines, 34);
      ];
  st

(* The document bench/e2e reads by key: every key, in order, with the
   derived ratios and the trace. *)
let test_stats_json_pinned () =
  Alcotest.(check string)
    "stats JSON"
    ({|{"schema":"nvalloc/stats/v4","trace_limit":1000,"flushes":6,"reflushes":1,|}
   ^ {|"sequential_flushes":2,"random_flushes":3,"reflush_ratio":0.167,|}
   ^ {|"flush_ns":{"meta":100,"wal":200,"log":300,"data":150},"fence_ns":21,|}
   ^ {|"read_ns":22,"search_ns":23,"other_ns":24,"fences_saved":25,|}
   ^ {|"flushes_coalesced":26,"group_commits":4,"group_commit_entries":10,|}
   ^ {|"group_commit_size":2.500,"poison_hits":27,"media_repairs":28,|}
   ^ {|"media_quarantines":29,"bitrot_flips":30,"scrub_passes":31,|}
   ^ {|"extents_coalesced":32,"extent_tree_lookups":33,"header_flush_lines":34,|}
   ^ {|"trace":[{"cat":"meta","addr":64},{"cat":"wal","addr":128},|}
   ^ {|{"cat":"log","addr":192}]}|})
    (Pmem.Stats.to_json_string (populated_stats ()))

let test_stats_reset_clears_trace () =
  let st = populated_stats () in
  Alcotest.(check bool) "trace non-empty before" true (Pmem.Stats.trace st <> []);
  Pmem.Stats.reset st;
  Alcotest.(check int) "flushes zero" 0 (Pmem.Stats.get st Flushes);
  Alcotest.(check bool) "trace cleared" true (Pmem.Stats.trace st = []);
  Alcotest.(check string) "reset = fresh" (Pmem.Stats.to_json_string (Pmem.Stats.create ()))
    (Pmem.Stats.to_json_string st);
  (* And the trace records again after the reset. *)
  Pmem.Stats.record_flush st Pmem.Stats.Meta ~addr:64 ~reflush:false ~sequential:true ~ns:1;
  Alcotest.(check int) "records after reset" 1 (List.length (Pmem.Stats.trace st))

let test_device_reset_stats () =
  (* Device.reset_stats clears the reflush bookkeeping too: the same
     line flushed right after a reset is NOT counted as a reflush. *)
  let dev = Pmem.Device.create ~size:(1 lsl 20) () in
  let clock = Sim.Clock.create () in
  Pmem.Device.write_int dev 64 0xdead;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:64 ~len:8;
  Pmem.Device.write_int dev 64 0xbeef;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:64 ~len:8;
  Alcotest.(check int) "reflush seen" 1 (Pmem.Stats.get (Pmem.Device.stats dev) Reflushes);
  Pmem.Device.reset_stats dev;
  Alcotest.(check int) "counters cleared" 0 (Pmem.Stats.get (Pmem.Device.stats dev) Flushes);
  Pmem.Device.write_int dev 64 0xf00d;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:64 ~len:8;
  Alcotest.(check int) "no stale reflush" 0 (Pmem.Stats.get (Pmem.Device.stats dev) Reflushes)

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
    Alcotest.test_case "regions: one name in span, histogram and blame" `Quick
      test_region_one_name;
    Alcotest.test_case "attr: slo windows + violations + burn" `Quick test_attr_slo_windows;
    Alcotest.test_case "attr: invalid window rejected" `Quick test_attr_invalid_window;
    Alcotest.test_case "enabled primitives allocate nothing" `Quick
      test_enabled_primitives_allocation_free;
    QCheck_alcotest.to_alcotest prop_attr_model;
    Alcotest.test_case "attr: a far completion materialises one window" `Quick
      test_attr_far_window;
    Alcotest.test_case "slo report: deterministic + non-perturbing" `Quick
      test_slo_report_determinism;
    Alcotest.test_case "slo report: regression gate" `Quick test_slo_report_gate;
    Alcotest.test_case "regions: spans, histograms and blame nodes agree" `Quick
      test_views_agree;
    Alcotest.test_case "stats: json writer pinned" `Quick test_stats_json_pinned;
    Alcotest.test_case "stats: reset clears trace" `Quick test_stats_reset_clears_trace;
    Alcotest.test_case "device: reset_stats clears reflush state" `Quick test_device_reset_stats;
  ]
