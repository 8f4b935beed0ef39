(* SLO attribution report: turn a blame-tree attribution handle
   ([Telemetry.Attr]) into the JSON document behind [nvalloc-cli slo]
   (schema nvalloc/slo/v1), a human-readable rendering, and the
   regression gate [scripts/slo_check.sh] runs against a committed
   baseline — the BENCH_micro.json pattern extended to tail attribution.

   Everything here is derived from attribution state after the run;
   building a report performs no simulated work and the output is
   byte-deterministic for a given seed (sorted paths, merged per-thread
   histograms, arrival-ordered events). *)

module Json = Telemetry.Json
module Attr = Telemetry.Attr
module Histogram = Telemetry.Histogram

let schema = "nvalloc/slo/v1"

type meta = {
  workload : string;
  allocator : string;
  threads : int;
  seed : int;
  batching : bool;
  makespan_ns : float;
  total_ops : int;
}

(* Burn rate: the fraction of the error budget (1 - goal) the violating
   fraction of ops consumed. 1.0 = budget exactly spent; > 1 = SLO
   broken. *)
let burn_rate ~violations ~count ~goal =
  if count = 0 then 0.0 else float_of_int violations /. float_of_int count /. (1.0 -. goal)

let hist_fields h =
  [
    ("count", Json.Num (float_of_int (Histogram.count h)));
    ("p50_ns", Json.Num (Histogram.percentile h 0.50));
    ("p90_ns", Json.Num (Histogram.percentile h 0.90));
    ("p99_ns", Json.Num (Histogram.percentile h 0.99));
    ("p999_ns", Json.Num (Histogram.percentile h 0.999));
    ("max_ns", Json.Num (Histogram.max_value h));
    ("mean_ns", Json.Num (Histogram.mean h));
  ]

let op_json attr op =
  (* Per-thread histograms are merged here — percentiles come from the
     merged distribution, not an average of per-thread percentiles. *)
  let h = Attr.op_histogram attr op in
  let count = Histogram.count h in
  let target =
    List.find_opt (fun (o, _, _) -> o = op) (Attr.slo_targets attr)
  in
  let windows = Attr.windows attr ~op in
  let slo_fields =
    match target with
    | None -> [ ("target_ns", Json.Null) ]
    | Some (_, target_ns, goal) ->
        let violations = Attr.violations attr ~op in
        let worst =
          List.fold_left
            (fun acc (idx, wh, wv) ->
              let b = burn_rate ~violations:wv ~count:(Histogram.count wh) ~goal in
              match acc with Some (_, _, _, best) when best >= b -> acc | _ -> Some (idx, wh, wv, b))
            None windows
        in
        [
          ("target_ns", Json.Num target_ns);
          ("goal", Json.Num goal);
          ("violations", Json.Num (float_of_int violations));
          ("burn_rate", Json.Num (burn_rate ~violations ~count ~goal));
          ( "worst_window",
            match worst with
            | None -> Json.Null
            | Some (idx, wh, wv, b) ->
                Json.Obj
                  ([
                     ("index", Json.Num (float_of_int idx));
                     ("start_ns", Json.Num (float_of_int idx *. Attr.slo_window_ns attr));
                     ("violations", Json.Num (float_of_int wv));
                     ("burn_rate", Json.Num b);
                   ]
                  @ hist_fields wh) );
        ]
  in
  Json.Obj
    ((("op", Json.Str op) :: hist_fields h)
    @ slo_fields
    @ [ ("windows", Json.Num (float_of_int (List.length windows))) ])

(* Aggregate leaf self-time by component name (last path element) across
   all paths: the "fence share" the CI gate watches, independent of
   which op the fence happened under. *)
let component_totals attr =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (path, self, count) ->
      match List.rev path with
      | [] -> ()
      | leaf :: _ ->
          let s, c = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl leaf) in
          Hashtbl.replace tbl leaf (s + self, c + count))
    (Attr.nodes attr);
  Hashtbl.fold (fun name (s, c) acc -> (name, s, c) :: acc) tbl []
  |> List.sort (fun (n1, _, _) (n2, _, _) -> compare n1 n2)

let total_attributed attr = List.fold_left (fun acc (_, self, _) -> acc + self) 0 (Attr.nodes attr)

let build ~meta attr =
  let total = total_attributed attr in
  let share self = if total > 0 then float_of_int self /. float_of_int total else 0.0 in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("workload", Json.Str meta.workload);
      ("allocator", Json.Str meta.allocator);
      ("threads", Json.Num (float_of_int meta.threads));
      ("seed", Json.Num (float_of_int meta.seed));
      ("batching", Json.Bool meta.batching);
      ("window_ns", Json.Num (Attr.slo_window_ns attr));
      ("makespan_ns", Json.Num meta.makespan_ns);
      ("total_ops", Json.Num (float_of_int meta.total_ops));
      ("ops", Json.Arr (List.map (op_json attr) (Attr.op_names attr)));
      ("total_attributed_ns", Json.Num (float_of_int total));
      ( "components",
        Json.Arr
          (List.map
             (fun (name, self, count) ->
               Json.Obj
                 [
                   ("component", Json.Str name);
                   ("self_ns", Json.Num (float_of_int self));
                   ("count", Json.Num (float_of_int count));
                   ("share", Json.Num (share self));
                 ])
             (component_totals attr)) );
      ( "paths",
        Json.Arr
          (List.map
             (fun (path, self, count) ->
               Json.Obj
                 [
                   ("path", Json.Str (String.concat ";" path));
                   ("self_ns", Json.Num (float_of_int self));
                   ("count", Json.Num (float_of_int count));
                   ("share", Json.Num (share self));
                 ])
             (Attr.nodes attr)) );
      ( "events",
        Json.Arr
          (List.map
             (fun (ts, name) ->
               Json.Obj [ ("ts_ns", Json.Num (float_of_int ts)); ("name", Json.Str name) ])
             (Attr.events attr)) );
    ]

(* --- human rendering ------------------------------------------------------ *)

let mem key j = Json.member key j
let fnum key j = Option.bind (mem key j) Json.num
let fstr key j = Option.bind (mem key j) Json.str
let farr key j = Option.value ~default:[] (Option.bind (mem key j) Json.arr)
let g0 = Option.value ~default:0.0
let gs = Option.value ~default:""

let render report =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "SLO report: %s on %s (threads=%.0f seed=%.0f %s)\n"
       (gs (fstr "workload" report))
       (gs (fstr "allocator" report))
       (g0 (fnum "threads" report))
       (g0 (fnum "seed" report))
       (match mem "batching" report with Some (Json.Bool false) -> "sync" | _ -> "batched"));
  Buffer.add_string b
    (Printf.sprintf "makespan %.0f ns, %.0f ops, window %.0f ns\n\n"
       (g0 (fnum "makespan_ns" report))
       (g0 (fnum "total_ops" report))
       (g0 (fnum "window_ns" report)));
  Buffer.add_string b
    (Printf.sprintf "%-14s %8s %9s %9s %9s %9s | %9s %6s %7s %6s\n" "op" "count"
       "p50" "p99" "p999" "max" "target" "goal" "viol" "burn");
  List.iter
    (fun op ->
      Buffer.add_string b
        (Printf.sprintf "%-14s %8.0f %9.0f %9.0f %9.0f %9.0f" (gs (fstr "op" op))
           (g0 (fnum "count" op)) (g0 (fnum "p50_ns" op)) (g0 (fnum "p99_ns" op))
           (g0 (fnum "p999_ns" op)) (g0 (fnum "max_ns" op)));
      (match fnum "target_ns" op with
      | None -> Buffer.add_string b (Printf.sprintf " | %9s" "-")
      | Some t ->
          Buffer.add_string b
            (Printf.sprintf " | %9.0f %6.3f %7.0f %6.2f" t (g0 (fnum "goal" op))
               (g0 (fnum "violations" op))
               (g0 (fnum "burn_rate" op))));
      Buffer.add_char b '\n')
    (farr "ops" report);
  Buffer.add_string b
    (Printf.sprintf "\ncomponents (of %.0f attributed ns):\n"
       (g0 (fnum "total_attributed_ns" report)));
  let comps =
    List.sort
      (fun c1 c2 -> compare (g0 (fnum "self_ns" c2)) (g0 (fnum "self_ns" c1)))
      (farr "components" report)
  in
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "  %-16s %14.0f ns  %6.2f%%  (x%.0f)\n"
           (gs (fstr "component" c)) (g0 (fnum "self_ns" c))
           (100.0 *. g0 (fnum "share" c))
           (g0 (fnum "count" c))))
    comps;
  let events = farr "events" report in
  if events <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "\ndegradation events (%d):\n" (List.length events));
    List.iteri
      (fun i e ->
        if i < 16 then
          Buffer.add_string b
            (Printf.sprintf "  %12.0f  %s\n" (g0 (fnum "ts_ns" e)) (gs (fstr "name" e))))
      events;
    if List.length events > 16 then
      Buffer.add_string b (Printf.sprintf "  ... %d more\n" (List.length events - 16))
  end;
  Buffer.contents b

(* --- regression gate ------------------------------------------------------ *)

(* Tolerances: attribution shares are exactly reproducible for one seed,
   so the slack only needs to absorb legitimate code evolution between
   baseline re-recordings — not measurement noise. A component must gain
   5 share-points AND a quarter of its baseline share to trip (the
   absolute slack keeps sub-percent components from gating on rounding;
   small-but-present components like the fence share ARE gated — a sync
   pipeline inflates fence from under 1% to several %, and catching
   that is this gate's reason to exist); op p99 must jump more than two
   histogram buckets (the buckets are factor-2, so 2.5x means a real
   tail move); any declared burn rate crossing 1.0 (budget exhausted)
   when the baseline had budget left always trips. *)
let share_abs_slack = 0.05
let share_rel_slack = 1.25
let p99_factor = 2.5

let check ~baseline ~current =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (match (fstr "schema" baseline, fstr "schema" current) with
  | Some s1, Some s2 when s1 = schema && s2 = schema -> ()
  | _ -> fail "schema mismatch: expected %s in both documents" schema);
  List.iter
    (fun key ->
      let b = gs (fstr key baseline) and c = gs (fstr key current) in
      if b <> c then fail "%s mismatch: baseline %s vs current %s" key b c)
    [ "workload"; "allocator" ];
  List.iter
    (fun key ->
      let b = g0 (fnum key baseline) and c = g0 (fnum key current) in
      if b <> c then fail "%s mismatch: baseline %g vs current %g" key b c)
    [ "threads"; "seed" ];
  (* Component share gate — the fence-share regression a forced-sync
     pipeline must trip. *)
  let share_of j name =
    List.fold_left
      (fun acc c -> if gs (fstr "component" c) = name then g0 (fnum "share" c) else acc)
      0.0 (farr "components" j)
  in
  List.iter
    (fun c ->
      let name = gs (fstr "component" c) in
      let base = g0 (fnum "share" c) in
      let cur = share_of current name in
      if cur > base +. share_abs_slack && cur > base *. share_rel_slack then
        fail "component %s share regressed: %.1f%% -> %.1f%% of attributed time" name
          (100.0 *. base) (100.0 *. cur))
    (farr "components" baseline);
  (* A dominant component the baseline never saw is also a regression. *)
  List.iter
    (fun c ->
      let name = gs (fstr "component" c) in
      let cur = g0 (fnum "share" c) in
      if cur > 0.10 && share_of baseline name = 0.0 then
        fail "new dominant component %s: %.1f%% of attributed time" name (100.0 *. cur))
    (farr "components" current);
  (* Per-op tail latency and error-budget burn. *)
  let op_of j name =
    List.find_opt (fun o -> gs (fstr "op" o) = name) (farr "ops" j)
  in
  List.iter
    (fun bop ->
      let name = gs (fstr "op" bop) in
      match op_of current name with
      | None -> fail "op class %s missing from current report" name
      | Some cop ->
          let bp99 = g0 (fnum "p99_ns" bop) and cp99 = g0 (fnum "p99_ns" cop) in
          if bp99 > 0.0 && cp99 > bp99 *. p99_factor then
            fail "op %s p99 regressed: %.0f ns -> %.0f ns (> %.1fx)" name bp99 cp99
              p99_factor;
          (match (fnum "burn_rate" bop, fnum "burn_rate" cop) with
          | Some bb, Some cb when bb <= 1.0 && cb > 1.0 ->
              fail "op %s error budget exhausted: burn rate %.2f -> %.2f" name bb cb
          | _ -> ()))
    (farr "ops" baseline);
  match !failures with [] -> Ok () | fs -> Error (List.rev fs)
