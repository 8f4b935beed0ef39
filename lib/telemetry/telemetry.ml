(* Simulated-time telemetry: per-thread bounded event rings, log-bucketed
   latency histograms, and exporters (Chrome trace-event JSON, histogram
   CSV). The library is dependency-free so every layer of the stack —
   sim, pmem, core, harness — can emit into it without cycles.

   Cost model: a disabled sink is never consulted (emitters hold a
   [Telemetry.t option] and test it with one load+compare on the hot
   path). An enabled sink finds the emitting thread's lane through a
   last-lane cache, probing its table only on a thread switch; recording
   an event, a blame charge, a frame or an op completion is then stores
   into preallocated arrays — no allocation (pinned by
   test/test_telemetry.ml, "enabled primitives allocate nothing") and no
   clock charge, so enabling telemetry never changes simulated results. *)

(* --- minimal JSON ------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' | '\\' ->
            Buffer.add_char b '\\';
            Buffer.add_char b c
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  (* Numbers print as integers when exact, else with three decimals —
     matching how the exporters format simulated nanoseconds, so a
     parse/print round trip is stable. *)
  let add_num b v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" v)
    else Buffer.add_string b (Printf.sprintf "%.3f" v)

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num v -> add_num b v
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            write b x)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\":";
            write b v)
          fields;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    write b v;
    Buffer.contents b

  exception Bad of string

  (* Recursive-descent parser over the full string; enough JSON for our
     own exporters' output and the stats dumps. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              (if !pos >= n then fail "truncated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char b '"'
                 | '\\' -> Buffer.add_char b '\\'
                 | '/' -> Buffer.add_char b '/'
                 | 'n' -> Buffer.add_char b '\n'
                 | 't' -> Buffer.add_char b '\t'
                 | 'r' -> Buffer.add_char b '\r'
                 | 'b' -> Buffer.add_char b '\b'
                 | 'f' -> Buffer.add_char b '\012'
                 | 'u' ->
                     if !pos + 4 >= n then fail "truncated \\u escape";
                     let code =
                       match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                       | Some c -> c
                       | None -> fail "bad \\u escape"
                     in
                     (* Our own emitters only escape control bytes; decode
                        the Latin-1 range and reject the rest. *)
                     if code > 0xFF then fail "unsupported \\u escape"
                     else Buffer.add_char b (Char.chr code);
                     pos := !pos + 4
                 | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
              incr pos;
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> v
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          expect '{';
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ()
              | Some '}' -> incr pos
              | _ -> fail "expected ',' or '}'"
            in
            members ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          expect '[';
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements ()
              | Some ']' -> incr pos
              | _ -> fail "expected ',' or ']'"
            in
            elements ();
            Arr (List.rev !items)
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let num = function Num v -> Some v | _ -> None
  let str = function Str s -> Some s | _ -> None
  let arr = function Arr items -> Some items | _ -> None
end

(* --- log-bucketed histograms -------------------------------------------- *)

module Histogram = struct
  let nbuckets = 64

  (* [acc] holds sum, min and max: a float array stores its elements
     unboxed, where mutable float fields of this mixed record would
     allocate a box per update. *)
  type t = {
    name : string;
    buckets : int array; (* bucket i: values in [2^(i-1), 2^i) ns; bucket 0: < 1 ns *)
    mutable n : int;
    acc : float array;
  }

  let create name =
    { name; buckets = Array.make nbuckets 0; n = 0; acc = [| 0.0; infinity; neg_infinity |] }

  let name t = t.name

  (* Takes the whole part of the value as an int: this function is not
     inlined, so a float argument would be boxed on every observation. *)
  let bucket_of i =
    (* Number of significant bits of [i]: values in [2^(b-1), 2^b). *)
    let rec bits acc i = if i = 0 then acc else bits (acc + 1) (i lsr 1) in
    min (nbuckets - 1) (bits 0 i)

  let[@inline] observe_float t v =
    let v = if v < 0.0 then 0.0 else v in
    let b = bucket_of (int_of_float v) in
    t.buckets.(b) <- t.buckets.(b) + 1;
    t.n <- t.n + 1;
    let acc = t.acc in
    acc.(0) <- acc.(0) +. v;
    if v < acc.(1) then acc.(1) <- v;
    if v > acc.(2) then acc.(2) <- v

  let observe t ns = observe_float t (float_of_int ns)
  let observe_ratio t ~num ~den = observe_float t (float_of_int num /. float_of_int den)
  let count t = t.n
  let total t = t.acc.(0)
  let mean t = if t.n = 0 then 0.0 else t.acc.(0) /. float_of_int t.n
  let min_value t = if t.n = 0 then 0.0 else t.acc.(1)
  let max_value t = if t.n = 0 then 0.0 else t.acc.(2)

  (* Merging histograms is exact: buckets are fixed power-of-two ranges,
     so the merge of the bucket arrays observes the same distribution as
     replaying every value into one histogram. Used to aggregate
     per-thread latency histograms before percentile reporting. *)
  let merge ~name hists =
    let m = create name in
    List.iter
      (fun h ->
        for i = 0 to nbuckets - 1 do
          m.buckets.(i) <- m.buckets.(i) + h.buckets.(i)
        done;
        m.n <- m.n + h.n;
        m.acc.(0) <- m.acc.(0) +. h.acc.(0);
        if h.n > 0 then begin
          if h.acc.(1) < m.acc.(1) then m.acc.(1) <- h.acc.(1);
          if h.acc.(2) > m.acc.(2) then m.acc.(2) <- h.acc.(2)
        end)
      hists;
    m

  (* Percentile from the log buckets: the upper bound of the bucket the
     rank lands in, clamped to the observed range — exact at the tails,
     within a factor of two elsewhere (that is the resolution the
     buckets buy). *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let rank = int_of_float (ceil (p *. float_of_int t.n)) in
      let rank = if rank < 1 then 1 else if rank > t.n then t.n else rank in
      let acc = ref 0 and bucket = ref 0 in
      (try
         for i = 0 to nbuckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= rank then begin
             bucket := i;
             raise Exit
           end
         done
       with Exit -> ());
      let hi = if !bucket = 0 then 1.0 else Float.of_int (1 lsl !bucket) in
      Float.min (Float.max hi t.acc.(1)) t.acc.(2)
    end
end

(* --- per-thread lanes ---------------------------------------------------- *)

(* Everything one emitting thread (simulated clock id) records, in one
   record: its bounded event ring, its blame-tree frame stack and its
   per-op latency histograms. The ring is parallel preallocated arrays,
   oldest entries overwritten on wrap: recording is a bump + a few
   stores, and "the last N events" — what a failing fuzz repro wants —
   is exactly what survives. *)
type lane = {
  l_tid : int;
  mutable r_total : int; (* events ever recorded (>= kept) *)
  mutable r_head : int; (* next write slot *)
  e_ts : int array; (* simulated ns *)
  e_dur : int array;
  e_name : int array;
  e_phase : Bytes.t; (* 'X' span | 'C' counter *)
  e_k1 : int array; (* interned arg key, -1 = absent *)
  e_v1 : float array;
  e_k2 : int array;
  e_v2 : float array;
  mutable f_depth : int; (* attribution frame stack *)
  mutable f_node : int array; (* frame -> blame-tree node *)
  mutable f_name : int array; (* frame -> interned name *)
  mutable f_ts : int array; (* frame -> entry timestamp *)
  mutable f_acc : int array; (* frame -> ns accounted to children/leaves *)
  mutable l_ops : Histogram.t option array; (* op name id -> latency *)
}

type t = {
  cap : int;
  mutable names : string array; (* interned names, id = index *)
  mutable nnames : int;
  name_ids : (string, int) Hashtbl.t;
  lanes : (int, lane) Hashtbl.t; (* tid -> lane *)
  mutable last : lane; (* lane of the last emitting thread *)
  hists : (string, Histogram.t) Hashtbl.t;
  mutable hist_names : string list;
  mutable attr : attr option; (* blame-tree attribution, off by default *)
}

(* Blame-tree attribution state. Nodes live in growable parallel arrays;
   node 0 is a synthetic root whose children are the per-operation root
   frames (malloc:small, free, recovery, ...). A node's children form a
   list through [a_child]/[a_sibling] (0 ends it: the root is nobody's
   child). Each emitting thread's lane keeps a frame stack; leaf charges
   (fence, flush, pm_read, lock_wait, ...) accumulate into the child of
   the innermost frame named by the component. When a frame is left, the
   wall time not accounted to children or leaf charges becomes the frame
   node's self time (clamped at zero: batched flushes charge
   device-pipeline occupancy that can outlast the frame). Root-frame
   completions additionally feed the lane's per-op latency histograms and
   the SLO windows. *)
and attr = {
  owner : t;
  mutable a_parent : int array; (* node -> parent node *)
  mutable a_name : int array; (* node -> interned component name *)
  mutable a_child : int array; (* node -> first child *)
  mutable a_sibling : int array; (* node -> next child of its parent *)
  mutable a_self : int array; (* node -> attributed self ns *)
  mutable a_count : int array; (* node -> charges + frame completions *)
  mutable a_nodes : int;
  mutable a_op_ids : int list; (* distinct op name ids, creation order *)
  (* SLO monitoring (set_slo): fixed-width simulated-time windows. *)
  mutable a_window_ns : float; (* 0 = SLO monitoring off *)
  mutable a_targets : (string * float * float) list; (* (op, target_ns, goal) *)
  mutable a_target : float array; (* op name id -> target ns, infinity = none *)
  mutable a_windows : window list array; (* op name id -> windows, newest first *)
  mutable a_events : (int * string) list; (* degradations, newest first *)
  mutable a_nevents : int;
}

and window = { w_idx : int; w_hist : Histogram.t; mutable w_viol : int }

let default_ring_capacity = 65536

(* Counter/snapshot events that belong to no simulated thread (heap
   snapshots) land on this pseudo-thread. *)
let snapshot_tid = max_int

(* [arr] grown to cover index [i] (which it does not), new slots [fill]. *)
let grow arr i fill =
  let b = Array.make (Int.max (i + 1) (2 * Array.length arr)) fill in
  Array.blit arr 0 b 0 (Array.length arr);
  b

let new_lane ~cap tid =
  {
    l_tid = tid;
    r_total = 0;
    r_head = 0;
    e_ts = Array.make cap 0;
    e_dur = Array.make cap 0;
    e_name = Array.make cap 0;
    e_phase = Bytes.make cap 'X';
    e_k1 = Array.make cap (-1);
    e_v1 = Array.make cap 0.0;
    e_k2 = Array.make cap (-1);
    e_v2 = Array.make cap 0.0;
    f_depth = 0;
    f_node = Array.make 16 0;
    f_name = Array.make 16 0;
    f_ts = Array.make 16 0;
    f_acc = Array.make 16 0;
    l_ops = [||];
  }

let create ?(ring_capacity = default_ring_capacity) () =
  if ring_capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Telemetry.create: ring_capacity must be positive (got %d)"
         ring_capacity);
  {
    cap = ring_capacity;
    names = Array.make 64 "";
    nnames = 0;
    name_ids = Hashtbl.create 64;
    lanes = Hashtbl.create 16;
    (* A placeholder no clock id matches, so the first emission probes. *)
    last = new_lane ~cap:0 min_int;
    hists = Hashtbl.create 16;
    hist_names = [];
    attr = None;
  }

let ring_capacity t = t.cap

let intern t name =
  match Hashtbl.find t.name_ids name with
  | id -> id
  | exception Not_found ->
      if t.nnames = Array.length t.names then t.names <- grow t.names t.nnames "";
      let id = t.nnames in
      t.names.(id) <- name;
      t.nnames <- t.nnames + 1;
      Hashtbl.replace t.name_ids name id;
      id

let name_of t id = t.names.(id)

let lane_slow t tid =
  let l =
    match Hashtbl.find t.lanes tid with
    | l -> l
    | exception Not_found ->
        let l = new_lane ~cap:t.cap tid in
        Hashtbl.replace t.lanes tid l;
        l
  in
  t.last <- l;
  l

(* Consecutive emissions mostly come from one thread: the table is
   probed only when the emitting thread changes. *)
let[@inline] lane t tid =
  let l = t.last in
  if l.l_tid = tid then l else lane_slow t tid

let[@inline] record t ~tid ~phase ~name ~ts ~dur ~k1 ~v1 ~k2 ~v2 =
  let r = lane t tid in
  let i = r.r_head in
  r.e_ts.(i) <- ts;
  r.e_dur.(i) <- dur;
  r.e_name.(i) <- name;
  Bytes.set r.e_phase i phase;
  r.e_k1.(i) <- k1;
  r.e_v1.(i) <- v1;
  r.e_k2.(i) <- k2;
  r.e_v2.(i) <- v2;
  r.r_head <- (if i + 1 = t.cap then 0 else i + 1);
  r.r_total <- r.r_total + 1

let span t ~tid ~name ~ts ~dur =
  record t ~tid ~phase:'X' ~name ~ts ~dur ~k1:(-1) ~v1:0.0 ~k2:(-1) ~v2:0.0

let span2 t ~tid ~name ~ts ~dur ~k1 ~v1 ~k2 ~v2 =
  record t ~tid ~phase:'X' ~name ~ts ~dur ~k1 ~v1:(float_of_int v1) ~k2 ~v2:(float_of_int v2)

let counter t ~tid ~name ~ts ~value =
  record t ~tid ~phase:'C' ~name ~ts ~dur:0 ~k1:(-1) ~v1:value ~k2:(-1) ~v2:0.0

let counter_int t ~tid ~name ~ts ~value =
  record t ~tid ~phase:'C' ~name ~ts ~dur:0 ~k1:(-1) ~v1:(float_of_int value) ~k2:(-1) ~v2:0.0

let counter_ratio t ~tid ~name ~ts ~num ~den =
  counter t ~tid ~name ~ts ~value:(float_of_int num /. float_of_int den)

let span_named t ~tid ~name ~ts ~dur = span t ~tid ~name:(intern t name) ~ts ~dur

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Histogram.create name in
      Hashtbl.replace t.hists name h;
      t.hist_names <- name :: t.hist_names;
      h

(* Every lane in ascending raw-tid order — clock ids are assigned in
   creation order, so this is the deterministic "thread 0, thread 1, ..."
   order of the run. *)
let lanes_by_tid t =
  Hashtbl.fold (fun _ l acc -> l :: acc) t.lanes []
  |> List.sort (fun l1 l2 -> compare l1.l_tid l2.l_tid)

(* --- blame-tree attribution + SLO windows -------------------------------- *)

module Attr = struct
  type nonrec t = attr

  let max_events = 1024

  let rec find_child a ~name c =
    if c = 0 || a.a_name.(c) = name then c else find_child a ~name a.a_sibling.(c)

  let node_of a ~parent ~name =
    match find_child a ~name a.a_child.(parent) with
    | 0 ->
        let id = a.a_nodes in
        if id = Array.length a.a_parent then begin
          a.a_parent <- grow a.a_parent id 0;
          a.a_name <- grow a.a_name id 0;
          a.a_child <- grow a.a_child id 0;
          a.a_sibling <- grow a.a_sibling id 0;
          a.a_count <- grow a.a_count id 0;
          a.a_self <- grow a.a_self id 0
        end;
        a.a_parent.(id) <- parent;
        a.a_name.(id) <- name;
        a.a_sibling.(id) <- a.a_child.(parent);
        a.a_child.(parent) <- id;
        a.a_nodes <- id + 1;
        id
    | id -> id

  (* An op's windows are kept newest first: an in-order completion
     matches the head, and one from a thread whose clock lags walks back
     a window or two. Memory follows the windows used, not the span of
     simulated time they cover. *)
  let rec find_window idx = function
    | w :: ws ->
        if w.w_idx = idx then w else if w.w_idx < idx then raise Not_found else find_window idx ws
    | [] -> raise Not_found

  let rec insert_window w = function
    | x :: ws when x.w_idx > w.w_idx -> x :: insert_window w ws
    | ws -> w :: ws

  (* A completed root operation: the lane's latency histogram for the op,
     and the fixed-width simulated-time window its end-of-life timestamp
     lands in. *)
  let complete_op a l ~op ~ts ~dur =
    if op >= Array.length l.l_ops then l.l_ops <- grow l.l_ops op None;
    let h =
      match l.l_ops.(op) with
      | Some h -> h
      | None ->
          let h = Histogram.create (name_of a.owner op) in
          l.l_ops.(op) <- Some h;
          if not (List.mem op a.a_op_ids) then a.a_op_ids <- op :: a.a_op_ids;
          h
    in
    Histogram.observe h dur;
    if a.a_window_ns > 0.0 then begin
      let idx = int_of_float (float_of_int ts /. a.a_window_ns) in
      if op >= Array.length a.a_windows then a.a_windows <- grow a.a_windows op [];
      let ws = a.a_windows.(op) in
      let w =
        match find_window idx ws with
        | w -> w
        | exception Not_found ->
            let w = { w_idx = idx; w_hist = Histogram.create (name_of a.owner op); w_viol = 0 } in
            a.a_windows.(op) <- insert_window w ws;
            w
      in
      Histogram.observe w.w_hist dur;
      if op < Array.length a.a_target && float_of_int dur > a.a_target.(op) then
        w.w_viol <- w.w_viol + 1
    end

  let push a l ~name ~ts =
    let d = l.f_depth in
    if d = Array.length l.f_node then begin
      l.f_node <- grow l.f_node d 0;
      l.f_name <- grow l.f_name d 0;
      l.f_ts <- grow l.f_ts d 0;
      l.f_acc <- grow l.f_acc d 0
    end;
    let parent = if d = 0 then 0 else l.f_node.(d - 1) in
    l.f_node.(d) <- node_of a ~parent ~name;
    l.f_name.(d) <- name;
    l.f_ts.(d) <- ts;
    l.f_acc.(d) <- 0;
    l.f_depth <- d + 1

  let enter a ~tid ~name ~ts = push a (lane a.owner tid) ~name ~ts

  (* Root frames also reset the stack: an operation aborted by a fault
     can leave frames open, and the next op must not inherit them. *)
  let enter_root a ~tid ~name ~ts =
    let l = lane a.owner tid in
    l.f_depth <- 0;
    push a l ~name ~ts

  let charge a ~tid ~name ~ns =
    let l = lane a.owner tid in
    let d = l.f_depth in
    let parent = if d = 0 then 0 else l.f_node.(d - 1) in
    let node = node_of a ~parent ~name in
    a.a_self.(node) <- a.a_self.(node) + ns;
    a.a_count.(node) <- a.a_count.(node) + 1;
    if d > 0 then l.f_acc.(d - 1) <- l.f_acc.(d - 1) + ns

  let leave a ~tid ~ts =
    let l = lane a.owner tid in
    if l.f_depth > 0 then begin
      let d = l.f_depth - 1 in
      l.f_depth <- d;
      let node = l.f_node.(d) in
      let dur = Int.max 0 (ts - l.f_ts.(d)) in
      let self = Int.max 0 (dur - l.f_acc.(d)) in
      a.a_self.(node) <- a.a_self.(node) + self;
      a.a_count.(node) <- a.a_count.(node) + 1;
      if d > 0 then l.f_acc.(d - 1) <- l.f_acc.(d - 1) + dur
      else complete_op a l ~op:l.f_name.(d) ~ts ~dur
    end

  let enter_named a ~tid ~name ~ts = enter a ~tid ~name:(intern a.owner name) ~ts

  let enter_root_named a ~tid ~name ~ts =
    enter_root a ~tid ~name:(intern a.owner name) ~ts

  let charge_named a ~tid ~name ~ns = charge a ~tid ~name:(intern a.owner name) ~ns
  let depth a ~tid = (lane a.owner tid).f_depth

  (* --- SLO configuration and queries --- *)

  let set_slo a ~window_ns ~targets =
    if not (window_ns > 0.0) then
      invalid_arg
        (Printf.sprintf "Telemetry.Attr.set_slo: window_ns must be positive (got %g)"
           window_ns);
    a.a_window_ns <- window_ns;
    a.a_targets <- targets;
    let ids = List.map (fun (op, target_ns, _) -> (intern a.owner op, target_ns)) targets in
    a.a_target <- Array.make a.owner.nnames infinity;
    List.iter (fun (id, target_ns) -> a.a_target.(id) <- target_ns) ids

  let slo_window_ns a = a.a_window_ns
  let slo_targets a = a.a_targets

  let note_event a ~ts ~name =
    if a.a_nevents < max_events then begin
      a.a_events <- (ts, name) :: a.a_events;
      a.a_nevents <- a.a_nevents + 1
    end

  let events a = List.rev a.a_events
  let op_names a = List.sort compare (List.map (name_of a.owner) a.a_op_ids)

  let op_id a op =
    List.find_opt (fun id -> name_of a.owner id = op) a.a_op_ids

  (* Per-thread histograms of one op class, ascending tid order. *)
  let op_thread_histograms a op =
    match op_id a op with
    | None -> []
    | Some id ->
        List.filter_map
          (fun l -> if id < Array.length l.l_ops then l.l_ops.(id) else None)
          (lanes_by_tid a.owner)

  let op_histogram a op = Histogram.merge ~name:op (op_thread_histograms a op)

  let windows a ~op =
    match op_id a op with
    | Some id when id < Array.length a.a_windows ->
        List.rev_map (fun w -> (w.w_idx, w.w_hist, w.w_viol)) a.a_windows.(id)
    | _ -> []

  let violations a ~op = List.fold_left (fun acc (_, _, v) -> acc + v) 0 (windows a ~op)

  let path_of a node =
    let rec go acc node =
      if node = 0 then acc else go (name_of a.owner a.a_name.(node) :: acc) a.a_parent.(node)
    in
    go [] node

  (* Blame-tree nodes as (path-from-root, self ns, count), sorted by path
     for deterministic output. The synthetic root is omitted. *)
  let nodes a =
    let acc = ref [] in
    for node = 1 to a.a_nodes - 1 do
      acc := (path_of a node, a.a_self.(node), a.a_count.(node)) :: !acc
    done;
    List.sort (fun (p1, _, _) (p2, _, _) -> compare p1 p2) !acc

  (* Folded-stack (flamegraph collapsed) export: one "a;b;c value" line
     per node with a non-zero self time. *)
  let folded a =
    let b = Buffer.create 1024 in
    List.iter
      (fun (path, self, _) ->
        if self > 0 then
          Buffer.add_string b (Printf.sprintf "%s %d\n" (String.concat ";" path) self))
      (nodes a);
    Buffer.contents b
end

let enable_attribution t =
  match t.attr with
  | Some a -> a
  | None ->
      let a =
        {
          owner = t;
          a_parent = Array.make 64 0;
          a_name = Array.make 64 0;
          a_child = Array.make 64 0;
          a_sibling = Array.make 64 0;
          a_self = Array.make 64 0;
          a_count = Array.make 64 0;
          a_nodes = 1 (* node 0: synthetic root *);
          a_op_ids = [];
          a_window_ns = 0.0;
          a_targets = [];
          a_target = [||];
          a_windows = [||];
          a_events = [];
          a_nevents = 0;
        }
      in
      t.attr <- Some a;
      a

let attribution t = t.attr

let events_recorded t = Hashtbl.fold (fun _ l acc -> acc + l.r_total) t.lanes 0

let events_dropped t =
  Hashtbl.fold (fun _ l acc -> acc + max 0 (l.r_total - t.cap)) t.lanes 0

(* Oldest-first iteration over the surviving events of one ring. *)
let iter_ring t r f =
  let kept = min r.r_total t.cap in
  let start = if r.r_total <= t.cap then 0 else r.r_head in
  for k = 0 to kept - 1 do
    let i = (start + k) mod t.cap in
    f ~ts:r.e_ts.(i) ~dur:r.e_dur.(i) ~name:r.e_name.(i)
      ~phase:(Bytes.get r.e_phase i) ~k1:r.e_k1.(i) ~v1:r.e_v1.(i) ~k2:r.e_k2.(i)
      ~v2:r.e_v2.(i)
  done

(* Lanes that recorded events, in ascending raw-tid order. The export
   NORMALISES tids to 0..n-1 on that order: raw clock ids are
   process-global and would differ between two same-seed runs in one
   process, breaking byte-identity. *)
let sorted_rings t = List.filter (fun l -> l.r_total > 0) (lanes_by_tid t)

(* --- exporters ----------------------------------------------------------- *)

(* Exported with three decimals, the trace-event format's microsecond
   fractions; simulated ns are whole, so the decimals are always zero. *)
let add_ns b ns = Buffer.add_string b (Printf.sprintf "%d.000" ns)

let chrome_event b t ~pid ~tid ~ts ~dur ~name ~phase ~k1 ~v1 ~k2 ~v2 =
  Buffer.add_string b "{\"name\":\"";
  Json.escape b (name_of t name);
  Buffer.add_string b "\",\"ph\":\"";
  Buffer.add_char b phase;
  Buffer.add_string b "\",\"ts\":";
  add_ns b ts;
  if phase = 'X' then begin
    Buffer.add_string b ",\"dur\":";
    add_ns b dur
  end;
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid tid);
  (match phase with
  | 'C' ->
      Buffer.add_string b (Printf.sprintf ",\"args\":{\"value\":%.3f" v1);
      Buffer.add_string b "}"
  | _ ->
      if k1 >= 0 || k2 >= 0 then begin
        Buffer.add_string b ",\"args\":{";
        let first = ref true in
        let arg k v =
          if k >= 0 then begin
            if not !first then Buffer.add_char b ',';
            first := false;
            Buffer.add_char b '"';
            Json.escape b (name_of t k);
            Buffer.add_string b "\":";
            Json.add_num b v
          end
        in
        arg k1 v1;
        arg k2 v2;
        Buffer.add_string b "}"
      end);
  Buffer.add_string b "}"

let chrome_json t =
  let b = Buffer.create 65536 in
  let pid = 0 in
  let rings = sorted_rings t in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n"
  in
  (* Thread-name metadata first, in normalized-tid order. *)
  List.iteri
    (fun norm r ->
      sep ();
      let label = if r.l_tid = snapshot_tid then "heap" else Printf.sprintf "thread-%d" norm in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           pid norm label))
    rings;
  List.iteri
    (fun norm r ->
      iter_ring t r (fun ~ts ~dur ~name ~phase ~k1 ~v1 ~k2 ~v2 ->
          sep ();
          chrome_event b t ~pid ~tid:norm ~ts ~dur ~name ~phase ~k1 ~v1 ~k2 ~v2))
    rings;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\",";
  Buffer.add_string b
    (Printf.sprintf "\"otherData\":{\"clock\":\"simulated-ns\",\"dropped_events\":%d}}"
       (events_dropped t));
  Buffer.add_char b '\n';
  Buffer.contents b

let hist_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "histogram,count,min_ns,p50_ns,p90_ns,p99_ns,max_ns,mean_ns,total_ns\n";
  let names = List.sort compare t.hist_names in
  List.iter
    (fun name ->
      let h = Hashtbl.find t.hists name in
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n" name
           (Histogram.count h) (Histogram.min_value h)
           (Histogram.percentile h 0.50) (Histogram.percentile h 0.90)
           (Histogram.percentile h 0.99) (Histogram.max_value h) (Histogram.mean h)
           (Histogram.total h)))
    names;
  Buffer.contents b

(* Prometheus text exposition of everything the sink holds: event-ring
   counters, every named histogram (cumulative le buckets at the
   power-of-two upper bounds), and — when attribution is enabled — the
   merged per-op latency histograms, blame-tree self-time counters and
   SLO violation counts. Names are labels (hist=/op=/path=) rather than
   sanitised metric names so distinct sink names can never collide.
   Output is deterministically ordered (sorted names/paths). *)
let prometheus t =
  let b = Buffer.create 4096 in
  let label k v =
    Buffer.add_string b "{";
    Buffer.add_string b k;
    Buffer.add_string b "=\"";
    Json.escape b v;
    Buffer.add_string b "\"}"
  in
  let header name kind = Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind) in
  let add_hist ~metric ~label_key ~label_value h =
    let buckets = h.Histogram.buckets in
    let top = ref (-1) in
    Array.iteri (fun i c -> if c > 0 then top := i) buckets;
    let cum = ref 0 in
    for i = 0 to !top do
      cum := !cum + buckets.(i);
      Buffer.add_string b metric;
      Buffer.add_string b "_bucket{";
      Buffer.add_string b label_key;
      Buffer.add_string b "=\"";
      Json.escape b label_value;
      Buffer.add_string b
        (Printf.sprintf "\",le=\"%.0f\"} %d\n" (Float.pow 2.0 (float_of_int i)) !cum)
    done;
    Buffer.add_string b metric;
    Buffer.add_string b "_bucket{";
    Buffer.add_string b label_key;
    Buffer.add_string b "=\"";
    Json.escape b label_value;
    Buffer.add_string b (Printf.sprintf "\",le=\"+Inf\"} %d\n" (Histogram.count h));
    Buffer.add_string b metric;
    Buffer.add_string b "_sum";
    label label_key label_value;
    Buffer.add_string b (Printf.sprintf " %.3f\n" (Histogram.total h));
    Buffer.add_string b metric;
    Buffer.add_string b "_count";
    label label_key label_value;
    Buffer.add_string b (Printf.sprintf " %d\n" (Histogram.count h))
  in
  header "nvalloc_events_recorded_total" "counter";
  Buffer.add_string b (Printf.sprintf "nvalloc_events_recorded_total %d\n" (events_recorded t));
  header "nvalloc_events_dropped_total" "counter";
  Buffer.add_string b (Printf.sprintf "nvalloc_events_dropped_total %d\n" (events_dropped t));
  let names = List.sort compare t.hist_names in
  if names <> [] then header "nvalloc_hist" "histogram";
  List.iter
    (fun name ->
      add_hist ~metric:"nvalloc_hist" ~label_key:"hist" ~label_value:name
        (Hashtbl.find t.hists name))
    names;
  (match t.attr with
  | None -> ()
  | Some a ->
      let ops = Attr.op_names a in
      if ops <> [] then header "nvalloc_op_latency" "histogram";
      List.iter
        (fun op ->
          add_hist ~metric:"nvalloc_op_latency" ~label_key:"op" ~label_value:op
            (Attr.op_histogram a op))
        ops;
      let nodes = Attr.nodes a in
      if nodes <> [] then begin
        header "nvalloc_blame_self_ns_total" "counter";
        List.iter
          (fun (path, self, _) ->
            Buffer.add_string b "nvalloc_blame_self_ns_total";
            label "path" (String.concat ";" path);
            Buffer.add_string b (Printf.sprintf " %d.000\n" self))
          nodes;
        header "nvalloc_blame_count_total" "counter";
        List.iter
          (fun (path, _, count) ->
            Buffer.add_string b "nvalloc_blame_count_total";
            label "path" (String.concat ";" path);
            Buffer.add_string b (Printf.sprintf " %d\n" count))
          nodes
      end;
      if Attr.slo_window_ns a > 0.0 then begin
        header "nvalloc_slo_violations_total" "counter";
        List.iter
          (fun op ->
            Buffer.add_string b "nvalloc_slo_violations_total";
            label "op" op;
            Buffer.add_string b (Printf.sprintf " %d\n" (Attr.violations a ~op)))
          ops
      end;
      header "nvalloc_degradation_events_total" "counter";
      Buffer.add_string b
        (Printf.sprintf "nvalloc_degradation_events_total %d\n"
           (List.length (Attr.events a))));
  Buffer.contents b

(* Last [n] events across every ring, merged by timestamp (ties: ring
   order, then recording order) — the timeline a failing fuzz repro is
   dumped with. *)
let tail_events t ~n =
  let acc = ref [] in
  List.iteri
    (fun norm r ->
      let seq = ref 0 in
      iter_ring t r (fun ~ts ~dur ~name ~phase ~k1 ~v1 ~k2 ~v2 ->
          acc := (ts, norm, !seq, (dur, name, phase, k1, v1, k2, v2)) :: !acc;
          incr seq))
    (sorted_rings t);
  let all =
    List.sort
      (fun (ts1, t1, s1, _) (ts2, t2, s2, _) -> compare (ts1, t1, s1) (ts2, t2, s2))
      !acc
  in
  let len = List.length all in
  let tail = if len <= n then all else List.filteri (fun i _ -> i >= len - n) all in
  List.map
    (fun (ts, tid, _, (dur, name, phase, k1, v1, k2, v2)) ->
      let b = Buffer.create 64 in
      Buffer.add_string b (Printf.sprintf "[t%d] %12.3f " tid (float_of_int ts));
      if phase = 'C' then
        Buffer.add_string b (Printf.sprintf "%-11s %s=%g" "counter" (name_of t name) v1)
      else begin
        Buffer.add_string b (Printf.sprintf "+%-10.3f %s" (float_of_int dur) (name_of t name));
        if k1 >= 0 then Buffer.add_string b (Printf.sprintf " %s=%g" (name_of t k1) v1);
        if k2 >= 0 then Buffer.add_string b (Printf.sprintf " %s=%g" (name_of t k2) v2)
      end;
      Buffer.contents b)
    tail

(* --- global capture (CLI --telemetry) ------------------------------------ *)

(* When capture is requested, instance constructors attach a fresh sink
   to every device they build and register it here, so a driver that
   never sees the instances (the experiment registry) can still export
   every timeline at the end of the run.

   The registry is the one piece of process-global telemetry state, so
   it is the one piece that needs a real mutex: the counterexample
   search ([Support.Search.run], behind [fuzz]/[check --domains])
   builds a full allocator stack per case, and several domains can
   reach [attach_if_capturing] at once. Sinks themselves stay
   single-writer (each belongs to one instance, and the search runs
   each case on exactly one domain). *)
let capture_mutex = Mutex.create ()
let capture = ref false
let registry : (string * t) list ref = ref []

let locked f =
  Mutex.lock capture_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock capture_mutex) f

let request_capture () = locked (fun () -> capture := true)
let cancel_capture () = locked (fun () -> capture := false)

let attach_if_capturing ~name ~attach =
  if not (locked (fun () -> !capture)) then None
  else begin
    let t = create () in
    attach t;
    locked (fun () -> registry := (name, t) :: !registry);
    Some t
  end

let registered () = locked (fun () -> List.rev !registry)
let reset_registered () = locked (fun () -> registry := [])
