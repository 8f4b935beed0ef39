type category = Meta | Wal | Log | Data
type work = Search | Other

(* Category tags index [cat_ns] and the trace's tag bytes. *)
let cat_index = function Meta -> 0 | Wal -> 1 | Log -> 2 | Data -> 3
let cat_of_index = function 0 -> Meta | 1 -> Wal | 2 -> Log | _ -> Data

type t = {
  trace_limit : int;
  mutable flushes : int;
  mutable reflushes : int;
  mutable sequentials : int;
  mutable randoms : int;
  cat_ns : float array; (* flush time by category; floats stay unboxed *)
  mutable t_fence : float;
  mutable t_read : float;
  mutable t_search : float;
  mutable t_other : float;
  (* Batched-persistence pipeline: how much synchronous persist traffic
     the coalescing buffers and WAL group commit absorbed. *)
  mutable fences_saved : int;
  mutable flushes_coalesced : int;
  mutable group_commits : int;
  mutable group_commit_entries : int;
  (* Media-fault model: reads that hit a poisoned line, repairs that
     rewrote a damaged record from its replica, regions written off as
     unrepairable, injected bit flips, and completed scrub passes. *)
  mutable poison_hits : int;
  mutable media_repairs : int;
  mutable media_quarantines : int;
  mutable bitrot_flips : int;
  mutable scrub_passes : int;
  (* Metadata-layout counters (packed headers + extent trees): extents
     merged by coalescing, balanced-tree searches in the extent index,
     and cache lines dirtied by slab-header commits (one per commit with
     the packed header — the paper's "fewer dirty metadata lines"). *)
  mutable extents_coalesced : int;
  mutable extent_tree_lookups : int;
  mutable header_flush_lines : int;
  (* First [trace_limit] metadata-class flushes, as two preallocated
     parallel buffers (category tag byte + address). The former list
     prepend allocated a cons + tuple per traced flush and needed a final
     List.rev; this records with two stores and no allocation. *)
  trace_cats : Bytes.t;
  trace_addrs : int array;
  mutable traced : int;
}

let create ?(trace_limit = 1000) () =
  if trace_limit < 0 then
    invalid_arg
      (Printf.sprintf "Pmem.Stats.create: trace_limit must be >= 0 (got %d)" trace_limit);
  {
    trace_limit;
    flushes = 0;
    reflushes = 0;
    sequentials = 0;
    randoms = 0;
    cat_ns = Array.make 4 0.0;
    t_fence = 0.0;
    t_read = 0.0;
    t_search = 0.0;
    t_other = 0.0;
    fences_saved = 0;
    flushes_coalesced = 0;
    group_commits = 0;
    group_commit_entries = 0;
    poison_hits = 0;
    media_repairs = 0;
    media_quarantines = 0;
    bitrot_flips = 0;
    scrub_passes = 0;
    extents_coalesced = 0;
    extent_tree_lookups = 0;
    header_flush_lines = 0;
    trace_cats = Bytes.make (max trace_limit 1) '\000';
    trace_addrs = Array.make (max trace_limit 1) 0;
    traced = 0;
  }

let reset t =
  t.flushes <- 0;
  t.reflushes <- 0;
  t.sequentials <- 0;
  t.randoms <- 0;
  Array.fill t.cat_ns 0 4 0.0;
  t.t_fence <- 0.0;
  t.t_read <- 0.0;
  t.t_search <- 0.0;
  t.t_other <- 0.0;
  t.fences_saved <- 0;
  t.flushes_coalesced <- 0;
  t.group_commits <- 0;
  t.group_commit_entries <- 0;
  t.poison_hits <- 0;
  t.media_repairs <- 0;
  t.media_quarantines <- 0;
  t.bitrot_flips <- 0;
  t.scrub_passes <- 0;
  t.extents_coalesced <- 0;
  t.extent_tree_lookups <- 0;
  t.header_flush_lines <- 0;
  (* Zero the trace buffers too, not just the cursor: a reset instance
     must not leak the previous run's addresses through the raw buffers,
     and must be indistinguishable from a fresh instance. *)
  Bytes.fill t.trace_cats 0 (Bytes.length t.trace_cats) '\000';
  Array.fill t.trace_addrs 0 (Array.length t.trace_addrs) 0;
  t.traced <- 0

let record_flush t cat ~addr ~reflush ~sequential ~ns =
  t.flushes <- t.flushes + 1;
  if reflush then t.reflushes <- t.reflushes + 1
  else if sequential then t.sequentials <- t.sequentials + 1
  else t.randoms <- t.randoms + 1;
  let idx = cat_index cat in
  t.cat_ns.(idx) <- t.cat_ns.(idx) +. ns;
  (* Data flushes (idx 3) are not traced; once the trace is full the
     whole branch is one compare on the common path. *)
  if t.traced < t.trace_limit && idx < 3 then begin
    Bytes.set t.trace_cats t.traced (Char.chr idx);
    t.trace_addrs.(t.traced) <- addr;
    t.traced <- t.traced + 1
  end

let record_fence t ~ns = t.t_fence <- t.t_fence +. ns
let record_read t ~ns = t.t_read <- t.t_read +. ns
let record_fences_saved t n = if n > 0 then t.fences_saved <- t.fences_saved + n
let record_flush_coalesced t = t.flushes_coalesced <- t.flushes_coalesced + 1

let record_group_commit t ~entries =
  t.group_commits <- t.group_commits + 1;
  t.group_commit_entries <- t.group_commit_entries + entries

let record_poison_hit t = t.poison_hits <- t.poison_hits + 1
let record_media_repair t = t.media_repairs <- t.media_repairs + 1
let record_quarantine t = t.media_quarantines <- t.media_quarantines + 1
let record_bitrot t n = if n > 0 then t.bitrot_flips <- t.bitrot_flips + n
let record_scrub_pass t = t.scrub_passes <- t.scrub_passes + 1
let record_extent_coalesced t = t.extents_coalesced <- t.extents_coalesced + 1
let record_extent_lookup t = t.extent_tree_lookups <- t.extent_tree_lookups + 1
let record_header_flush_line t = t.header_flush_lines <- t.header_flush_lines + 1

let charge_work t work ~ns =
  match work with
  | Search -> t.t_search <- t.t_search +. ns
  | Other -> t.t_other <- t.t_other +. ns

let flushes t = t.flushes
let poison_hits t = t.poison_hits
let media_repairs t = t.media_repairs
let media_quarantines t = t.media_quarantines
let bitrot_flips t = t.bitrot_flips
let scrub_passes t = t.scrub_passes
let extents_coalesced t = t.extents_coalesced
let extent_tree_lookups t = t.extent_tree_lookups
let header_flush_lines t = t.header_flush_lines
let fences_saved t = t.fences_saved
let flushes_coalesced t = t.flushes_coalesced
let group_commits t = t.group_commits
let group_commit_entries t = t.group_commit_entries

let group_commit_size t =
  if t.group_commits = 0 then 0.0
  else float_of_int t.group_commit_entries /. float_of_int t.group_commits

let reflushes t = t.reflushes
let sequential_flushes t = t.sequentials
let random_flushes t = t.randoms

let reflush_ratio t =
  if t.flushes = 0 then 0.0 else float_of_int t.reflushes /. float_of_int t.flushes

let flush_time t cat = t.cat_ns.(cat_index cat)
let work_time t = function Search -> t.t_search | Other -> t.t_other
let total_flush_time t = t.cat_ns.(0) +. t.cat_ns.(1) +. t.cat_ns.(2) +. t.cat_ns.(3)

let trace t =
  List.init t.traced (fun i ->
      (cat_of_index (Char.code (Bytes.get t.trace_cats i)), t.trace_addrs.(i)))

(* --- machine-readable dump --------------------------------------------- *)

let cat_name = function Meta -> "meta" | Wal -> "wal" | Log -> "log" | Data -> "data"

let cat_of_name = function
  | "meta" -> Some Meta
  | "wal" -> Some Wal
  | "log" -> Some Log
  | "data" -> Some Data
  | _ -> None

let json_schema = "nvalloc/stats/v4"

let to_json t =
  let open Telemetry.Json in
  Obj
    [
      ("schema", Str json_schema);
      ("trace_limit", Num (float_of_int t.trace_limit));
      ("flushes", Num (float_of_int t.flushes));
      ("reflushes", Num (float_of_int t.reflushes));
      ("sequential_flushes", Num (float_of_int t.sequentials));
      ("random_flushes", Num (float_of_int t.randoms));
      ("reflush_ratio", Num (reflush_ratio t));
      ( "flush_ns",
        Obj
          [
            ("meta", Num t.cat_ns.(0));
            ("wal", Num t.cat_ns.(1));
            ("log", Num t.cat_ns.(2));
            ("data", Num t.cat_ns.(3));
          ] );
      ("fence_ns", Num t.t_fence);
      ("read_ns", Num t.t_read);
      ("search_ns", Num t.t_search);
      ("other_ns", Num t.t_other);
      ("fences_saved", Num (float_of_int t.fences_saved));
      ("flushes_coalesced", Num (float_of_int t.flushes_coalesced));
      ("group_commits", Num (float_of_int t.group_commits));
      ("group_commit_entries", Num (float_of_int t.group_commit_entries));
      ("group_commit_size", Num (group_commit_size t));
      ("poison_hits", Num (float_of_int t.poison_hits));
      ("media_repairs", Num (float_of_int t.media_repairs));
      ("media_quarantines", Num (float_of_int t.media_quarantines));
      ("bitrot_flips", Num (float_of_int t.bitrot_flips));
      ("scrub_passes", Num (float_of_int t.scrub_passes));
      ("extents_coalesced", Num (float_of_int t.extents_coalesced));
      ("extent_tree_lookups", Num (float_of_int t.extent_tree_lookups));
      ("header_flush_lines", Num (float_of_int t.header_flush_lines));
      ( "trace",
        Arr
          (List.init t.traced (fun i ->
               Obj
                 [
                   ("cat", Str (cat_name (cat_of_index (Char.code (Bytes.get t.trace_cats i)))));
                   ("addr", Num (float_of_int t.trace_addrs.(i)));
                 ])) );
    ]

let of_json j =
  let open Telemetry.Json in
  let ( let* ) r f = Result.bind r f in
  let field name conv j =
    match Option.bind (member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "Stats.of_json: missing or ill-typed field %S" name)
  in
  let* schema = field "schema" str j in
  let* () =
    if schema = json_schema then Ok ()
    else Error (Printf.sprintf "Stats.of_json: unknown schema %S" schema)
  in
  let int_field name = field name (fun v -> Option.map int_of_float (num v)) j in
  let num_field name = field name num j in
  let* trace_limit = int_field "trace_limit" in
  let* () =
    if trace_limit >= 0 then Ok () else Error "Stats.of_json: negative trace_limit"
  in
  let* flushes = int_field "flushes" in
  let* reflushes = int_field "reflushes" in
  let* sequentials = int_field "sequential_flushes" in
  let* randoms = int_field "random_flushes" in
  let* by_cat = field "flush_ns" Option.some j in
  let* meta_ns = field "meta" num by_cat in
  let* wal_ns = field "wal" num by_cat in
  let* log_ns = field "log" num by_cat in
  let* data_ns = field "data" num by_cat in
  let* fence_ns = num_field "fence_ns" in
  let* read_ns = num_field "read_ns" in
  let* search_ns = num_field "search_ns" in
  let* other_ns = num_field "other_ns" in
  let* fences_saved = int_field "fences_saved" in
  let* flushes_coalesced = int_field "flushes_coalesced" in
  let* group_commits = int_field "group_commits" in
  let* group_commit_entries = int_field "group_commit_entries" in
  let* poison_hits = int_field "poison_hits" in
  let* media_repairs = int_field "media_repairs" in
  let* media_quarantines = int_field "media_quarantines" in
  let* bitrot_flips = int_field "bitrot_flips" in
  let* scrub_passes = int_field "scrub_passes" in
  let* extents_coalesced = int_field "extents_coalesced" in
  let* extent_tree_lookups = int_field "extent_tree_lookups" in
  let* header_flush_lines = int_field "header_flush_lines" in
  let* trace = field "trace" arr j in
  let* () =
    if List.length trace <= trace_limit then Ok ()
    else Error "Stats.of_json: trace longer than trace_limit"
  in
  let t = create ~trace_limit () in
  t.flushes <- flushes;
  t.reflushes <- reflushes;
  t.sequentials <- sequentials;
  t.randoms <- randoms;
  t.cat_ns.(0) <- meta_ns;
  t.cat_ns.(1) <- wal_ns;
  t.cat_ns.(2) <- log_ns;
  t.cat_ns.(3) <- data_ns;
  t.t_fence <- fence_ns;
  t.t_read <- read_ns;
  t.t_search <- search_ns;
  t.t_other <- other_ns;
  t.fences_saved <- fences_saved;
  t.flushes_coalesced <- flushes_coalesced;
  t.group_commits <- group_commits;
  t.group_commit_entries <- group_commit_entries;
  t.poison_hits <- poison_hits;
  t.media_repairs <- media_repairs;
  t.media_quarantines <- media_quarantines;
  t.bitrot_flips <- bitrot_flips;
  t.scrub_passes <- scrub_passes;
  t.extents_coalesced <- extents_coalesced;
  t.extent_tree_lookups <- extent_tree_lookups;
  t.header_flush_lines <- header_flush_lines;
  let rec load = function
    | [] -> Ok t
    | entry :: rest ->
        let* cat =
          match Option.bind (Option.bind (member "cat" entry) str) cat_of_name with
          | Some c -> Ok c
          | None -> Error "Stats.of_json: bad trace entry category"
        in
        let* addr = field "addr" (fun v -> Option.map int_of_float (num v)) entry in
        Bytes.set t.trace_cats t.traced (Char.chr (cat_index cat));
        t.trace_addrs.(t.traced) <- addr;
        t.traced <- t.traced + 1;
        load rest
  in
  load trace

let to_json_string t = Telemetry.Json.to_string (to_json t)

let of_json_string s =
  Result.bind (Telemetry.Json.parse s) (fun j -> of_json j)

let pp_summary ppf t =
  Format.fprintf ppf
    "flushes=%d reflush=%d (%.1f%%) seq=%d rand=%d meta=%.0fns wal=%.0fns log=%.0fns \
     data=%.0fns saved_fences=%d coalesced=%d group_commits=%d (avg %.1f) \
     header_lines=%d ext_coalesced=%d ext_lookups=%d"
    t.flushes t.reflushes
    (100.0 *. reflush_ratio t)
    t.sequentials t.randoms t.cat_ns.(0) t.cat_ns.(1) t.cat_ns.(2) t.cat_ns.(3)
    t.fences_saved t.flushes_coalesced t.group_commits (group_commit_size t)
    t.header_flush_lines t.extents_coalesced t.extent_tree_lookups
