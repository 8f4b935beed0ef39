type category = Meta | Wal | Log | Data
type work = Search | Other

type counter =
  | Flushes
  | Reflushes
  | Sequential_flushes
  | Random_flushes
  | Fence_ns
  | Read_ns
  | Search_ns
  | Other_ns
  | Fences_saved
  | Flushes_coalesced
  | Group_commits
  | Group_commit_entries
  | Poison_hits
  | Media_repairs
  | Media_quarantines
  | Bitrot_flips
  | Scrub_passes
  | Extents_coalesced
  | Extent_tree_lookups
  | Header_flush_lines

(* Each counter with its JSON name, in document order. A list literal
   is a static constant; an array literal would be allocated at module
   start. *)
let counters =
  [
    (Flushes, "flushes");
    (Reflushes, "reflushes");
    (Sequential_flushes, "sequential_flushes");
    (Random_flushes, "random_flushes");
    (Fence_ns, "fence_ns");
    (Read_ns, "read_ns");
    (Search_ns, "search_ns");
    (Other_ns, "other_ns");
    (Fences_saved, "fences_saved");
    (Flushes_coalesced, "flushes_coalesced");
    (Group_commits, "group_commits");
    (Group_commit_entries, "group_commit_entries");
    (Poison_hits, "poison_hits");
    (Media_repairs, "media_repairs");
    (Media_quarantines, "media_quarantines");
    (Bitrot_flips, "bitrot_flips");
    (Scrub_passes, "scrub_passes");
    (Extents_coalesced, "extents_coalesced");
    (Extent_tree_lookups, "extent_tree_lookups");
    (Header_flush_lines, "header_flush_lines");
  ]

(* A counter's slot in [counts]: its position in declaration order. *)
let index = function
  | Flushes -> 0
  | Reflushes -> 1
  | Sequential_flushes -> 2
  | Random_flushes -> 3
  | Fence_ns -> 4
  | Read_ns -> 5
  | Search_ns -> 6
  | Other_ns -> 7
  | Fences_saved -> 8
  | Flushes_coalesced -> 9
  | Group_commits -> 10
  | Group_commit_entries -> 11
  | Poison_hits -> 12
  | Media_repairs -> 13
  | Media_quarantines -> 14
  | Bitrot_flips -> 15
  | Scrub_passes -> 16
  | Extents_coalesced -> 17
  | Extent_tree_lookups -> 18
  | Header_flush_lines -> 19

(* Category tags index [cat_ns] and the trace's tag bytes. *)
let cat_index = function Meta -> 0 | Wal -> 1 | Log -> 2 | Data -> 3
let cat_of_index = function 0 -> Meta | 1 -> Wal | 2 -> Log | _ -> Data
let cat_name = function Meta -> "meta" | Wal -> "wal" | Log -> "log" | Data -> "data"

(* Figure 2 plots the first 1000 metadata flushes. *)
let trace_limit = 1000

type t = {
  counts : int array; (* by [index] *)
  cat_ns : int array; (* flush time by category, simulated ns *)
  (* First [trace_limit] metadata-class flushes, as two preallocated
     parallel buffers (category tag byte + address): recording is two
     stores and no allocation. *)
  trace_cats : Bytes.t;
  trace_addrs : int array;
  mutable traced : int;
}

let create () =
  {
    counts = Array.make (List.length counters) 0;
    cat_ns = Array.make 4 0;
    trace_cats = Bytes.make trace_limit '\000';
    trace_addrs = Array.make trace_limit 0;
    traced = 0;
  }

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.cat_ns 0 4 0;
  (* Zero the trace buffers too, not just the cursor: a reset instance
     must not leak the previous run's addresses through the raw buffers,
     and must be indistinguishable from a fresh instance. *)
  Bytes.fill t.trace_cats 0 (Bytes.length t.trace_cats) '\000';
  Array.fill t.trace_addrs 0 (Array.length t.trace_addrs) 0;
  t.traced <- 0

let add t c n =
  if n > 0 then begin
    let i = index c in
    t.counts.(i) <- t.counts.(i) + n
  end

let bump t c = add t c 1
let get t c = t.counts.(index c)

let record_flush t cat ~addr ~reflush ~sequential ~ns =
  bump t Flushes;
  bump t (if reflush then Reflushes else if sequential then Sequential_flushes else Random_flushes);
  let idx = cat_index cat in
  t.cat_ns.(idx) <- t.cat_ns.(idx) + ns;
  (* Data flushes (idx 3) are not traced; once the trace is full the
     whole branch is one compare on the common path. *)
  if t.traced < trace_limit && idx < 3 then begin
    Bytes.set t.trace_cats t.traced (Char.chr idx);
    t.trace_addrs.(t.traced) <- addr;
    t.traced <- t.traced + 1
  end

let flush_ns t cat = t.cat_ns.(cat_index cat)

let ratio t a b =
  if get t b = 0 then 0.0 else float_of_int (get t a) /. float_of_int (get t b)

let trace t =
  List.init t.traced (fun i ->
      (cat_of_index (Char.code (Bytes.get t.trace_cats i)), t.trace_addrs.(i)))

(* --- machine-readable dump --------------------------------------------- *)

let to_json t =
  let open Telemetry.Json in
  let int n = Num (float_of_int n) in
  (* Derived values keep their place after the counter they follow. *)
  let after = function
    | Random_flushes ->
        [
          ("reflush_ratio", Num (ratio t Reflushes Flushes));
          ( "flush_ns",
            Obj (List.map (fun c -> (cat_name c, int (flush_ns t c))) [ Meta; Wal; Log; Data ]) );
        ]
    | Group_commit_entries ->
        [ ("group_commit_size", Num (ratio t Group_commit_entries Group_commits)) ]
    | _ -> []
  in
  let trace_entry (cat, addr) = Obj [ ("cat", Str (cat_name cat)); ("addr", int addr) ] in
  Obj
    ((("schema", Str "nvalloc/stats/v4") :: ("trace_limit", int trace_limit)
     :: List.concat_map (fun (c, key) -> (key, int (get t c)) :: after c) counters)
    @ [ ("trace", Arr (List.map trace_entry (trace t))) ])

let to_json_string t = Telemetry.Json.to_string (to_json t)

let pp_summary ppf t =
  let g = get t in
  Format.fprintf ppf
    "flushes=%d reflush=%d (%.1f%%) seq=%d rand=%d meta=%dns wal=%dns log=%dns \
     data=%dns saved_fences=%d coalesced=%d group_commits=%d (avg %.1f) \
     header_lines=%d ext_coalesced=%d ext_lookups=%d"
    (g Flushes) (g Reflushes)
    (100.0 *. ratio t Reflushes Flushes)
    (g Sequential_flushes) (g Random_flushes) (flush_ns t Meta) (flush_ns t Wal)
    (flush_ns t Log) (flush_ns t Data) (g Fences_saved) (g Flushes_coalesced)
    (g Group_commits)
    (ratio t Group_commit_entries Group_commits)
    (g Header_flush_lines) (g Extents_coalesced) (g Extent_tree_lookups)
