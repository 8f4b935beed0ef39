(** Figures 9 and 10: small-allocation throughput vs thread count, for
    the strongly and weakly consistent allocator sets; plus Table 2. *)

let benchmarks :
    (string * (Alloc_api.Instance.t -> threads:int -> Workloads.Driver.result)) list =
  [
    ("Threadtest", fun inst ~threads -> Workloads.Threadtest.run inst ~params:(Sizes.threadtest threads) ());
    ("Prod-con", fun inst ~threads -> Workloads.Prodcon.run inst ~params:(Sizes.prodcon threads) ());
    ("Shbench", fun inst ~threads -> Workloads.Shbench.run inst ~params:(Sizes.shbench threads) ());
    ("Larson-small", fun inst ~threads -> Workloads.Larson.run inst ~params:(Sizes.larson_small threads) ());
  ]

(* The threads x allocators table: a row per [Sizes.threads_sweep] entry,
   a fresh instance and one [run] per allocator cell. *)
let table ~eadr ~id ~title ~kinds ~notes ~cell run =
  {
    Output.id;
    title;
    header = "threads" :: List.map Factory.name kinds;
    rows =
      List.map
        (fun threads ->
          string_of_int threads
          :: List.map (fun kind -> cell (run (Factory.make ~eadr ~threads kind) ~threads)) kinds)
        Sizes.threads_sweep;
    notes;
  }

(* One throughput table per benchmark, ids [<id_prefix>a], [<id_prefix>b], ... *)
let sweep ~eadr ~id_prefix ~kinds ~notes benchmarks =
  List.mapi
    (fun i (bench_name, run) ->
      table ~eadr ~kinds ~notes run
        ~id:(Printf.sprintf "%s%c" id_prefix (Char.chr (Char.code 'a' + i)))
        ~title:
          (Printf.sprintf "%s throughput (Mops/s) vs threads%s" bench_name
             (if eadr then " [eADR]" else ""))
        ~cell:(fun r -> Output.mops r.Workloads.Driver.mops))
    benchmarks

let fig9 () = sweep ~eadr:false ~id_prefix:"fig9" ~kinds:Factory.strong ~notes:[] benchmarks
let fig10 () = sweep ~eadr:false ~id_prefix:"fig10" ~kinds:Factory.weak ~notes:[] benchmarks

let tab2 () =
  [
    {
      Output.id = "tab2";
      title = "Techniques used in the two variants of NVAlloc";
      header = [ "Allocator"; "Small allocation"; "Large allocation" ];
      rows =
        [
          [ "NVAlloc-LOG"; "IM(WAL,bitmaps,tcache) + slab morphing";
            "IM(WAL,bookkeeping log) + log-structured bookkeeping" ];
          [ "NVAlloc-GC"; "slab morphing (no metadata flushes)";
            "IM(WAL,bookkeeping log) + log-structured bookkeeping" ];
        ];
      notes = [ "IM = interleaved mapping; mirrors paper Table 2" ];
    };
  ]
