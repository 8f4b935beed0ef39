(** Figure 17 (bookkeeping-log GC overhead) and Figure 18 (recovery). *)

let fig17 () =
  let configs =
    [
      ("w/o GC", { Factory.log_full with Nvalloc_core.Config.booklog_gc = false;
                   booklog_chunks = 4096 });
      ("GC on", { Factory.log_full with Nvalloc_core.Config.booklog_slow_gc_threshold = 0.002 });
    ]
  in
  let benchmarks :
      (string * (Alloc_api.Instance.t -> threads:int -> Workloads.Driver.result)) list =
    [
      ("Larson-large", fun inst ~threads -> Workloads.Larson.run inst ~params:(Sizes.larson_large threads) ());
      ("DBMStest", fun inst ~threads -> Workloads.Dbmstest.run inst ~params:(Sizes.dbmstest threads) ());
    ]
  in
  let threads = 8 in
  let rows =
    List.map
      (fun (bench_name, run) ->
        bench_name
        :: List.map
             (fun (label, config) ->
               let inst = Factory.make ~threads (Factory.Nv_custom (label, config)) in
               let r = run inst ~threads in
               Output.mops r.Workloads.Driver.mops)
             configs)
      benchmarks
  in
  [
    {
      Output.id = "fig17";
      title = "Bookkeeping-log GC overhead (Mops/s, 8 threads)";
      header = [ "benchmark"; "w/o GC"; "GC on (Usage_pmem=0.2%)" ];
      rows;
      notes = [ "paper: 3% drop on Larson-large, 8% on DBMStest" ];
    };
  ]

let fig18 () =
  let kinds =
    [ Factory.Nvm_malloc; Factory.Pmdk; Factory.Nv_log; Factory.Ralloc; Factory.Makalu;
      Factory.Nv_gc ]
  in
  let rows =
    List.map
      (fun kind ->
        let inst = Factory.make ~threads:1 kind in
        let t = Workloads.Recovery_workload.run inst () in
        [ Factory.name kind; Output.ms t; Output.us t ])
      kinds
  in
  [
    {
      Output.id = "fig18";
      title = "Recovery time after building a 20k-node linked list";
      header = [ "allocator"; "ms"; "us" ];
      rows;
      notes =
        [
          "paper ordering: nvm_malloc << PMDK < NVAlloc-LOG << Ralloc < Makalu ~ NVAlloc-GC";
        ];
    };
  ]
