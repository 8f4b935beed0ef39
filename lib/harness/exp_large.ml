(** Figure 12: large-allocation throughput (Larson-large, DBMStest). *)

let benchmarks :
    (string * (Alloc_api.Instance.t -> threads:int -> Workloads.Driver.result)) list =
  [
    ("Larson-large", fun inst ~threads -> Workloads.Larson.run inst ~params:(Sizes.larson_large threads) ());
    ("DBMStest", fun inst ~threads -> Workloads.Dbmstest.run inst ~params:(Sizes.dbmstest threads) ());
  ]

let sweep ~id_prefix ~eadr () =
  Exp_small.sweep ~eadr ~id_prefix ~kinds:Factory.large_set
    ~notes:[ "Ralloc excluded: its open-source build mishandles large objects (paper)" ]
    benchmarks

let fig12 () = sweep ~id_prefix:"fig12" ~eadr:false ()
