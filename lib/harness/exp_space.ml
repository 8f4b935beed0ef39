(** Figure 13: space consumption vs thread count. *)

let fig13 () =
  let peak r = Output.mib r.Workloads.Driver.peak_bytes in
  let tt =
    Exp_small.table ~eadr:false ~id:"fig13a" ~title:"Threadtest peak memory (MiB) vs threads"
      ~kinds:[ Factory.Pmdk; Factory.Nvm_malloc; Factory.Makalu; Factory.Ralloc; Factory.Nv_log ]
      ~notes:[] ~cell:peak
      (fun inst ~threads -> Workloads.Threadtest.run inst ~params:(Sizes.threadtest threads) ())
  in
  let dbms =
    Exp_small.table ~eadr:false ~id:"fig13b" ~title:"DBMStest peak memory (MiB) vs threads"
      ~kinds:[ Factory.Pmdk; Factory.Nvm_malloc; Factory.Makalu; Factory.Nv_log ]
      ~notes:[ "Ralloc excluded on large objects, as in the paper's Figure 13(b)" ]
      ~cell:peak
      (fun inst ~threads -> Workloads.Dbmstest.run inst ~params:(Sizes.dbmstest threads) ())
  in
  [ tt; dbms ]
