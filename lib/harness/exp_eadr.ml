(** Figures 19-21: the emulated eADR platform (section 6.7). Flushes are
    free; NVAlloc disables interleaved mapping (except in Figure 19,
    which demonstrates that it no longer matters). *)

let fig19 () =
  let threads = 4 in
  let rows =
    List.map
      (fun stripes ->
        let inst =
          Alloc_api.Instance.of_nvalloc
            ~name:(Printf.sprintf "stripes=%d" stripes)
            ~config:(Factory.log_stripes stripes)
            ~threads ~dev_size:(128 * 1024 * 1024) ~eadr:true ~eadr_keep_interleave:true ()
        in
        let r = Workloads.Threadtest.run inst ~params:(Sizes.threadtest threads) () in
        [ string_of_int stripes; Output.ms r.Workloads.Driver.makespan_ns ])
      Exp_sensitivity.stripe_counts
  in
  [
    {
      Output.id = "fig19";
      title = "eADR: Threadtest time (ms) vs bit stripes, 4 threads";
      header = [ "stripes"; "time ms" ];
      rows;
      notes = [ "with free flushes the stripe count no longer matters" ];
    };
  ]

let fig20 () =
  Exp_small.sweep ~eadr:true ~id_prefix:"fig20" ~kinds:Factory.strong ~notes:[]
    Exp_small.benchmarks

let fig21 () = Exp_large.sweep ~id_prefix:"fig21" ~eadr:true ()
