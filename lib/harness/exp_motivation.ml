(** Figures 1 and 2: the motivation experiments (sections 3.1-3.3). *)

let fig1a () =
  (* Reflush vs regular-flush shares of allocator-induced flushes, per
     benchmark, for the WAL-based allocators, at 8 threads. *)
  let threads = 8 in
  let kinds = [ Factory.Pmdk; Factory.Nvm_malloc; Factory.Pallocator ] in
  let rows =
    List.concat_map
      (fun (bench_name, run) ->
        List.map
          (fun kind ->
            let inst = Factory.make ~threads kind in
            let _ = run inst ~threads in
            let st = Pmem.Device.stats inst.Alloc_api.Instance.dev in
            [
              bench_name;
              Factory.name kind;
              string_of_int (Pmem.Stats.get st Flushes);
              Output.pct (Pmem.Stats.ratio st Reflushes Flushes);
            ])
          kinds)
      Exp_small.benchmarks
  in
  [
    {
      Output.id = "fig1a";
      title = "Ratio of cache line reflushes (8 threads)";
      header = [ "benchmark"; "allocator"; "flushes"; "reflush share" ];
      rows;
      notes = [ "paper: 40.4%-99.7% of allocator-induced flushes are reflushes" ];
    };
  ]

let frag_kinds =
  [ Factory.Jemalloc; Factory.Makalu; Factory.Nvm_malloc; Factory.Tcmalloc; Factory.Ralloc;
    Factory.Pmdk ]

let fig1b () =
  let rows =
    List.map
      (fun w ->
        w.Workloads.Fragbench.label
        :: List.map
             (fun kind ->
               let inst = Factory.make ~threads:1 kind in
               let r = Workloads.Fragbench.run inst ~workload:w () in
               Output.mib r.Workloads.Fragbench.peak_after)
             frag_kinds)
      Workloads.Fragbench.all
  in
  [
    {
      Output.id = "fig1b";
      title = "Peak memory consumption on Fragbench (MiB; live cap 12 MiB)";
      header = "workload" :: List.map Factory.name frag_kinds;
      rows;
      notes = [ "paper: up to 2.8x the live data for 1 GiB live" ];
    };
  ]

(* Dispersion statistics of the first 1000 metadata-flush addresses while
   running DBMStest — the textual rendering of Figure 2's scatter plots. *)
let fig2 () =
  let threads = 4 in
  let kinds =
    [ Factory.Nvm_malloc; Factory.Pallocator; Factory.Pmdk; Factory.Makalu; Factory.Nv_log ]
  in
  let rows =
    List.map
      (fun kind ->
        let inst = Factory.make ~threads kind in
        let _ = Workloads.Dbmstest.run inst ~params:(Sizes.dbmstest threads) () in
        let st = Pmem.Device.stats inst.Alloc_api.Instance.dev in
        let addrs = List.map snd (Pmem.Stats.trace st) in
        let n = List.length addrs in
        if n = 0 then [ Factory.name kind; "0"; "-"; "-"; "-" ]
        else begin
          let mn = List.fold_left min max_int addrs and mx = List.fold_left max 0 addrs in
          let fn = float_of_int n in
          let mean = List.fold_left (fun a x -> a +. float_of_int x) 0.0 addrs /. fn in
          let var =
            List.fold_left (fun a x -> a +. ((float_of_int x -. mean) ** 2.0)) 0.0 addrs /. fn
          in
          let stddev = sqrt var in
          (* Locality: share of consecutive flushes within one 4 KiB page. *)
          let rec local acc = function
            | a :: (b :: _ as rest) ->
                local (if abs (a - b) < 4096 then acc + 1 else acc) rest
            | _ -> acc
          in
          let loc = float_of_int (local 0 addrs) /. float_of_int (max 1 (n - 1)) in
          [
            Factory.name kind;
            string_of_int n;
            Output.mib (mx - mn);
            Output.mib (int_of_float stddev);
            Output.pct loc;
          ]
        end)
      kinds
  in
  [
    {
      Output.id = "fig2";
      title = "Metadata flush addresses during DBMStest (first 1000 flushes)";
      header = [ "allocator"; "samples"; "addr span MiB"; "stddev MiB"; "sequential share" ];
      rows;
      notes =
        [
          "baselines scatter metadata flushes across the heap (large span, low locality)";
          "NVAlloc-LOG confines them to the bookkeeping log (small span, high locality)";
        ];
    };
  ]
