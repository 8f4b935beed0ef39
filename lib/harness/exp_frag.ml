(** Figure 15 and Table 1: the Fragbench evaluation (section 6.4). *)

let log_no_morph =
  { Nvalloc_core.Config.log_default with Nvalloc_core.Config.slab_morphing = false }

let gc_no_morph =
  { Nvalloc_core.Config.gc_default with Nvalloc_core.Config.slab_morphing = false }

let tab1 () =
  [
    {
      Output.id = "tab1";
      title = "Workload configuration in Fragbench";
      header = [ "Workload"; "Before"; "Delete"; "After" ];
      rows =
        List.map
          (fun w ->
            let dist = function
              | Workloads.Fragbench.Fixed n -> Printf.sprintf "Fixed %d B" n
              | Workloads.Fragbench.Uniform (a, b) -> Printf.sprintf "Uniform %d-%d B" a b
            in
            [
              w.Workloads.Fragbench.label;
              dist w.Workloads.Fragbench.before;
              Output.pct w.Workloads.Fragbench.delete_frac;
              dist w.Workloads.Fragbench.after;
            ])
          Workloads.Fragbench.all;
      notes = [];
    };
  ]

let space_kinds =
  [
    Factory.Makalu;
    Factory.Nv_custom ("NVAlloc-LOG w/o SM", log_no_morph);
    Factory.Nv_log;
  ]

let run_frag kind w =
  let inst = Factory.make ~threads:1 kind in
  (inst, Workloads.Fragbench.run inst ~workload:w ())

let fig15a () =
  [
    {
      Output.id = "fig15a";
      title = "Fragbench peak memory (MiB; live cap 12 MiB)";
      header = "workload" :: List.map Factory.name space_kinds;
      rows =
        List.map
          (fun w ->
            w.Workloads.Fragbench.label
            :: List.map
                 (fun kind ->
                   let _, r = run_frag kind w in
                   Output.mib r.Workloads.Fragbench.peak_after)
                 space_kinds)
          Workloads.Fragbench.all;
      notes = [ "slab morphing reuses mostly-empty slabs of the old size class" ];
    };
  ]

let fig15b () =
  let configs =
    [ ("w/o SM", log_no_morph); ("with SM", Factory.log_full) ]
  in
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun (label, config) ->
            let inst = Factory.make ~threads:1 (Factory.Nv_custom (label, config)) in
            let _ = Workloads.Fragbench.run inst ~workload:w () in
            match inst.Alloc_api.Instance.slab_histogram with
            | Some hist ->
                let h = hist [ 0.3; 0.7; 1.0 ] in
                [
                  w.Workloads.Fragbench.label; label;
                  string_of_int h.(0); string_of_int h.(1); string_of_int h.(2);
                ]
            | None -> [ w.Workloads.Fragbench.label; label; "-"; "-"; "-" ])
          configs)
      Workloads.Fragbench.all
  in
  [
    {
      Output.id = "fig15b";
      title = "Slab count by space utilisation at end of run (NVAlloc-LOG)";
      header = [ "workload"; "config"; "0-30%"; "30-70%"; "70-100%" ];
      rows;
      notes = [ "morphing shifts slabs into the high-utilisation bucket" ];
    };
  ]

let perf_table ~id ~title kinds =
  {
    Output.id;
    title;
    header = "workload" :: List.map Factory.name kinds;
    rows =
      List.map
        (fun w ->
          w.Workloads.Fragbench.label
          :: List.map
               (fun kind ->
                 let _, r = run_frag kind w in
                 Output.ms r.Workloads.Fragbench.result.Workloads.Driver.makespan_ns)
               kinds)
        Workloads.Fragbench.all;
    notes = [];
  }

let fig15c () =
  [
    perf_table ~id:"fig15c" ~title:"Fragbench execution time (ms), strongly consistent"
      [
        Factory.Pmdk;
        Factory.Nvm_malloc;
        Factory.Nv_custom ("NVAlloc-LOG w/o SM", log_no_morph);
        Factory.Nv_log;
      ];
  ]

let fig15d () =
  [
    perf_table ~id:"fig15d" ~title:"Fragbench execution time (ms), weakly consistent"
      [
        Factory.Makalu;
        Factory.Ralloc;
        Factory.Nv_custom ("NVAlloc-GC w/o SM", gc_no_morph);
        Factory.Nv_gc;
      ];
  ]

let fig15 () = fig15a () @ fig15b () @ fig15c () @ fig15d ()
