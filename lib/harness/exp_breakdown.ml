(** Figure 11: execution-time breakdown of the Figure-9 configurations
    (Base, +Interleaved, +Log, full NVAlloc-LOG) at 8 threads. *)

let configs =
  let open Nvalloc_core in
  let base = Config.base Config.Log_based in
  [
    ("Base", base);
    ("+Interleaved", Config.with_interleaved_tcache base);
    ("+Log", Config.with_log_bookkeeping base);
    ("NVAlloc-LOG", Factory.log_full);
  ]

let benchmarks :
    (string * int * (Alloc_api.Instance.t -> threads:int -> Workloads.Driver.result)) list =
  [
    ( "Threadtest", 128 * 1024 * 1024,
      fun inst ~threads -> Workloads.Threadtest.run inst ~params:(Sizes.threadtest threads) () );
    ( "Larson-small", 128 * 1024 * 1024,
      fun inst ~threads -> Workloads.Larson.run inst ~params:(Sizes.larson_small threads) () );
    ( "DBMStest", 512 * 1024 * 1024,
      fun inst ~threads -> Workloads.Dbmstest.run inst ~params:(Sizes.dbmstest threads) () );
  ]

let fig11 () =
  let threads = 8 in
  List.mapi
    (fun i (bench_name, dev_size, run) ->
      let rows =
        List.map
          (fun (label, config) ->
            let inst =
              Factory.make ~dev_size ~threads (Factory.Nv_custom (label, config))
            in
            let _ = run inst ~threads in
            let st = Pmem.Device.stats inst.Alloc_api.Instance.dev in
            let total =
              Array.fold_left
                (fun acc c -> acc +. Sim.Clock.now c)
                0.0 inst.Alloc_api.Instance.clocks
            in
            let part v = Output.pct (if total > 0.0 then v /. total else 0.0) in
            let flush cat = float_of_int (Pmem.Stats.flush_ns st cat) in
            let meta = flush Meta in
            let wal = flush Wal in
            let log = flush Log in
            let data = flush Data in
            let search = float_of_int (Pmem.Stats.get st Search_ns) in
            let other = total -. meta -. wal -. log -. data -. search in
            [
              label; Output.ms total; part meta; part wal; part log; part data; part search;
              part (Float.max 0.0 other);
            ])
          configs
      in
      {
        Output.id = Printf.sprintf "fig11%c" (Char.chr (Char.code 'a' + i));
        title = Printf.sprintf "%s time breakdown, 8 threads (sum of thread time)" bench_name;
        header =
          [ "config"; "total ms"; "FlushMeta"; "FlushWAL"; "FlushLog"; "FlushData"; "Search";
            "Other" ];
        rows;
        notes = [];
      })
    benchmarks
