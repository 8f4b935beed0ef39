open Nvalloc_core

type t = {
  name : string;
  threads : int;
  clocks : Sim.Clock.t array;
  dev : Pmem.Device.t;
  malloc : tid:int -> size:int -> dest:int -> int;
  free : tid:int -> dest:int -> unit;
  root : int -> int;
  root_count : int;
  mapped_bytes : unit -> int;
  peak_bytes : unit -> int;
  reset_peak : unit -> unit;
  metadata_bytes : (unit -> int) option;
  supports_large : bool;
  slab_histogram : (float list -> int array) option;
  shutdown : unit -> unit;
  recover : unit -> float;
  snapshot : int -> unit;
  iter_live : ((addr:int -> size:int -> unit) -> unit) option;
  integrity : (unit -> (string, string) result) option;
  maintenance : (Sim.Clock.t -> bool) option;
}

let of_nvalloc ?name ~config ~threads ~dev_size ?(eadr = false) ?(eadr_keep_interleave = false)
    ?mutation () =
  let lat = if eadr then Pmem.Latency.eadr else Pmem.Latency.default in
  let dev = Pmem.Device.create ~lat ~size:dev_size () in
  let clocks = Array.init threads (fun _ -> Sim.Clock.create ()) in
  (* eADR disables the interleaved mapping, as the paper does via
     pmem_has_auto_flush() (section 6.7). *)
  let config =
    if eadr && not eadr_keep_interleave then
      {
        config with
        Config.bit_stripes = 1;
        interleave_tcache = false;
        interleave_logs = false;
      }
    else config
  in
  let config = { config with Config.arenas = min config.Config.arenas (max 1 threads) } in
  let t = Nvalloc.create ~config ?mutation dev clocks.(0) in
  let handles = Array.init threads (fun tid -> Nvalloc.thread t clocks.(tid)) in
  let default_name =
    match config.Config.consistency with
    | Config.Log_based -> "NVAlloc-LOG"
    | Config.Gc_based -> "NVAlloc-GC"
    | Config.Internal_collection -> "NVAlloc-IC"
  in
  let name = Option.value ~default:default_name name in
  (* A CLI-level --telemetry request reaches instances built anywhere
     (the experiment registry constructs its own) through the capture
     registry. *)
  ignore
    (Telemetry.attach_if_capturing ~name
       ~attach:(fun sink -> Nvalloc.set_telemetry t (Some sink))
      : Telemetry.t option);
  {
    name;
    threads;
    clocks;
    dev;
    malloc = (fun ~tid ~size ~dest -> Nvalloc.malloc_to t handles.(tid) ~size ~dest);
    free = (fun ~tid ~dest -> Nvalloc.free_from t handles.(tid) ~dest);
    root = (fun i -> Nvalloc.root_addr t i);
    root_count = Nvalloc.root_slots t;
    mapped_bytes = (fun () -> Nvalloc.mapped_bytes t);
    peak_bytes = (fun () -> Nvalloc.peak_mapped_bytes t);
    reset_peak = (fun () -> Nvalloc.reset_peak t);
    metadata_bytes = Some (fun () -> Nvalloc.metadata_bytes t);
    supports_large = true;
    slab_histogram = Some (fun buckets -> Nvalloc.slab_utilization_histogram t ~buckets);
    shutdown = (fun () -> Nvalloc.exit_ t clocks.(0));
    recover =
      (fun () ->
        Pmem.Device.crash dev;
        let clock = Sim.Clock.create () in
        let _t', _report = Nvalloc.recover ~config ?mutation dev clock in
        Sim.Clock.now clock);
    snapshot = (fun ts -> Nvalloc.telemetry_snapshot t ~ts);
    iter_live = Some (fun f -> Nvalloc.iter_allocated t f);
    integrity = Some (fun () -> Nvalloc.integrity_walk t clocks.(0));
    maintenance =
      (* Read the config the heap runs: eADR turns batching off, and
         with it every checkpoint the daemon could take. *)
      (let config = Nvalloc.config t in
       let checkpointing = config.Config.batch in
       let scrubbing = config.Config.media_scrub in
       if checkpointing || scrubbing then
         Some
           (fun clock ->
             (* Every arena ticks, in order; a loop builds no closure. *)
             let ran = ref false in
             if checkpointing then begin
               let arenas = Nvalloc.arenas t in
               for i = 0 to Array.length arenas - 1 do
                 if Arena.async_checkpoint_tick arenas.(i) clock then ran := true
               done
             end;
             (* Background scrub rides the same idle slots as the
                checkpoint daemon (tentpole (c)). *)
             let scrubbed = scrubbing && Nvalloc.scrub_tick t clock in
             !ran || scrubbed)
       else None);
  }
