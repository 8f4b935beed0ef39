open Nvalloc_core

(* 1 GiB device: the store materialises chunks lazily, so headroom for
   adversarial large-allocation seeds costs nothing. *)
let dev_size = 1 lsl 30

let nv_base = function
  | "NVAlloc-LOG" -> Some Config.log_default
  | "NVAlloc-GC" -> Some Config.gc_default
  | "NVAlloc-IC" -> Some Config.ic_default
  | _ -> None

let baseline_knobs =
  Baselines.Knobs.[ pmdk; nvm_malloc; pallocator; makalu; ralloc; jemalloc; tcmalloc ]

let allocator_names =
  [ "NVAlloc-LOG"; "NVAlloc-GC"; "NVAlloc-IC" ]
  @ List.map (fun k -> k.Baselines.Knobs.name) baseline_knobs

(* Small, checkpoint-happy configuration in the Fault.Plan spirit: a tight
   WAL ring and tiny tcaches reach the interesting protocol transitions
   (checkpoints, refills, morphs) within a few hundred operations. *)
let nv_config base ~threads =
  {
    base with
    Config.arenas = min 2 (max 1 threads);
    root_slots = threads * History.slots_per_thread;
    booklog_chunks = 128;
    wal_entries = 1024;
    tcache_capacity = 8;
  }

let build ~batch ?mutation (sc : History.t) =
  match nv_base sc.History.alloc with
  | Some base ->
      let config = { (nv_config base ~threads:sc.History.threads) with Config.batch } in
      let inst =
        Alloc_api.Instance.of_nvalloc ~config ~threads:sc.History.threads ~dev_size ?mutation ()
      in
      (* The persist-ordering checker turns protocol bugs into verdicts
         even on crash-free runs (a crash point is not required to catch
         the WAL-flush mutation). *)
      Pmem.Device.set_check_mode inst.Alloc_api.Instance.dev true;
      (inst, Some config)
  | None -> (
      match
        List.find_opt (fun k -> k.Baselines.Knobs.name = sc.History.alloc) baseline_knobs
      with
      | Some knobs ->
          ( Baselines.Bengine.instance ~knobs ~threads:sc.History.threads ~dev_size
              ~root_slots:(sc.History.threads * History.slots_per_thread) (),
            None )
      | None -> invalid_arg ("Check.Runner: unknown allocator " ^ sc.History.alloc))

let mib = 1024 * 1024

let run ?(batch = true) ?mutation (sc : History.t) =
  if sc.History.ops < 1 then invalid_arg "Check.Runner.run: ops must be >= 1";
  if sc.History.threads < 1 then invalid_arg "Check.Runner.run: threads must be >= 1";
  let inst, nvcfg = build ~batch ?mutation sc in
  let dev = inst.Alloc_api.Instance.dev in
  Workloads.Driver.require_slots inst History.slots_per_thread;
  let streams = History.generate sc ~large_ok:inst.Alloc_api.Instance.supports_large in
  let model = Model.create () in
  let fail = ref None in
  let fail_at tid i fmt =
    Printf.ksprintf
      (fun m -> if !fail = None then fail := Some (Printf.sprintf "tid %d op %d: %s" tid i m))
      fmt
  in
  let executed = ref 0 in
  let read_dest dest = Int64.to_int (Pmem.Device.read_int64 dev dest) in
  let bounds_check tid i =
    let mapped = inst.Alloc_api.Instance.mapped_bytes () in
    let peak = inst.Alloc_api.Instance.peak_bytes () in
    let live = Model.live_bytes model in
    if mapped < live then fail_at tid i "mapped %d B < model-live %d B" mapped live;
    if peak < mapped then fail_at tid i "peak %d B < mapped %d B" peak mapped;
    (* Loose leak backstop: block rounding and slab/extent overhead are
       bounded multiples of what was ever requested; freed-but-retained
       extents (decay) are covered by the cumulative total. *)
    let cap = (4 * Model.total_bytes model) + (64 * mib) in
    if mapped > cap then
      fail_at tid i "mapped %d B above bound %d B (total requested %d B)" mapped cap
        (Model.total_bytes model)
  in
  let step_of ~tid =
    let ops = streams.(tid) in
    let i = ref 0 in
    fun () ->
      if !fail <> None || !i >= Array.length ops then false
      else begin
        (match ops.(!i) with
        | History.Alloc { slot; size } -> (
            let dest = Workloads.Driver.slot inst ~tid slot in
            match Model.at_dest model ~dest with
            | Some _ -> Workloads.Driver.idle inst ~tid (* occupied slot: no-op *)
            | None -> (
                let addr = inst.Alloc_api.Instance.malloc ~tid ~size ~dest in
                match Model.on_alloc model ~tid ~dest ~size ~addr with
                | Error e -> fail_at tid !i "%s" e
                | Ok () ->
                    let pub = read_dest dest in
                    if pub <> addr then
                      fail_at tid !i "dest %#x publishes %#x, malloc returned %#x" dest pub
                        addr))
        | History.Free { owner; slot } -> (
            let dest = Workloads.Driver.slot inst ~tid:owner slot in
            match Model.at_dest model ~dest with
            | None -> Workloads.Driver.idle inst ~tid (* empty slot: no-op *)
            | Some _ -> (
                inst.Alloc_api.Instance.free ~tid ~dest;
                match Model.on_free model ~dest with
                | Error e -> fail_at tid !i "%s" e
                | Ok a ->
                    let pub = read_dest dest in
                    if pub <> 0 then
                      fail_at tid !i "free of %#x left dest %#x holding %#x" a.Model.addr dest
                        pub)));
        incr executed;
        if !executed land 255 = 0 then bounds_check tid !i;
        incr i;
        !fail = None && !i < Array.length ops
      end
  in
  let ops_of ~tid = Array.length streams.(tid) in
  let rng = Option.map Sim.Rng.create sc.History.sched in
  let drive () =
    try
      ignore (Workloads.Driver.run ?rng inst ~ops_of ~step_of : Workloads.Driver.result);
      `Completed
    with Pmem.Device.Injected_crash -> `Crashed
  in
  match (sc.History.crash, nvcfg) with
  | Some n, Some config ->
      (* Crash mode: arm the flush countdown, then hand the crashed image
         to the full post-crash invariant oracle. *)
      Pmem.Device.schedule_crash_after dev n;
      let outcome = drive () in
      (match !fail with
      | Some m -> Error m
      | None ->
          (match outcome with
          | `Completed ->
              Pmem.Device.cancel_scheduled_crash dev;
              Pmem.Device.crash dev
          | `Crashed -> ());
          let clock = Sim.Clock.create () in
          Result.map
            (fun (_ : Nvalloc.recovery_report) -> ())
            (Fault.Oracle.check ~config dev clock))
  | _ ->
      (* Crash-free (baselines ignore the crash point: their recovery is
         a cost model with nothing to verify). *)
      let (_ : [ `Completed | `Crashed ]) = drive () in
      let ( let* ) = Result.bind in
      let* () = match !fail with Some m -> Error m | None -> Ok () in
      let* () =
        if nvcfg <> None && Pmem.Device.ordering_violation_count dev > 0 then
          Error
            (Format.asprintf "%d persist-ordering violation(s): %a"
               (Pmem.Device.ordering_violation_count dev)
               Pmem.Device.pp_violation
               (List.hd (Pmem.Device.ordering_violations dev)))
        else Ok ()
      in
      (* Model liveness vs. the allocator's own enumeration: every block
         the model holds live must be enumerated, at a size covering the
         request. (The enumeration may be a superset — tcache residents
         under LOG.) *)
      let* () =
        match inst.Alloc_api.Instance.iter_live with
        | None -> Ok ()
        | Some iter ->
            let enumerated = Hashtbl.create 1024 in
            iter (fun ~addr ~size -> Hashtbl.replace enumerated addr size);
            let bad = ref None in
            Model.iter model (fun ~dest a ->
                if !bad = None then
                  match Hashtbl.find_opt enumerated a.Model.addr with
                  | Some sz when sz >= a.Model.size -> ()
                  | Some sz ->
                      bad :=
                        Some
                          (Printf.sprintf
                             "live block %#x (dest %#x): enumerated size %d < requested %d"
                             a.Model.addr dest sz a.Model.size)
                  | None ->
                      bad :=
                        Some
                          (Printf.sprintf
                             "live block %#x (dest %#x, %d B) missing from the allocator's \
                              enumeration"
                             a.Model.addr dest a.Model.size));
            (match !bad with None -> Ok () | Some e -> Error e)
      in
      (* Deep persistent-image walk, ending in the quiescing WAL check. *)
      (match inst.Alloc_api.Instance.integrity with
      | None -> Ok ()
      | Some walk -> Result.map (fun (_ : string) -> ()) (walk ()))

type counterexample = History.t Support.Search.counterexample

let check ?batch ?mutation ?(interleave = false) ?domains ~alloc ~seed ~runs ~ops ~threads ?crash
    () =
  let scenario i =
    let seed = seed + i in
    { History.alloc; seed; ops; threads; crash; sched = (if interleave then Some seed else None) }
  in
  Support.Search.run ?domains
    ~test:(fun sc -> run ?batch ?mutation sc)
    ~candidates:History.shrink_candidates (Array.init runs scenario)
