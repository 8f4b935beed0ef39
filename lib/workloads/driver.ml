type result = {
  allocator : string;
  threads : int;
  total_ops : int;
  makespan_ns : float;
  mops : float;
  peak_bytes : int;
}

(* Heap-introspection snapshot cadence, in scheduler steps summed over
   all threads. Scheduler order is deterministic, so snapshot times are
   too. *)
let snapshot_period = 1024

(* Idle-poll charge for the background-maintenance daemon. The scheduler
   picks the smallest clock, so the daemon interleaves with the workers
   every [poll] of simulated time; checkpoint work it performs charges
   its own clock on top. *)
let maintenance_poll_ns = 2000

(* An instance with no threads has nothing to schedule and makes the
   per-thread root-slot partition a division by zero: reject it loudly
   instead of failing deep inside a workload. *)
let require_threads (inst : Alloc_api.Instance.t) =
  if inst.Alloc_api.Instance.threads <= 0 then
    invalid_arg
      (Printf.sprintf "Driver: instance %S has %d threads (need >= 1)"
         inst.Alloc_api.Instance.name inst.Alloc_api.Instance.threads)

let run ?rng (inst : Alloc_api.Instance.t) ~ops_of ~step_of =
  require_threads inst;
  inst.Alloc_api.Instance.reset_peak ();
  let telem = Pmem.Device.telemetry inst.Alloc_api.Instance.dev in
  let steps = ref 0 in
  let wrap ~tid =
    let step = step_of ~tid in
    match telem with
    | None -> step
    | Some _ ->
        fun () ->
          let live = step () in
          incr steps;
          if !steps mod snapshot_period = 0 then
            inst.Alloc_api.Instance.snapshot (Sim.Clock.ns inst.Alloc_api.Instance.clocks.(tid));
          live
  in
  let threads =
    Array.init inst.Alloc_api.Instance.threads (fun tid ->
        { Sim.Scheduler.clock = inst.Alloc_api.Instance.clocks.(tid); step = wrap ~tid })
  in
  (* The maintenance daemon (async WAL checkpoints) runs as one extra
     scheduler thread on its own clock: it polls while any worker is
     live and retires with the last of them. Its clock is deliberately
     excluded from the makespan — trailing idle polls are not workload
     time; the contention its checkpoints cause lands on worker clocks
     through the arena locks. *)
  let scheduled =
    match inst.Alloc_api.Instance.maintenance with
    | None -> threads
    | Some tick ->
        let live_workers = ref (Array.length threads) in
        let workers =
          Array.map
            (fun th ->
              {
                th with
                Sim.Scheduler.step =
                  (fun () ->
                    let live = th.Sim.Scheduler.step () in
                    if not live then decr live_workers;
                    live);
              })
            threads
        in
        let dclock = Sim.Clock.create () in
        let daemon =
          {
            Sim.Scheduler.clock = dclock;
            step =
              (fun () ->
                if !live_workers = 0 then false
                else begin
                  if not (tick dclock) then Sim.Clock.charge dclock maintenance_poll_ns;
                  true
                end);
          }
        in
        Array.append workers [| daemon |]
  in
  Sim.Scheduler.run ?telem ?rng scheduled;
  let makespan = Sim.Scheduler.makespan threads in
  let makespan_ns = float_of_int makespan in
  (* Close the track with a final snapshot at the makespan. *)
  (match telem with Some _ -> inst.Alloc_api.Instance.snapshot makespan | None -> ());
  let total_ops = ref 0 in
  for tid = 0 to inst.Alloc_api.Instance.threads - 1 do
    total_ops := !total_ops + ops_of ~tid
  done;
  {
    allocator = inst.Alloc_api.Instance.name;
    threads = inst.Alloc_api.Instance.threads;
    total_ops = !total_ops;
    makespan_ns;
    mops =
      (if makespan > 0 then float_of_int !total_ops /. (makespan_ns /. 1e9) /. 1e6 else 0.0);
    peak_bytes = inst.Alloc_api.Instance.peak_bytes ();
  }

let idle (inst : Alloc_api.Instance.t) ~tid =
  Sim.Clock.charge inst.Alloc_api.Instance.clocks.(tid) 100

let slots_per_thread (inst : Alloc_api.Instance.t) =
  require_threads inst;
  inst.Alloc_api.Instance.root_count / inst.Alloc_api.Instance.threads

let require_slots (inst : Alloc_api.Instance.t) n =
  let per = slots_per_thread inst in
  if n > per then
    invalid_arg
      (Printf.sprintf
         "Driver: workload needs %d root slots per thread, instance %S provides %d (%d slots \
          / %d threads)"
         n inst.Alloc_api.Instance.name per inst.Alloc_api.Instance.root_count
         inst.Alloc_api.Instance.threads)

let slot (inst : Alloc_api.Instance.t) ~tid i =
  let per = slots_per_thread inst in
  if i < 0 || i >= per then
    invalid_arg (Printf.sprintf "Driver.slot: index %d outside the %d-slot partition" i per);
  (* Interleave consecutive logical slots across cache lines (8 slots of
     8 B per line): benchmark harnesses pad their result arrays to avoid
     false sharing, and without this every allocator pays identical
     destination-line reflushes that mask the metadata effects under
     study. *)
  let phys =
    if per mod 8 = 0 && per >= 64 then (i mod 8 * (per / 8)) + (i / 8) else i
  in
  inst.Alloc_api.Instance.root ((tid * per) + phys)
