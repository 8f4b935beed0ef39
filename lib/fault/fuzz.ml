open Nvalloc_core

type counterexample = Plan.t Support.Search.counterexample

let sizes = [| 32; 48; 136; 1024; 40 * 1024 |]
let workload_slots = 512

(* Seeded op mix over the first [workload_slots] root slots: frees of
   published slots interleaved with small and large allocations — enough
   churn for refills, slab creation, morphing pressure and booklog
   traffic, all deterministic from the plan's seed. [inject] runs before
   each op (1-based); the media hooks hang off it. *)
let workload t th ~seed ~ops ~inject =
  let rng = Sim.Rng.create seed in
  for op = 1 to ops do
    inject op;
    let dest = Nvalloc.root_addr t (Sim.Rng.int rng workload_slots) in
    if Nvalloc.read_ptr t ~dest > 0 then begin
      if Sim.Rng.bool rng then Nvalloc.free_from t th ~dest
    end
    else ignore (Nvalloc.malloc_to t th ~size:sizes.(Sim.Rng.int rng (Array.length sizes)) ~dest)
  done

(* The scrub hook poisons the superblock line plus a live slab header
   and runs the pass in the same step: demand repair never sees the
   damage, so what happens next is entirely the scrubber's doing. A
   clean scrub repairs both from their replicas; [Mutation.Scrub]
   blesses the garbage instead, and recovery then chokes on the
   checksum-"valid" superblock magic (and reclaims the "torn" slab out
   from under its published roots) — the corruption the oracle must
   report. The superblock target makes the catch deterministic: nothing
   rewrites that line between the blessing and the crash, whereas a
   blessed slab's dangling roots can be masked when every affected
   (addr, dest) pair is still in the WAL replay window. *)
let poison_and_scrub t dev clock =
  let rec find i =
    if i >= workload_slots then None
    else
      let addr = Nvalloc.read_ptr t ~dest:(Nvalloc.root_addr t i) in
      if addr > 0 then
        match Nvalloc.owner_of_addr t addr with
        | Some { Nvalloc.base; is_slab = true; _ } -> Some base
        | _ -> find (i + 1)
      else find (i + 1)
  in
  (match find 0 with
  | Some base -> Pmem.Device.poison dev ~line:(base / Pmem.Cacheline.size)
  | None -> ());
  Pmem.Device.poison dev ~line:(Heap.sb_guard.Guard.primary / Pmem.Cacheline.size);
  ignore (Nvalloc.scrub t clock : int * int)

let run_plan ?(batch = true) ?mutation ?telemetry ?on_device (plan : Plan.t) =
  let media = Plan.media_active plan in
  let config = Plan.config plan.Plan.variant in
  let config = { config with Config.media_replication = media; batch } in
  let dev = Pmem.Device.create ~size:(64 * 1024 * 1024) () in
  Pmem.Device.set_check_mode dev true;
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config ?mutation dev clock in
  (* Attaching a sink records the full timeline — workload flushes, the
     crash, recovery phases — without touching simulated behaviour; the
     CLI replays a failing plan this way to dump the tail. *)
  (match telemetry with
  | Some sink -> Nvalloc.set_telemetry t (Some sink)
  | None -> ());
  let inject =
    if not media then fun _ -> ()
    else begin
      (* Rot before poison before scrub: the injectors partner-exclude
         against faults already present, so this order keeps every
         seeded fault repairable (the zero-loss bound). *)
      let rot_at = max 1 (plan.Plan.ops / 3) in
      let poison_at = max 1 (plan.Plan.ops / 2) in
      let scrub_at = max 1 (3 * plan.Plan.ops / 4) in
      fun op ->
        if op = rot_at && plan.Plan.rot > 0 then
          ignore (Nvalloc.inject_bitrot t ~seed:plan.Plan.rseed ~flips:plan.Plan.rot : int);
        if op = poison_at && plan.Plan.poison > 0 then
          ignore (Nvalloc.seed_poison t ~seed:plan.Plan.pseed ~count:plan.Plan.poison : int);
        if op = scrub_at && plan.Plan.scrub then poison_and_scrub t dev clock
    end
  in
  let th = Nvalloc.thread t clock in
  Pmem.Device.schedule_crash_after ?torn:plan.Plan.torn ~torn_seed:plan.Plan.torn_seed dev
    plan.Plan.crash_after;
  let crash_and_recover () =
    (try
       workload t th ~seed:plan.Plan.seed ~ops:plan.Plan.ops ~inject;
       (* The countdown outlived the workload: crash at the natural end. *)
       Pmem.Device.cancel_scheduled_crash dev;
       Pmem.Device.crash dev
     with Pmem.Device.Injected_crash -> ());
    match plan.Plan.recovery_crash with
    | None -> ()
    | Some n -> (
        (* Second crash, armed across recovery itself: whether it fires
           mid-recovery or recovery completes first, the oracle's own
           recovery must still reach a consistent state. *)
        Pmem.Device.schedule_crash_after dev n;
        try
          let _t, _report = Nvalloc.recover ~config dev clock in
          Pmem.Device.cancel_scheduled_crash dev;
          Pmem.Device.crash dev
        with Pmem.Device.Injected_crash -> ())
  in
  (* Any other exception before the oracle is a verdict too, worded as
     the oracle words its own, so the search shrinks it like any other. *)
  let verdict =
    match crash_and_recover () with
    | () -> Oracle.check ~config dev clock
    | exception e -> Error (Printf.sprintf "exception: %s" (Printexc.to_string e))
  in
  (match on_device with Some f -> f dev | None -> ());
  verdict

let fuzz ?batch ?mutation ?variant ?media ?(adjust = fun p -> p) ?domains ~seed ~runs () =
  let rng = Sim.Rng.create seed in
  let plans = Array.init runs (fun _ -> adjust (Plan.sample ?variant ?media rng)) in
  Support.Search.run ?domains
    ~test:(fun p -> run_plan ?batch ?mutation p)
    ~candidates:Plan.shrink_candidates plans
