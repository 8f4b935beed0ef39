type params = {
  slots : int;
  ops : int;
  min_size : int;
  max_size : int;
  cross_frac : float;
}

let small = { slots = 1000; ops = 10_000; min_size = 64; max_size = 256; cross_frac = 0.2 }

let large =
  { slots = 64; ops = 1500; min_size = 32 * 1024; max_size = 512 * 1024; cross_frac = 0.2 }

let run (inst : Alloc_api.Instance.t) ?(params = small) ?(seed = 11) () =
  let open Alloc_api.Instance in
  Driver.require_slots inst params.slots;
  let occupied = Array.make (inst.threads * params.slots) false in
  let rngs = Array.init inst.threads (fun tid -> Sim.Rng.create (seed + tid)) in
  let remaining = Array.make inst.threads params.ops in
  let step ~tid () =
    if remaining.(tid) <= 0 then false
    else begin
      let rng = rngs.(tid) in
      let owner =
        if inst.threads > 1 && Sim.Rng.chance rng params.cross_frac then
          (tid + 1) mod inst.threads
        else tid
      in
      let i = Sim.Rng.int rng params.slots in
      let key = (owner * params.slots) + i in
      let dest = Driver.slot inst ~tid:owner i in
      if occupied.(key) then begin
        inst.free ~tid ~dest;
        occupied.(key) <- false;
        remaining.(tid) <- remaining.(tid) - 1
      end
      else if owner = tid then begin
        let size = Sim.Rng.int_in rng params.min_size params.max_size in
        ignore (inst.malloc ~tid ~size ~dest);
        occupied.(key) <- true;
        remaining.(tid) <- remaining.(tid) - 1
      end
      else
        (* A cross-thread probe that found the slot empty: cheap retry. *)
        Driver.idle inst ~tid;
      true
    end
  in
  Driver.run inst ~ops_of:(fun ~tid:_ -> params.ops) ~step_of:step
