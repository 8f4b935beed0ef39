type dist = Fixed of int | Uniform of int * int

type workload = { label : string; before : dist; delete_frac : float; after : dist }

let w1 = { label = "W1"; before = Fixed 100; delete_frac = 0.9; after = Fixed 130 }
let w2 = { label = "W2"; before = Uniform (100, 150); delete_frac = 0.0; after = Uniform (200, 250) }
let w3 = { label = "W3"; before = Uniform (100, 150); delete_frac = 0.9; after = Uniform (200, 250) }
let w4 = { label = "W4"; before = Uniform (100, 200); delete_frac = 0.5; after = Uniform (1000, 2000) }
let all = [ w1; w2; w3; w4 ]

type params = { live_cap : int; churn : int }

let default = { live_cap = 12 * 1024 * 1024; churn = 60 * 1024 * 1024 }

type frag_result = { result : Driver.result; peak_before : int; peak_after : int }

let draw rng = function Fixed n -> n | Uniform (lo, hi) -> Sim.Rng.int_in rng lo hi

(* Live object [k] < [count] sits in root slot [live_slot.(k)] with size
   [live_size.(k)]; free slots are a stack, [free_slots.(nfree - 1)] on
   top. Int arrays, so an op allocates nothing. *)
type state = {
  rng : Sim.Rng.t;
  live_slot : int array;
  live_size : int array;
  mutable count : int;
  free_slots : int array;
  mutable nfree : int;
  mutable live_bytes : int;
  mutable churned : int;
  mutable ops : int;
}

let delete_random inst st =
  let open Alloc_api.Instance in
  assert (st.count > 0);
  let k = Sim.Rng.int st.rng st.count in
  let slot = st.live_slot.(k) and size = st.live_size.(k) in
  st.live_slot.(k) <- st.live_slot.(st.count - 1);
  st.live_size.(k) <- st.live_size.(st.count - 1);
  st.count <- st.count - 1;
  inst.free ~tid:0 ~dest:(Driver.slot inst ~tid:0 slot);
  st.free_slots.(st.nfree) <- slot;
  st.nfree <- st.nfree + 1;
  st.live_bytes <- st.live_bytes - size;
  st.ops <- st.ops + 1

let churn_phase inst st ~(params : params) ~dist =
  let open Alloc_api.Instance in
  st.churned <- 0;
  while st.churned < params.churn do
    let size = draw st.rng dist in
    while st.live_bytes + size > params.live_cap do
      delete_random inst st
    done;
    st.nfree <- st.nfree - 1;
    let slot = st.free_slots.(st.nfree) in
    ignore (inst.malloc ~tid:0 ~size ~dest:(Driver.slot inst ~tid:0 slot));
    st.live_slot.(st.count) <- slot;
    st.live_size.(st.count) <- size;
    st.count <- st.count + 1;
    st.live_bytes <- st.live_bytes + size;
    st.churned <- st.churned + size;
    st.ops <- st.ops + 1
  done

let run (inst : Alloc_api.Instance.t) ~workload ?(params = default) ?(seed = 31) () =
  let open Alloc_api.Instance in
  let max_live = (params.live_cap / 64) + 64 in
  Driver.require_slots inst max_live;
  let st =
    {
      rng = Sim.Rng.create seed;
      live_slot = Array.make max_live 0;
      live_size = Array.make max_live 0;
      count = 0;
      (* Slot 0 on top, so slots pop as 0, 1, 2, ... *)
      free_slots = Array.init max_live (fun k -> max_live - 1 - k);
      nfree = max_live;
      live_bytes = 0;
      churned = 0;
      ops = 0;
    }
  in
  inst.reset_peak ();
  let peak_before = ref 0 in
  (* The phases run as one logical thread; Driver.run is bypassed because
     phases need code between them. *)
  churn_phase inst st ~params ~dist:workload.before;
  peak_before := inst.peak_bytes ();
  let victims = int_of_float (float_of_int st.count *. workload.delete_frac) in
  for _ = 1 to victims do
    delete_random inst st
  done;
  churn_phase inst st ~params ~dist:workload.after;
  let makespan = Sim.Clock.now inst.clocks.(0) in
  {
    result =
      {
        Driver.allocator = inst.name;
        threads = 1;
        total_ops = st.ops;
        makespan_ns = makespan;
        mops = (if makespan > 0.0 then float_of_int st.ops /. (makespan /. 1e9) /. 1e6 else 0.0);
        peak_bytes = inst.peak_bytes ();
      };
    peak_before = !peak_before;
    peak_after = inst.peak_bytes ();
  }
