(* Both sweeps share the shape: fan the seeds out, collect outcomes in
   index order, then shrink the lowest failing index sequentially so
   the reported counterexample is deterministic for any pool width.
   Later seeds keep running after an early failure — unlike the
   sequential loops, which stop — but the verdict they produce is
   discarded, so the printed output is unchanged. *)

let first_failure ~runs outcomes shrink =
  let rec go i =
    if i >= runs then None
    else match outcomes.(i) with None -> go (i + 1) | Some reason -> Some (shrink i reason)
  in
  go 0

let check_sweep ?batch ?mutation ?interleave pool ~alloc ~seed ~runs ~ops ~threads ?crash () =
  let scenarios =
    Array.init runs (fun i ->
        Check.Runner.scenario ?interleave ~alloc ~seed:(seed + i) ~ops ~threads ?crash ())
  in
  let outcomes =
    Pool.run pool ~n:runs (fun i ->
        match Check.Runner.run ?batch ?mutation scenarios.(i) with
        | Ok () -> None
        | Error reason -> Some reason)
  in
  first_failure ~runs outcomes (fun i reason ->
      let sc = scenarios.(i) in
      let shrunk, reason = Check.Runner.shrink ?batch ?mutation sc ~reason in
      { Check.Runner.original = sc; shrunk; reason })

let fuzz_sweep ?batch ?mutation ?check_order ?variant ?media
    ?(adjust = fun p -> p) pool ~seed ~runs () =
  (* Pure per-index sampling: [Rng.split] derives child [i] without
     advancing the root, so plan [i] depends on (seed, i) alone — the
     property that makes the sweep's output independent of how the
     indices land on domains. *)
  let root = Sim.Rng.create seed in
  let plans =
    Array.init runs (fun i ->
        adjust (Fault.Plan.sample ?variant ?media (Sim.Rng.split root i)))
  in
  let outcomes =
    Pool.run pool ~n:runs (fun i ->
        match Fault.Fuzz.run_plan ?batch ?mutation ?check_order plans.(i) with
        | Ok _ -> None
        | Error reason -> Some reason)
  in
  first_failure ~runs outcomes (fun i reason ->
      let shrunk, reason = Fault.Fuzz.shrink ?batch ?mutation ?check_order plans.(i) ~reason in
      { Fault.Fuzz.original = plans.(i); shrunk; reason })
