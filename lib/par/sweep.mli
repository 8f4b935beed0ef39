(** Seed-sweep parallelism: independent seeds, each on its own fresh
    device and instance, fanned over the pool — the embarrassingly
    parallel case where domains buy real wall-time speedup.

    Tasks run on the simulated scheduler; {!Pool.run}'s index-ordered
    results plus sequential shrinking of the first failure make the
    aggregated verdict byte-identical for any [--domains] value. *)

val check_sweep :
  ?batch:bool ->
  ?mutation:Nvalloc_core.Mutation.t ->
  ?interleave:bool ->
  Pool.t ->
  alloc:string ->
  seed:int ->
  runs:int ->
  ops:int ->
  threads:int ->
  ?crash:int ->
  unit ->
  Check.Runner.counterexample option
(** Parallel [Check.Runner.check]: seeds [seed .. seed+runs-1] fan out
    over the pool; the lowest failing seed is then shrunk sequentially,
    so the counterexample equals the sequential checker's (which stops
    at the first failure — the sweep merely also finishes the later
    seeds it had already started). *)

val fuzz_sweep :
  ?batch:bool ->
  ?mutation:Nvalloc_core.Mutation.t ->
  ?check_order:bool ->
  ?variant:Fault.Plan.variant ->
  ?media:bool ->
  ?adjust:(Fault.Plan.t -> Fault.Plan.t) ->
  Pool.t ->
  seed:int ->
  runs:int ->
  unit ->
  Fault.Fuzz.counterexample option
(** Parallel crash-plan fuzzing. Plan [i] is sampled from the {e pure}
    child stream [Sim.Rng.split (create seed) i], so the sampled plans
    are a function of [(seed, i)] alone — identical for any domain
    count, though {e different} from the sequential fuzzer's
    one-stream sampling at the same seed (a sweep is its own corpus).
    First failing index shrinks sequentially, as above. *)
