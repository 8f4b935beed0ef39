(** Differential runner: one {!History} scenario, executed over a real
    allocator instance and the {!Model} reference heap in lockstep.

    Per executed operation the runner checks the model invariants
    (interval disjointness, alignment, destination publication: malloc
    leaves [dest] holding the returned address, free clears it) and
    periodically the byte bounds (mapped >= model-live, peak >= mapped,
    mapped within a generous multiple of everything ever requested).
    Operations the model marks as no-ops — an alloc on an occupied slot,
    a free of an empty slot (both arise naturally from cross-thread
    frees) — are charged as idle steps, so model and allocator never
    diverge on which operations execute.

    After a crash-free run on NVAlloc the runner additionally requires
    zero persist-ordering violations, cross-checks every model-live block
    against the allocator's own enumeration ([iter_live]), and runs the
    deep {!Nvalloc.integrity_walk} ([integrity]). A scenario with a crash
    point arms the device countdown and hands the crashed image to
    {!Fault.Oracle.check} (NVAlloc only; the baselines' recovery is a
    cost model, so their crash points are ignored).

    Failures shrink greedily ({!History.shrink_candidates}) to a one-line
    repro, through the same search as the crash-plan fuzzer. *)

val allocator_names : string list
(** Every allocator the checker can drive: the NVAlloc variants first,
    then the baselines. *)

val run : ?batch:bool -> ?mutation:Nvalloc_core.Mutation.t -> History.t -> (unit, string) result
(** Execute one scenario; [Error reason] names the first violated
    invariant. [batch] (default true) sets [Config.batch]: the batched
    persistence pipeline, or with [false] the synchronous one.
    [mutation] (default [Off]) seeds one protocol bug into the NVAlloc
    heap under test (no-op for baselines); the post-crash oracle's own
    recovery stays clean. A scenario with
    [sched] set runs under the scheduler's seeded pick rule. Raises
    [Invalid_argument] on an unknown allocator name. *)

type counterexample = History.t Support.Search.counterexample

val check :
  ?batch:bool ->
  ?mutation:Nvalloc_core.Mutation.t ->
  ?interleave:bool ->
  ?domains:int ->
  alloc:string ->
  seed:int ->
  runs:int ->
  ops:int ->
  threads:int ->
  ?crash:int ->
  unit ->
  counterexample option
(** Run [runs] scenarios with seeds [seed], [seed+1], ... against one
    allocator, on [domains] OCaml domains (default 1;
    {!Support.Search.run}); the lowest failing scenario is shrunk and
    returned. [None] = all passed. The verdict does not depend on
    [domains]. [interleave] (default false) sets each scenario's
    [sched] to its seed, so the seeded pick rule runs a different op
    order per seed. *)
