(** The crash-plan fuzzer.

    {!run_plan} executes one {!Plan.t}: seeded workload, first crash
    (optionally torn), optional second crash armed inside recovery, then
    the full {!Oracle}. {!fuzz} samples plans from one seeded {!Sim.Rng}
    stream and runs them through {!Support.Search.run}: the first
    failing plan is shrunk (fewer ops, earlier crash, simpler fault)
    until no smaller plan still fails, giving a replayable
    counterexample.

    [?mutation] (default [Off]) seeds one protocol bug
    ({!Nvalloc_core.Mutation}) into the workload heap; the oracle's own
    recovery stays clean. It exists to demonstrate the pipeline end to
    end: a real protocol bug is caught by the oracle and shrunk to a
    one-line repro. [Wal_flush] breaks the WAL's flush-before-effect
    ordering, [Wal_record] makes every group commit forget its commit
    record, and [Scrub] makes scrub passes bless a damaged primary — the
    media mutation the oracle catches on plans with [scrub] set.
    [Header] is accepted too, but only walks that decode slab headers
    before the crash can see it, and the fuzzer runs none.

    Every plan runs with the device's persist-ordering checker enabled
    ({!Pmem.Device.set_check_mode}): commits whose declared dependencies
    are still dirty are recorded and turned into oracle failures,
    catching ordering bugs {e without} needing the crash to land in the
    vulnerable window.

    [?batch] (default [true]) sets [Config.batch]: the batched
    persistence pipeline — flush coalescing, WAL group commit, async
    checkpointing — so every sampled crash point also exercises the
    deferred paths; [~batch:false] runs the synchronous pipeline.

    Media plans ({!Plan.media_active}) run with
    [Config.media_replication] forced on and fire three deterministic
    hooks inside the workload: bit-rot at op [ops/3], poison at
    [ops/2], and at [3*ops/4] (when [plan.scrub]) a poison-then-scrub
    step against a live slab header — the only window in which the
    scrubber, not demand repair, meets the damage. *)

type counterexample = Plan.t Support.Search.counterexample

val run_plan :
  ?batch:bool ->
  ?mutation:Nvalloc_core.Mutation.t ->
  ?telemetry:Telemetry.t ->
  ?on_device:(Pmem.Device.t -> unit) ->
  Plan.t ->
  (Nvalloc_core.Nvalloc.recovery_report, string) result
(** Execute one plan against a fresh device and run the oracle. With
    [telemetry], the sink is attached to the plan's allocator stack
    before the workload starts, so the whole timeline — workload,
    crash(es), recovery — lands in it; simulated behaviour is unchanged
    (the result is identical with or without a sink). Any exception
    other than the injected crashes, raised before the oracle runs,
    becomes [Error "exception: ..."], as the oracle words its own.
    [on_device] runs last, against the plan's device (the CLI dumps its
    media counters from it). *)

val fuzz :
  ?batch:bool ->
  ?mutation:Nvalloc_core.Mutation.t ->
  ?variant:Plan.variant ->
  ?media:bool ->
  ?adjust:(Plan.t -> Plan.t) ->
  ?domains:int ->
  seed:int ->
  runs:int ->
  unit ->
  counterexample option
(** Sample [runs] plans from the stream seeded [seed] and run them on
    [domains] OCaml domains (default 1; {!Support.Search.run}); [None]
    means every plan passed. The verdict does not depend on [domains].
    [?media] passes through to {!Plan.sample}: sampled plans draw
    poison/bit-rot/scrub faults and pin the LOG variant. [?adjust]
    rewrites each sampled plan before it runs (the CLI uses it to pin
    media fields from flags); the printed counterexample is the
    adjusted plan, so one-line repros stay exact. *)
