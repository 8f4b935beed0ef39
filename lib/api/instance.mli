(** Uniform allocator interface.

    Every allocator under evaluation — NVAlloc in both variants and all
    behavioural baselines — is driven by the benchmarks through this one
    record, mirroring the paper's methodology of running identical
    workloads over different allocators. An instance owns its device, a
    per-logical-thread clock, and a persistent root table.

    Conventions:
    - [tid] ranges over [0, threads);
    - [malloc ~tid ~size ~dest] returns the allocated address and
      persistently publishes it at [dest];
    - [free ~tid ~dest] frees the object whose address is stored at
      [dest] and clears [dest]; freeing a slot that holds no published
      address raises [Invalid_argument] with the uniform message
      [Nvalloc_core.Nvalloc.err_free_unpublished] on {e every} allocator
      (NVAlloc and all baselines alike);
    - all simulated latency lands on [clocks.(tid)]. *)

type t = {
  name : string;
  threads : int;
  clocks : Sim.Clock.t array;
  dev : Pmem.Device.t;
  malloc : tid:int -> size:int -> dest:int -> int;
  free : tid:int -> dest:int -> unit;
  root : int -> int;  (** root-table slot address *)
  root_count : int;
  mapped_bytes : unit -> int;
  peak_bytes : unit -> int;
  reset_peak : unit -> unit;
  metadata_bytes : (unit -> int) option;
      (** bytes of per-object heap metadata currently resident
          ([Nvalloc.metadata_bytes]); [None] for baselines *)
  supports_large : bool;
      (** Ralloc's open-source build mishandles large objects (paper
          section 6.2); experiments exclude such allocators. *)
  slab_histogram : (float list -> int array) option;
      (** Occupancy-bucket counts over live slabs (Figure 15(b));
          only NVAlloc exposes this. *)
  shutdown : unit -> unit;  (** clean exit, charged to clock 0 *)
  recover : unit -> float;
      (** crash the device, run recovery on a fresh clock, return the
          simulated recovery time in ns *)
  snapshot : int -> unit;
      (** emit a heap-introspection telemetry snapshot stamped at the
          given simulated time; no-op when the allocator has no attached
          sink or no introspection (baselines) *)
  iter_live : ((addr:int -> size:int -> unit) -> unit) option;
      (** enumerate every object the allocator considers allocated
          (NVAlloc: [Nvalloc.iter_allocated] — may transiently include
          tcache-resident blocks under LOG); [None] for baselines *)
  integrity : (unit -> (string, string) result) option;
      (** deep heap-integrity walk ([Nvalloc.integrity_walk], charged to
          clock 0): structural invariants, then a quiescing tcache-drain +
          WAL-checkpoint pass. Mutates the heap (empties tcaches) — call
          after the workload. [None] for baselines *)
  maintenance : (Sim.Clock.t -> bool) option;
      (** background-maintenance poll for the workload driver's daemon
          thread (NVAlloc: async WAL checkpoints over all arenas,
          [Arena.async_checkpoint_tick], plus the media scrub pass
          [Nvalloc.scrub_tick] when [Config.media_scrub] is on); returns
          whether any work ran. Latency lands on the daemon's clock, off
          the worker critical path. [None] when the allocator has none
          configured *)
}

val of_nvalloc :
  ?name:string ->
  config:Nvalloc_core.Config.t ->
  threads:int ->
  dev_size:int ->
  ?eadr:bool ->
  ?eadr_keep_interleave:bool ->
  ?mutation:Nvalloc_core.Mutation.t ->
  unit ->
  t
(** Build an NVAlloc instance (LOG or GC per the config). On eADR the
    interleaved mapping is disabled, as NVAlloc does via
    [pmem_has_auto_flush()] (section 6.7) — unless
    [eadr_keep_interleave] is set (Figure 19 studies exactly that).

    [mutation] (default [Off]) seeds one protocol bug into the heap
    ({!Nvalloc_core.Mutation}) for checker/fuzzer mutation tests
    {e only}; the instance's own [recover] rebuilds the heap with it
    too. Never set it outside a test harness. *)
