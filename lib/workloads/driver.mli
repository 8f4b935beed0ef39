(** Workload driver: runs per-thread step functions over an allocator
    instance through the deterministic scheduler and gathers the metrics
    every experiment reports. *)

type result = {
  allocator : string;
  threads : int;
  total_ops : int;  (** allocation + free operations performed *)
  makespan_ns : float;  (** simulated wall-clock of the run *)
  mops : float;  (** throughput, million operations / simulated second *)
  peak_bytes : int;  (** peak mapped persistent memory during the run *)
}

val run :
  ?rng:Sim.Rng.t ->
  Alloc_api.Instance.t -> ops_of:(tid:int -> int) -> step_of:(tid:int -> unit -> bool) -> result
(** [step_of ~tid] builds thread [tid]'s step closure ([false] = done);
    [ops_of ~tid] declares how many operations that thread will have
    performed, for the throughput figure. Resets peak tracking before
    starting. When the instance's device has a telemetry sink attached,
    the scheduler emits per-step "run" spans into it and the instance's
    heap snapshot is taken every 1024 scheduler steps and once at the
    makespan. With [rng] the scheduler uses its seeded pick rule
    ({!Sim.Scheduler.run}) instead of min-clock: a checker-only mode,
    never used for figures. Raises [Invalid_argument] on an instance
    with [threads <= 0]. *)

val require_slots : Alloc_api.Instance.t -> int -> unit
(** Assert that each thread's root-slot partition holds at least [n]
    slots, raising a descriptive [Invalid_argument] otherwise — the
    uniform guard workloads use against op counts that overflow the
    per-thread partitioning. Also rejects [threads <= 0]. *)

val idle : Alloc_api.Instance.t -> tid:int -> unit
(** Charge a short idle spin (used when a consumer waits for its
    producer). *)

val slots_per_thread : Alloc_api.Instance.t -> int
(** Root-table slots available to each thread (disjoint partitions).
    Raises [Invalid_argument] on [threads <= 0]. *)

val slot : Alloc_api.Instance.t -> tid:int -> int -> int
(** Address of thread [tid]'s [i]-th root slot. *)
