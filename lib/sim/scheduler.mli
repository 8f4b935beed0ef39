(** Deterministic discrete-time thread scheduler, with two pick rules.

    Logical threads are step functions. By default the scheduler
    repeatedly runs one step of the runnable thread with the smallest
    clock (ties broken by thread index), selected from a binary min-heap
    keyed on (clock, index) — O(log n) per step, with the same visit
    order as a linear min-scan — so simulated time advances consistently
    across threads: an operation that starts earlier is simulated
    earlier. One step should correspond to one workload operation (e.g.
    one malloc/free pair); locks and device queues then interleave the
    threads at operation granularity. Every figure uses this rule.

    The seeded rule (given an [rng]) instead steps a uniformly chosen
    runnable thread, whatever its clock. It is for checking only: it
    reaches op orders the min-clock rule never produces (a thread far
    ahead in simulated time running before a laggard), and each order is
    a pure function of the seed, so a failure replays and shrinks.

    The simulation is single-OS-threaded and needs no Domain machinery:
    determinism is the point, see DESIGN.md section 1. *)

type thread = {
  clock : Clock.t;
  step : unit -> bool;  (** perform one operation; [false] when finished *)
}

val run : ?telem:Telemetry.t -> ?rng:Rng.t -> thread array -> unit
(** Runs all threads to completion, by the min-clock rule or, with
    [rng], the seeded rule (which draws one value per step). With
    [telem], each scheduled step is
    emitted as a "run" span on its thread's track ([ts] = clock when
    picked, [dur] = clock advance); emission charges no simulated time,
    so traced and untraced runs produce identical simulated results. *)

val makespan : thread array -> float
(** Largest clock value: the simulated wall-clock duration of the run.
    Throughput = operations / makespan. *)
