(** Seed-deterministic concurrent histories for the differential checker.

    A {e scenario} is the replayable description of one checker run — the
    allocator under test, the RNG seed, the total operation budget, the
    thread count, an optional crash point (a flush countdown, as in
    {!Fault.Plan}) and an optional scheduling seed. Scenarios round-trip through a one-line [key=value]
    repro string, mirroring the fuzzer's UX, and shrink greedily.

    {!generate} expands a scenario into per-thread operation streams
    exercising the situations the paper's protocols must survive:
    size-class boundary sizes, tcache-overflow bursts, morph-inducing
    churn (dense fill, sparse free, different-class refill), cross-thread
    frees, and large/small interleavings. Generation is a pure function
    of (seed, ops, threads) — the same scenario always produces the same
    streams, byte for byte. *)

type t = {
  alloc : string;  (** allocator name (see {!Runner.allocator_names}) *)
  seed : int;
  ops : int;  (** total operations across all threads *)
  threads : int;
  crash : int option;  (** crash after this many flushed lines (NVAlloc only) *)
  sched : int option;
      (** [Some n]: run under the scheduler's seeded pick rule, seeded
          [n] ({!Sim.Scheduler.run}); [None]: the min-clock rule *)
}

val to_string : t -> string
(** One-line replayable repro, e.g.
    [alloc=NVAlloc-LOG seed=7 ops=4000 threads=4 crash=-]; a set
    [sched] appends [ sched=N]. *)

val of_string : string -> (t, string) result
(** Parse a {!to_string} line; validates [ops >= 1], [threads >= 1] and
    [crash >= 1]. [sched] is optional. *)

val shrink_candidates : t -> t list
(** Strictly "smaller" scenarios to try when this one fails: drop or
    halve the crash point, halve/decrement the op budget, halve the
    thread count. Every candidate keeps [sched]. *)

(** One operation of a thread's stream. [slot] indexes the owning
    thread's root-slot partition; a [Free] may target another thread's
    partition ([owner]), which is how cross-thread frees reach the
    allocator. *)
type op = Alloc of { slot : int; size : int } | Free of { owner : int; slot : int }

val slots_per_thread : int
(** Root-slot partition size each scenario assumes (256). *)

val generate : t -> large_ok:bool -> op array array
(** [generate t ~large_ok] is one op array per thread, [t.ops] in total.
    With [large_ok] false (allocator without large-object support) no
    size exceeds [Size_class.max_small]. *)
