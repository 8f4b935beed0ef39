(** Per-thread simulated clock.

    Every logical thread in the simulation owns one clock, measured in
    whole nanoseconds since the start of the run. All latency charged by
    the persistent-memory device, locks and CPU work advances the clock of
    the thread performing the operation. Simulated time is an [int]
    everywhere it is charged, compared or accumulated; {!now} converts it
    to [float] for reports. *)

type t

val create : unit -> t
(** Each clock gets a unique {!id}; the device uses it to keep per-thread
    flush-stream state (reflush windows, sequentiality), since those are
    properties of one core's write stream. *)

val ns : t -> int
(** Current time in nanoseconds. *)

val now : t -> float
(** [float_of_int (ns t)], for reports. *)

val id : t -> int

val charge : t -> int -> unit
(** [charge t ns] advances the clock by [ns] nanoseconds. *)

val wait_until : t -> int -> unit
(** [wait_until t time] advances the clock to [time] if it is in the
    future; a no-op otherwise. *)

val restart : t -> unit
(** Reset the clock to 0 (used by benchmarks that time phases of one
    instance separately); the [id] is unchanged. *)
