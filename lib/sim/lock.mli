(** Simulated mutex.

    A lock is a timestamp: the moment it next becomes free. Acquisition by a
    thread whose clock is behind that timestamp stalls the thread (models
    contention); releasing publishes the holder's current time. The
    min-clock scheduling discipline in {!Scheduler} guarantees that the
    serialisation this produces is consistent: the thread that acquires is
    always the earliest-clock runnable thread. *)

type t

val create : unit -> t

val acquire : t -> Clock.t -> unit
(** Stalls [clock] until the lock is free, then charges the uncontended
    acquisition cost (CAS + cache traffic), 20 ns. Counts a contention
    event when a stall occurred. *)

val release : t -> Clock.t -> unit

val with_lock : t -> Clock.t -> (unit -> 'a) -> 'a
(** [with_lock t clock f] brackets [f] with {!acquire}/{!release}. [f] must
    not raise: the simulation treats exceptions inside critical sections as
    fatal programming errors. *)

val contention_count : t -> int
(** Number of acquisitions that had to wait. *)

val set_telemetry : t -> Telemetry.t option -> unit
(** Attach a sink: every contended acquire then charges the stall as a
    [lock_wait] leaf ({!Telemetry.charge}) into the waiting thread's
    open frame, before the stall, without touching simulated clocks.
    [None] (the default) restores the unobserved path. *)
