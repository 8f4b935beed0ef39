(** Simulated mutex.

    A lock is a timestamp: the moment it next becomes free. Acquisition by a
    thread whose clock is behind that timestamp stalls the thread (models
    contention); releasing publishes the holder's current time. The
    min-clock scheduling discipline in {!Scheduler} guarantees that the
    serialisation this produces is consistent: the thread that acquires is
    always the earliest-clock runnable thread. *)

type t

val create : ?acquire_ns:int -> unit -> t
(** [acquire_ns] is the uncontended acquisition cost (CAS + cache traffic),
    default 20 ns. *)

val acquire : t -> Clock.t -> unit
(** Stalls [clock] until the lock is free, then charges the acquisition
    cost. Counts a contention event when a stall occurred. *)

val release : t -> Clock.t -> unit

val with_lock : t -> Clock.t -> (unit -> 'a) -> 'a
(** [with_lock t clock f] brackets [f] with {!acquire}/{!release}. [f] must
    not raise: the simulation treats exceptions inside critical sections as
    fatal programming errors. *)

val contention_count : t -> int
(** Number of acquisitions that had to wait. *)

val set_wait_hook : t -> (Clock.t -> int -> unit) option -> unit
(** Observation hook called with the stall duration on every contended
    acquire, before the stall. Used by latency attribution to charge
    lock-wait components; the hook must not touch simulated clocks (the
    stall is charged identically either way). [None] (the default)
    restores the unobserved path. *)
