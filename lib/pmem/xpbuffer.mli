(** Model of the Optane write-pending queue (XPBuffer).

    A shared leaky bucket: occupancy drains at one entry per
    [wpq_drain_ns] (the media write bandwidth); enqueueing into a full
    bucket stalls until a slot frees. On ADR a flush waits only for WPQ
    acceptance plus its classified line cost — the media write drains
    asynchronously — so the bucket is invisible until the device is
    oversubscribed. This produces the throughput plateaus of Figures
    9/10/12 and the stripes-vs-threads interaction of Figure 16(a):
    bursts of flushes to many distinct lines (exactly what a large
    bit-stripe count produces under high thread counts) fill it. *)

type t

val create : Latency.t -> t
(** Raises [Invalid_argument] naming the offending field unless
    [media_parallelism] is positive and divides the sequential cost, the
    random cost and the cost at every reflush distance: each line's media
    occupancy is its cost divided by the parallelism, in whole ns. *)

val reset : t -> unit

val admit : t -> now:int -> media_ns:int -> int
(** [admit t ~now ~media_ns] pushes one line write issued at time [now]
    whose thread-visible cost is [media_ns]. Returns the completion time
    ([now + stall + media_ns]) where the stall is nonzero only when the
    bucket is full. The calling thread's clock advances to the returned
    time (clwb...clwb; sfence). *)

val stall_time : t -> int
(** Total stall time injected so far (for diagnostics). *)

val backlog : t -> now:int -> int
(** Media work queued at simulated time [now], in ns; over
    [wpq_drain_ns] it is the queue depth in entries (may exceed the
    nominal capacity while a stall drains). Telemetry/diagnostics only. *)
