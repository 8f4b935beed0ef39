(** Latency model of the simulated persistent-memory platform.

    All timing constants live in this one record so that the whole model is
    auditable at a glance; they are whole simulated nanoseconds. Defaults
    are calibrated from the measurements the NVAlloc paper itself reports
    (section 3.1) and from the Optane characterisation literature it cites
    (Yang et al., FAST'20):

    - a cache-line {e reflush} (same line flushed again within a reflush
      distance < 4) costs 800 ns at distance 0, shrinking 100 ns per unit
      of distance down to 500 ns at distance 3;
    - the average reflush is ~3x a random flush and ~7x a sequential one,
      giving 300 ns random and 100 ns sequential flushes;
    - the device drains its write-pending queue (XPBuffer) at a bounded
      rate; threads only see it when the queue is full (ADR flushes wait
      for WPQ acceptance, not for the media write). *)

type t = {
  seq_flush_ns : int;     (** flush landing in the previous XPLine *)
  rand_flush_ns : int;    (** flush landing elsewhere *)
  reflush_base_ns : int;  (** reflush at distance 0 *)
  reflush_step_ns : int;  (** latency drop per unit of reflush distance *)
  reflush_window : int;   (** distances below this count as reflushes *)
  fence_ns : int;         (** sfence *)
  pm_read_line_ns : int;  (** read of one line from PM media *)
  dram_ns : int;          (** generic DRAM-side bookkeeping operation *)
  search_ns : int;        (** one step of a DRAM index search *)
  wpq_capacity : int;     (** XPBuffer entries *)
  wpq_drain_ns : int;     (** nominal per-entry residency (queue window) *)
  media_parallelism : int;
      (** concurrent media writes the DIMMs sustain: a flush occupies the
          shared media for [its latency / media_parallelism], so a stream
          of 800 ns reflushes consumes 8x the bandwidth of combined
          100 ns sequential writes — the reason reflush-heavy allocators
          stop scaling first (Figures 9/10/12). Every flush cost must
          divide by it ({!Device.Xpbuffer.create} checks). *)
}

val default : t

val eadr : t
(** eADR platform: caches are in the persistence domain, so there is no
    [clwb] and no reflush penalty; a dirty line still costs a flat 60 ns
    of PM write bandwidth when written back. Matches the paper's
    emulation (section 6.7), which removes [clwb] from all allocators. *)

val flush_cost : t -> distance:int -> sequential:bool -> int
(** Latency of one cache-line flush. [distance = d >= 0] means the line
    was flushed [d] unique lines ago (a reflush when [d < reflush_window]);
    [-1] means it has left the reflush window. *)
