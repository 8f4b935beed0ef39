(** Crash plans: the unit of work of the fault-injection fuzzer.

    A plan fully determines one fault scenario — which variant to run,
    the seeded workload, where the first crash lands, whether the
    in-flight line tears (and how), and optionally a second crash armed
    {e inside} recovery. Everything is drawn from {!Sim.Rng}, so a plan
    replays bit-for-bit: the one-line {!to_string} rendering is a
    complete repro, accepted back by {!of_string} (and by
    [nvalloc-cli fuzz --plan]). *)

type variant = Log | Gc | Ic

type t = {
  variant : variant;
  seed : int;  (** workload RNG seed (op mix, sizes, slots) *)
  ops : int;  (** workload operations before the natural end *)
  crash_after : int;
      (** first crash: countdown in flushed lines ({!Pmem.Device.schedule_crash_after});
          if the workload finishes first, the device crashes at the end
          with the countdown still pending *)
  torn : Pmem.Device.torn_mode option;
      (** [None] = line-granular crash; [Some] tears the in-flight line *)
  torn_seed : int;  (** seed of the torn word-subset mask *)
  recovery_crash : int option;
      (** optional second crash, armed across the first [Nvalloc.recover] *)
  poison : int;
      (** guarded metadata lines to poison mid-workload (at op [ops/2],
          via {!Nvalloc_core.Nvalloc.seed_poison}); 0 = none *)
  pseed : int;  (** seed of the poison line selection *)
  rot : int;
      (** at-rest bit flips to inject at op [ops/3]
          ({!Nvalloc_core.Nvalloc.inject_bitrot}); 0 = none *)
  rseed : int;  (** seed of the bit-flip placement *)
  scrub : bool;
      (** at op [3*ops/4], poison a live slab header and immediately run
          a {!Nvalloc_core.Nvalloc.scrub} pass — the window in which a
          broken scrub ([--mutate scrub]) blesses the damage *)
}

val media_active : t -> bool
(** Whether the plan injects any media fault ([poison], [rot] or
    [scrub]); such plans run with [Config.media_replication] on. *)

val config : variant -> Nvalloc_core.Config.t
(** The small fixed configuration plans run under (2 arenas, 1 Ki root
    slots, 1 Ki WAL entries, 8-deep tcaches) — small enough that crash
    points cover all metadata phases within a few hundred ops. *)

val to_string : t -> string
(** One line, e.g. [v=log seed=42 ops=600 crash=55 torn=prefix tseed=7 rcrash=12].
    The media fields ([poison=… pseed=… rot=… rseed=… scrub=…]) are
    appended only when {!media_active}, so legacy plans render exactly
    as before. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] describes the first bad token.
    Absent media fields default to zero/off, so historical one-line
    repros still parse. *)

val sample : ?variant:variant -> ?media:bool -> Sim.Rng.t -> t
(** Draw a plan; the variant too, unless pinned by [?variant]. With
    [~media:true] (default false) the plan also draws media faults —
    poison count, bit-rot flips and/or an inject-then-scrub step, at
    least one of them active — and pins the LOG variant (guard
    replication requires the bookkeeping log). *)

val shrink_candidates : t -> t list
(** Strictly simpler plans to try when [t] fails, most aggressive first:
    drop the recovery crash, drop the torn mode, then fewer ops and an
    earlier crash. The fuzzer greedily recurses on the first candidate
    that still fails. *)
