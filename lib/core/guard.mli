(** Self-healing metadata records: content checksum on the record's own
    cache line (refreshed for free inside existing commits) plus a
    mirrored replica on a distinct line, with a primary-wins repair
    protocol. See the implementation header for the crash-interaction
    argument. *)

type record = {
  primary : int;  (** first guarded byte *)
  len : int;  (** guarded length, checksum excluded *)
  p_ck : int;  (** address of the primary's u16 checksum *)
  replica : int;  (** replica copy of the [len] guarded bytes *)
  r_ck : int;  (** replica's u16 checksum (may be shared with [p_ck]) *)
  cat : Pmem.Stats.category;
}

type status =
  | Clean  (** both copies valid and in sync *)
  | Repaired  (** one copy was rewritten from the other *)
  | Lost  (** both copies damaged — quarantine or fail *)

val refresh : Pmem.Device.t -> record -> unit
(** Recompute and store the primary checksum (volatile write only — the
    caller's commit of the primary line persists it). *)

val primary_ok : Pmem.Device.t -> record -> bool
(** No poison on the guarded bytes or checksum, and the checksum
    matches. *)

val replica_ok : Pmem.Device.t -> record -> bool

val write_replica : Pmem.Device.t -> Sim.Clock.t -> record -> unit
(** Copy the primary (checksum included) over the replica and persist it
    (deferred under batching). Call after each primary commit when
    replication is on. *)

val verify_repair : Pmem.Device.t -> Sim.Clock.t -> record -> status
(** Verify both copies and heal whatever is damaged (clearing poison on
    lines it rewrites). Counts a media repair on the device when it had
    to heal. *)

val bless : Pmem.Device.t -> Sim.Clock.t -> record -> unit
(** The seeded [--mutate scrub] bug: accept the primary's (possibly
    rotten) content as truth — recompute its checksum, clear poison
    without restoring bytes, and propagate into the replica. *)
