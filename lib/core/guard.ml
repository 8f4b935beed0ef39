(* Self-healing metadata records.

   Each critical persistent record — a slab header, a region-table line,
   a WAL or bookkeeping-log header, the superblock — carries a 16-bit
   content checksum in spare bytes of the SAME cache line, so refreshing
   it rides the record's existing commit for free, plus (when
   [Config.media_replication] is on) a mirrored replica on a distinct
   cache line written right after each commit.

   Repair protocol: the primary copy wins whenever its checksum is valid
   — the replica is only consulted when the primary is poisoned or fails
   its checksum. The replica trails the primary by at most one un-fenced
   window (its flush is deferred into the same pending set, and every
   later ordering point drains it first), so falling back to the replica
   restores a state the crash model already allows: as-if the damaged
   commit never retired, or — when the replica was persisted ahead of a
   region-table slot — as-if it retired atomically. *)

type record = {
  primary : int;  (* first guarded byte *)
  len : int;  (* guarded length, checksum excluded *)
  p_ck : int;  (* address of the primary's u16 checksum *)
  replica : int;  (* replica copy of the [len] guarded bytes *)
  r_ck : int;  (* replica's u16 checksum (may be shared with [p_ck]) *)
  cat : Pmem.Stats.category;
}

type status = Clean | Repaired | Lost

let sum dev r addr = Pmem.Device.sum16 dev ~addr ~len:r.len

(* Volatile-only: the caller's commit of the primary line persists it. *)
let refresh dev r = Pmem.Device.write_u16 dev r.p_ck (sum dev r r.primary)

let primary_ok dev r =
  (not (Pmem.Device.poisoned_within dev ~addr:r.primary ~len:r.len))
  && (not (Pmem.Device.poisoned_within dev ~addr:r.p_ck ~len:2))
  && Pmem.Device.read_u16 dev r.p_ck = sum dev r r.primary

let replica_ok dev r =
  (not (Pmem.Device.poisoned_within dev ~addr:r.replica ~len:r.len))
  && (not (Pmem.Device.poisoned_within dev ~addr:r.r_ck ~len:2))
  && Pmem.Device.read_u16 dev r.r_ck = sum dev r r.replica

(* Copy the primary record (checksum included, unless shared) over the
   replica — volatile writes only; the caller persists. *)
let copy_to_replica dev r =
  Pmem.Device.blit dev ~src:r.primary ~dst:r.replica ~len:r.len;
  if r.r_ck <> r.p_ck then Pmem.Device.blit dev ~src:r.p_ck ~dst:r.r_ck ~len:2

(* Persist a span now-ish: deferred into the pending set under batching
   (the next ordering point drains it), synchronous otherwise. Not a
   commit-classified flush — repairs must not consume ordering
   dependencies an interrupted operation may still have declared. *)
let persist dev clock cat ~addr ~len = Pmem.Device.flush dev clock cat ~addr ~len

let persist_record dev clock r ~addr =
  persist dev clock r.cat ~addr ~len:r.len;
  let ck = if addr = r.primary then r.p_ck else r.r_ck in
  if Pmem.Cacheline.index ck <> Pmem.Cacheline.index addr then
    persist dev clock r.cat ~addr:ck ~len:2

(* Maintain the replica after a primary commit (call sites gate on
   [Config.media_replication]). *)
let write_replica dev clock r =
  copy_to_replica dev r;
  persist_record dev clock r ~addr:r.replica

(* Verify a record and heal whatever is damaged. The primary wins when
   its checksum is valid; the replica is rebuilt from it if stale, rotten
   or poisoned. An invalid primary is rewritten from a valid replica
   (clearing poison first — the line is being rewritten in place). Both
   copies damaged is [Lost]: the caller quarantines or fails. *)
let verify_repair dev clock r =
  let p = primary_ok dev r in
  if p then begin
    let in_sync =
      replica_ok dev r && Pmem.Device.read_u16 dev r.r_ck = Pmem.Device.read_u16 dev r.p_ck
    in
    if in_sync then Clean
    else begin
      Pmem.Device.clear_poison_within dev ~addr:r.replica ~len:r.len;
      Pmem.Device.clear_poison_within dev ~addr:r.r_ck ~len:2;
      write_replica dev clock r;
      Pmem.Stats.bump (Pmem.Device.stats dev) Media_repairs;
      Repaired
    end
  end
  else if replica_ok dev r then begin
    Pmem.Device.clear_poison_within dev ~addr:r.primary ~len:r.len;
    Pmem.Device.clear_poison_within dev ~addr:r.p_ck ~len:2;
    Pmem.Device.blit dev ~src:r.replica ~dst:r.primary ~len:r.len;
    if r.r_ck <> r.p_ck then Pmem.Device.blit dev ~src:r.r_ck ~dst:r.p_ck ~len:2;
    persist_record dev clock r ~addr:r.primary;
    Pmem.Stats.bump (Pmem.Device.stats dev) Media_repairs;
    Repaired
  end
  else Lost

(* The seeded scrub bug (--mutate scrub): instead of repairing from the
   replica, "bless" whatever the primary contains — recompute its
   checksum over the (possibly rotten) bytes, clear the poison without
   restoring content, and propagate the damage into the replica. The
   differential oracle must catch the downstream corruption. *)
let bless dev clock r =
  Pmem.Device.clear_poison_within dev ~addr:r.primary ~len:r.len;
  Pmem.Device.clear_poison_within dev ~addr:r.p_ck ~len:2;
  refresh dev r;
  persist_record dev clock r ~addr:r.primary;
  Pmem.Device.clear_poison_within dev ~addr:r.replica ~len:r.len;
  Pmem.Device.clear_poison_within dev ~addr:r.r_ck ~len:2;
  write_replica dev clock r
