(** Per-arena write-ahead log.

    NVAlloc-LOG records every small-allocator metadata change in a WAL and
    flushes the entry before the change itself (section 4.1); replaying
    the WAL after a failure resolves all memory leaks. The log is a ring
    of 16 B entries validated by a per-entry epoch byte, so neither entry
    invalidation nor ring zeroing needs extra flushes.

    {b Entry/bitmap protocol} (see also {!Recovery}): a slab bitmap bit is
    set iff its block is user-live {e or} sitting in some tcache. The WAL
    disambiguates:

    - [Refill addr] — block moved slab -> tcache (bit set, not user-live);
    - [Alloc (addr, dest)] — block handed to the user, pointer at [dest];
    - [Free addr] — block moved user -> tcache (bit still set);
    - [Large_alloc]/[Large_free] — the same protocol for extents.

    When the ring fills, the arena {e checkpoints}: it flushes all its
    tcaches back to their slabs (clearing their bits) and bumps the epoch,
    invalidating every entry at the cost of one header flush. Hence after
    a crash, a set bit with no valid WAL entry is user-live (its alloc
    entry can only have been dropped by a checkpoint, which emptied the
    tcaches first), and replay of the valid window recovers the rest:
    last-entry [Refill]/[Free] means "in a tcache, really free"; last-entry
    [Alloc] is confirmed against [dest].

    With interleaved mapping (section 5.1, applied to WALs per Table 2),
    consecutive entries are placed in different cache lines of a 16-line
    frame, eliminating the append reflushes that sequential WALs suffer.

    {b Torn stores}: an entry spans two 8-byte words of one cache line and
    ADR only guarantees 8-byte store atomicity, so a crash during the
    entry's flush can persist one word next to the other word's stale
    content from a previous epoch. A 16-bit checksum in the first word
    covers every payload field; replay skips (and counts) entries that
    fail it, which restores the invariant that a valid entry implies a
    fully persisted one. *)

type t

type kind = Alloc | Free | Refill | Large_alloc | Large_free

val entry_bytes : int
(** 16. *)

val region_bytes : entries:int -> int
(** Device bytes needed for a log of [entries] entries (header line and
    trailing guard-replica line included). [entries] must be a positive
    multiple of 64. *)

val create :
  ?group:int ->
  ?replicate:bool ->
  ?mutation:Mutation.t ->
  Pmem.Device.t -> base:int -> entries:int -> interleave:bool -> t
(** Format a fresh log (volatile image; first use flushes the header).

    [group] (default 0) enables group commit: up to [group] appends share
    one commit record — an epoch-tagged watermark packed into the
    header's first 8-byte word, so one ADR-atomic persist commits the
    whole batch — and their metadata effects are deferred to the group's
    close ({!defer_commit}/{!flush_group}). Replay then only accepts
    entries below the watermark: a crash mid-group loses the open group
    wholesale, never a suffix-less prefix of its effects.

    [replicate] (default false) mirrors the guarded header bytes into
    the region's trailing guard line after every header commit, enabling
    {!verify_guard} repair. The header checksum itself is maintained
    unconditionally (it rides inside the header's own line).

    [mutation] (default [Off]) seeds a WAL bug for mutation tests; every
    other case is a no-op here.
    - [Wal_flush]: {!append} writes the entry but skips its flush,
      breaking the flush-before-effect ordering. The skipped entry's
      line also leaves the thread's pending buffer (and the open
      group's phase A), so no later fence quietly persists it.
    - [Wal_record]: {!flush_group}'s commit record forgets its contract.
      The watermark advances and the deferred effects retire while the
      group's entries leave the pending buffer unflushed, so a crash
      finds durable effects with no undo evidence behind them. *)

val entries : t -> int
val used : t -> int
val near_full : t -> bool
(** True when the next {!append} would not fit: the arena must checkpoint
    first. *)

val is_ready : t -> bool
(** False between {!adopt} and {!seal} (recovery in progress). *)

val group_commit : t -> int
(** The [group] this log was created/adopted with; 0 = synchronous. *)

val open_group : t -> int
(** Appends in the currently open group (0 when grouping is off or the
    group just closed). Test observability. *)

val append : t -> Sim.Clock.t -> kind -> addr:int -> dest:int -> unit
(** Write and flush one entry (category [Wal]). With group commit on,
    the entry's flush is deferred into the open group instead. *)

val append_off : t -> Sim.Clock.t -> kind -> addr:int -> dest:int -> int
(** Like {!append}, returning the entry's device offset (the entry spans
    [entry_bytes] from there) so callers can declare it as a
    persist-ordering dependency of the metadata commit the entry covers.
    The offset is returned even under [Mutation.Wal_flush] — it denotes
    what {e should} have persisted. *)

val defer_commit :
  t -> Sim.Clock.t -> Pmem.Stats.category -> deps:(string * Pstruct.span) list ->
  addr:int -> len:int -> unit
(** A metadata commit of [addr, addr+len) ordered after this log's latest
    entry. With group commit on (and the log ready), the commit is queued
    and retires in the open group's close — after the group's entries
    and its commit record are durable — closing the group if it just
    reached [group] appends. Otherwise exactly [Pstruct.commit]. [deps]
    are declared to the persist-ordering checker when the commit
    retires; callers pass [[]] unless {!Pmem.Device.check_mode} is on. *)

val set_telemetry : t -> Telemetry.t option -> unit
(** Attach the device's sink: each {!flush_group} that closes a group is
    then a [wal:group_commit] region, its name interned here once. [None]
    (the default) records nothing. *)

val flush_group : t -> Sim.Clock.t -> unit
(** Close the open group now (no-op when empty or grouping is off):
    persist its entries (one fence), persist the commit record (one
    fence), then retire the deferred commits (one fence). Called by
    {!checkpoint} and by the arena around operations that must not stay
    provisional (large allocs, quiesce points). *)

val checkpoint : t -> Sim.Clock.t -> unit
(** Close the open group, then bump the epoch (invalidating all entries)
    and flush the header. The caller must have emptied the arena's
    tcaches first. *)

val reopen :
  ?group:int ->
  ?replicate:bool ->
  Pmem.Device.t -> Sim.Clock.t -> base:int -> entries:int -> interleave:bool -> t
(** Recovery: adopt an existing log region and invalidate its entries by
    bumping the epoch (one header flush). Call after {!replay}.
    Equivalent to {!adopt} immediately followed by {!seal}. *)

val adopt :
  ?group:int ->
  ?replicate:bool ->
  ?mutation:Mutation.t ->
  Pmem.Device.t -> base:int -> entries:int -> interleave:bool -> t
(** Adopt an existing log region {e without} invalidating its entries:
    the persisted epoch (and hence the replay window) stays intact, so a
    crash while recovery is still running leaves the log replayable and
    recovery idempotent. {!append}/{!checkpoint} are forbidden (assert)
    until {!seal}. *)

val seal : t -> Sim.Clock.t -> unit
(** Finish an {!adopt}: bump the epoch (invalidating the replayed window,
    one header flush) and enable appends. Call once the recovery sanity
    pass no longer needs the old entries. *)

type replayed = { kind : kind; seq : int; addr : int; dest : int }

val replay : Pmem.Device.t -> base:int -> entries:int -> replayed list
(** Decode the valid window from the (post-crash) image, sorted by
    sequence number. Pure decoding: the caller charges read latency. *)

val replay_torn : Pmem.Device.t -> base:int -> entries:int -> replayed list * int
(** Like {!replay}, additionally returning how many entries of the
    current epoch were skipped because their checksum failed (torn
    stores observed half-written). *)

val guard_record : base:int -> entries:int -> Guard.record
(** The header's guard record: checksum at [base+8] (same line as the
    commit word), replica on the region's trailing line. *)

val verify_guard : Pmem.Device.t -> Sim.Clock.t -> base:int -> entries:int -> Guard.status
(** Verify/repair the header record. Recovery runs this before
    {!replay}/{!adopt}, which read header fields and would raise
    [Media_error] on a poisoned line. Only meaningful for logs created
    with [replicate]. *)

val replay_full :
  Pmem.Device.t -> base:int -> entries:int -> replayed list * replayed list * int
(** [(committed, discarded, torn)]. [committed] and [torn] are exactly
    {!replay_torn}'s results. [discarded] are structurally valid entries
    of the current epoch at or beyond the group-commit watermark: the
    open group at the crash. Their ops never committed — but their
    metadata effects (bitmap bits, root publications) may have leaked to
    the media through flushes of shared cache lines, so recovery's
    sanity pass must treat them as undo evidence rather than assume
    "no entry in the window" means "checkpointed, hence fully durable".
    Empty for synchronous logs. Sorted by sequence number. *)
