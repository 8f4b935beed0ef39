(** The simulated persistent-memory device.

    The device keeps two images of memory:

    - the {e volatile} image — what the CPU sees through its caches; all
      reads and writes operate on it;
    - the {e persisted} image — what survives a crash.

    A write dirties the cache lines it touches. {!flush} writes dirty
    lines back to the persisted image, charging the issuing thread the
    media latency classified as sequential / random / reflush (see
    {!Latency}), throttled by the shared {!Xpbuffer}. {!crash} discards
    the volatile state of all dirty lines, which is exactly the failure
    model of ADR platforms (CPU caches are lost, the DIMM's write-pending
    queue is not — lines already admitted are persistent).

    In eADR mode ({!Latency.eadr}) flushes cost nothing and a crash
    preserves CPU caches, matching the paper's emulation in section 6.7.

    Crash injection: {!schedule_crash_after} arms a countdown of flushed
    lines after which the device crashes itself and raises
    {!Injected_crash}; the crash-consistency tests sweep this countdown
    over every flush of a scenario. A torn mode refines the crash point:
    ADR platforms only guarantee 8-byte store atomicity, so the line
    {e in flight} at the crash may persist only a subset of its 8-byte
    words ({!torn_mode}), chosen deterministically from a seed. *)

type t

exception Injected_crash

exception Media_error of { op : string; addr : int; len : int; line : int }
(** An uncorrectable media error: the read at [addr, addr+len) touched
    poisoned cache line [line]. Raised by the data accessors; see
    {!poison}. *)

type torn_mode =
  | Torn_prefix  (** the first k words (k drawn from the seed) persist *)
  | Torn_suffix  (** the last k words persist *)
  | Torn_random  (** a strict word subset drawn from the seed persists *)

val create : ?lat:Latency.t -> size:int -> unit -> t
(** [size] is the device capacity in bytes; it must be a multiple of the
    cache-line size. *)

val size : t -> int
val stats : t -> Stats.t
val is_eadr : t -> bool

(** {1 Telemetry}

    With a sink attached the device records one {!Telemetry.leaf} per
    line flush, named [flush:<cat>] / [reflush:<cat>] (args: byte
    address, reflush distance), and per fence ([fence]); a
    {!Telemetry.sample} of [wpq_depth] every 64 flushes and of
    [group_commit] per closed WAL group; and a blame-only
    {!Telemetry.charge} per PM read ([pm_read]) and DRAM/search work
    ([dram], [search]). Emission never charges simulated clocks —
    attaching telemetry cannot change simulated results. Detached
    ([None], the default), the cost is one field check per
    flush/fence. *)

val set_telemetry : t -> Telemetry.t option -> unit

val telemetry : t -> Telemetry.t option
(** The attached sink, which upper layers (WAL group commit, extent
    lookup, guard verify, recovery) open their regions in. Allocates
    nothing. *)

val reset_stats : t -> unit
(** {!Stats.reset} plus the classification state behind the counters:
    per-thread reflush windows and sequentiality rings restart cold, as
    on a fresh device. (The WPQ and dirty lines are simulation state,
    not stats, and are untouched.) *)

(** {1 Data access (volatile image)}

    Accessors do not charge simulated time: loads and stores hitting the
    CPU cache are negligible next to flush costs. Multi-byte accessors are
    little-endian.

    Every accessor bounds-checks its access against the device size and
    raises [Invalid_argument] with the uniform message
    ["Pmem.Device.<op>: out of bounds (addr=_, len=_, device size=_)"]. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit

val write_u32x4 : t -> int -> int -> int -> int -> int -> unit
(** [write_u32x4 t addr w0 w1 w2 w3] writes four little-endian u32 words
    over [addr, addr+16): the same bytes as four {!write_u32} calls, with
    one bounds check and one dirty mark (a WAL entry's store). *)

val read_int64 : t -> int -> int64
val write_int64 : t -> int -> int64 -> unit
val read_int : t -> int -> int
(** 63-bit int stored as int64; asserts the stored value fits. *)

val write_int : t -> int -> int -> unit
val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit
val fill : t -> int -> int -> char -> unit

(** {1 Persistence} *)

val set_batching : t -> bool -> unit
(** Enable per-thread flush coalescing (FliT-style, off by default): with
    batching on, {!flush} only enqueues its dirty lines into the calling
    thread's pending set — deduplicated per cache line — and the next
    ordering point ({!fence}, {!commit_flush}, {!flush_all}) drains the
    set under its single fence. A crash discards pending (undrained)
    flushes, exactly as ADR discards unflushed cache lines. *)

val flush : t -> Sim.Clock.t -> Stats.category -> addr:int -> len:int -> unit
(** Write back every dirty cache line in [addr, addr+len); clean lines are
    skipped for free, as [clwb] of a clean line is. Advances the thread's
    clock to the completion of the slowest line (clwb...clwb; sfence).
    With batching on ({!set_batching}) this defers instead: the lines
    persist at the thread's next ordering point. *)

val flush_weak : t -> Sim.Clock.t -> Stats.category -> addr:int -> len:int -> unit
(** Always-deferring {!flush} (regardless of the batching mode): enqueue
    the span's dirty lines into the calling thread's pending set. *)

val unpend : t -> Sim.Clock.t -> addr:int -> len:int -> unit
(** Remove the span's lines from the calling thread's pending set — the
    deferred analogue of "never flushed it": a later fence will not
    persist them. Fault-injection hooks ([Wal.unsafe_set_skip_flush])
    need this to keep their teeth under batching. *)

val pending_flushes : t -> Sim.Clock.t -> int
(** Lines currently deferred by this thread (test observability). *)

val fence : t -> Sim.Clock.t -> unit
(** Drain the calling thread's pending deferred flushes (if any), then
    charge a store fence. *)

val flush_all : t -> Sim.Clock.t -> Stats.category -> unit
(** Write back every dirty line (shutdown path: persist the whole
    volatile state, e.g. NVAlloc-GC's never-flushed bitmaps). *)

val charge_pm_read : t -> Sim.Clock.t -> lines:int -> unit
(** Charge a recovery-style scan of [lines] cache lines from the media. *)

val charge_work : t -> Sim.Clock.t -> Stats.work -> ns:int -> unit
(** Charge CPU-side work (index search, list manipulation) to the clock
    and to the breakdown accounting. *)

val dram_op : t -> Sim.Clock.t -> unit
(** Shorthand: one generic DRAM-side operation charged as [Other]. *)

val search_step : t -> Sim.Clock.t -> unit
(** Shorthand: one step of a DRAM index search charged as [Search]. *)

(** {1 Crashes and recovery support} *)

val crash : t -> unit
(** Lose the CPU caches: revert all dirty lines to the persisted image
    (eADR: persist them instead). Resets flush-history state. *)

val schedule_crash_after : ?torn:torn_mode -> ?torn_seed:int -> t -> int -> unit
(** Arm crash injection: the crash fires when the [n]-th next line flush
    begins, raising {!Injected_crash}. Without [torn], the in-flight line
    persists whole (it was admitted to the WPQ); with [torn], only the
    word subset drawn from [(torn_seed, line)] persists — the remaining
    words keep their previous persisted content. [n < 1] raises
    [Invalid_argument]. Arming while already armed replaces the pending
    countdown and torn spec. *)

val cancel_scheduled_crash : t -> unit
(** Disarm. Idempotent, and a no-op after the countdown already fired
    (firing disarms the device). *)

val crash_armed : t -> bool
(** Whether a scheduled crash is still pending (test observability). *)

val dirty_lines : t -> int
val resident_bytes : t -> int
(** Bytes materialised in the cache and media images together: whole
    {!Store.chunk_bytes} granules, the ones some write materialised. *)

val persisted_int64 : t -> int -> int64
(** Read the persisted image directly (test observability only). Bounds
    are checked like every data accessor's. *)

val persisted_u8 : t -> int -> int

(** {1 Media faults}

    Real PM media fails at rest, not only at power loss: uncorrectable
    errors surface as {e poisoned} cache lines whose reads fault, and
    long-lived heaps accumulate {e bit-rot}. The model here is
    deterministic (seeded), so fuzz plans carrying media faults replay
    from a one-line repro.

    Poisoning a line scrambles its content in both images — an
    uncorrectable error returns garbage, not stale data — and makes every
    normal read of the line raise {!Media_error} (and count a poison
    hit). Writes remain allowed: a repair path rewrites the line in place
    and then clears the poison. Poison survives {!crash} — media damage
    is not volatile state. *)

val poison : t -> line:int -> unit
(** Mark [line] poisoned and scramble its content (idempotent). *)

val clear_poison : t -> line:int -> unit
(** Unmark [line] (the content stays whatever it is — repair first). *)

val is_poisoned : t -> line:int -> bool
val poisoned_lines : t -> int list  (** ascending *)

val poisoned_count : t -> int

val poisoned_within : t -> addr:int -> len:int -> bool
(** Whether any line covering [addr, addr+len) is poisoned. *)

val clear_poison_within : t -> addr:int -> len:int -> unit

val corrupt_bit : t -> addr:int -> bit:int -> unit
(** Flip bit [bit] (0..7) of the {e persisted} byte at [addr] — at-rest
    rot in the media image. The cached (volatile) copy stays intact, so
    runtime reads are unaffected and the line's next writeback silently
    absorbs the flip; otherwise the damage surfaces when a crash
    promotes the persisted image (or a {!scrub_lines} pass catches it
    first). *)

val is_rotted : t -> line:int -> bool
(** Whether [line] holds at-rest rot from {!corrupt_bit} that no
    writeback, scrub or crash has resolved yet. *)

val scrub_lines : t -> addr:int -> len:int -> int
(** Rewrite every clean line in [addr, addr+len) whose persisted bytes
    have drifted from the cached copy (clean lines otherwise satisfy
    persisted = volatile, so a difference is exactly at-rest rot).
    Dirty and poisoned lines are skipped. Returns lines rewritten. *)

val sum16 : t -> addr:int -> len:int -> int
(** 16-bit content checksum over the volatile image, bypassing the poison
    check (guard machinery must be able to hash damaged lines). Reading
    [len] zero bytes yields a fixed nonzero value. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Volatile-image copy that bypasses the poison check and dirties the
    destination — the repair path's "rewrite primary from replica". *)

(** {1 Persist-ordering checker}

    In check mode the device validates declared persist-ordering
    dependencies dynamically, FliT-style: a thread declares with
    {!depends_on} the byte spans that must be durable before its next
    commit point, and {!commit_flush} — a commit-classified flush —
    validates them as it retires. A dependency is satisfied iff, when the
    commit begins, every line it covers is clean or the dependency's own
    bytes already match the persisted image (so unrelated writes sharing
    a line cannot false-positive). Violations are recorded, not raised:
    the protocol under test keeps running and {!Fault.Oracle} turns the
    record into a failure.

    The checker is per-thread (keyed by {!Sim.Clock.id}) and intended for
    the deterministic single-threaded harnesses (unit tests, the crash
    fuzzer); it is off by default and costs nothing when off. A crash
    voids pending dependencies but keeps recorded violations. *)

type violation = {
  v_commit_addr : int;
  v_commit_len : int;
  v_dep_addr : int;
  v_dep_len : int;
  v_dep_note : string;  (** caller-supplied label, e.g. ["wal:Refill"] *)
  v_dirty_line : int;  (** the dependency line still dirty at the commit *)
  v_dep_epochs : int;  (** times that line had persisted before the violation *)
}

val set_check_mode : t -> bool -> unit
(** [set_check_mode t true] starts a fresh checker (counters zeroed);
    [set_check_mode t false] discards it. *)

val check_mode : t -> bool

val depends_on : ?note:string -> t -> Sim.Clock.t -> addr:int -> len:int -> unit
(** Declare that [addr, addr+len) must be durable before this thread's
    next {!commit_flush} retires. No-op when check mode is off;
    zero-length dependencies are ignored. *)

val commit_flush : t -> Sim.Clock.t -> Stats.category -> addr:int -> len:int -> unit
(** A commit point: in check mode it first validates (and consumes) the
    thread's declared dependencies, then flushes synchronously. With
    batching on, the thread's pending deferred flushes drain (under their
    own fence) {e before} validation — dependencies deferred by earlier
    {!flush} calls are durable strictly before the commit retires. *)

val commit_flush_weak : t -> Sim.Clock.t -> Stats.category -> addr:int -> len:int -> unit
(** Validate (and consume) dependencies like {!commit_flush}, but defer
    the flush itself into the pending set. For callers that batch several
    commits behind one ordering point (WAL group commit) and have already
    made the dependencies durable. *)

val note_group_commit : t -> Sim.Clock.t -> entries:int -> unit
(** Record one closed WAL group of [entries] appends (stats counter plus
    a [group_commit] telemetry sample when a sink is attached). *)

val ordering_commits_checked : t -> int
val ordering_deps_tracked : t -> int
val ordering_violation_count : t -> int

val ordering_violations : t -> violation list
(** Oldest first; capped at the first 32 (the count keeps counting). *)

val pp_violation : Format.formatter -> violation -> unit

(** {1 Line geometry and substrate}

    The line geometry is written once here and re-exported by
    {!Cacheline}. The submodules below are the device's own building
    blocks, exported only for their tests: they share this compilation
    unit because they run on every write and every flushed line, and a
    build that passes [-opaque] (dune's dev profile) inlines nothing
    across units. *)

val line_shift : int
(** A CPU cache line is [1 lsl line_shift] = 64 B. *)

val xpline_shift : int
(** An Optane XPLine is [1 lsl xpline_shift] = 256 B. *)

(** Lazily materialised byte store: a device image in 16 KiB granules
    ({!chunk_bytes}), each zero-filled on its first write and read as
    zeros until then. The slot table covers only the prefix that writes
    have reached: 512 slots (8 MiB) to start, fewer on a smaller device,
    doubled when a write lands past its end. A line-granular operation
    never straddles granules; word accessors handle straddling ranges
    on a slow path. *)
module Store : sig
  type t

  val chunk_bytes : int
  val create : size:int -> t
  val get_u8 : t -> int -> int
  val set_u8 : t -> int -> int -> unit
  val get_u16 : t -> int -> int
  val set_u16 : t -> int -> int -> unit
  val get_u32 : t -> int -> int
  val set_u32 : t -> int -> int -> unit
  val get_i64 : t -> int -> int64
  val set_i64 : t -> int -> int64 -> unit

  val get_int : t -> int -> int
  (** An 8-byte word as an int, without allocating; asserts it fits 63 bits. *)

  val set_int : t -> int -> int -> unit
  (** Store an int as an 8-byte word (sign-extended), without allocating. *)

  val read_bytes : t -> int -> int -> bytes
  val write_bytes : t -> int -> bytes -> unit
  val fill : t -> int -> int -> char -> unit

  val copy_line : src:t -> dst:t -> int -> unit
  (** [copy_line ~src ~dst line] copies one 64 B cache line. *)

  val allocated_chunks : t -> int
  (** Number of granules materialised so far (observability: [fill] with
      ['\000'] must never allocate one — see the regression test). *)
end

(** Dirty-line bitmap.

    One bit per 64 B cache line, in bitmaps of 512 ints (too large for
    the minor heap) that each cover 1 MiB of device, whatever {!Store}'s
    granule; absent bitmaps share one empty sentinel. mark/test/clear are
    O(1) bit operations, the dirty count is maintained incrementally, and
    whole-device sweeps ({!iter}) skip clean regions word-at-a-time. *)
module Dirtymap : sig
  type t

  val create : size:int -> t
  (** [size] is the device capacity in bytes (multiple of the cache-line
      size); lines are indexed [0 .. size/64 - 1]. *)

  val mark : t -> int -> unit
  (** Set one line dirty. *)

  val mark_range : t -> first:int -> last:int -> unit
  (** Set lines [first..last] (inclusive) dirty, word-at-a-time. *)

  val test : t -> int -> bool
  val clear : t -> int -> unit

  val count : t -> int
  (** Number of dirty lines; O(1). *)

  val iter : t -> (int -> unit) -> unit
  (** Visit every dirty line in ascending order. The callback may {!clear}
      the line it is given (each bitmap word is snapshotted before its
      bits are dispatched); it must not mark new lines. *)

  val reset : t -> unit
  (** Drop all dirty bits (crash path). *)
end

(** Fixed-capacity move-to-front LRU of ints over a ring buffer.

    The per-thread reflush-distance window and the recent-XPLine window.
    Observationally equivalent to an array-shift LRU (same distances,
    same eviction order) but a miss — the common case — inserts in O(1)
    by moving the head instead of shifting the whole window.
    Allocation-free after {!create}. *)
module Lru_ring : sig
  type t

  val create : int -> t
  (** [create capacity]. A capacity of 0 yields a ring on which {!touch}
      always misses and records nothing. *)

  val touch : t -> int -> int
  (** [touch t v] returns the LRU distance of [v] before the touch
      ([0] = most recently touched, [-1] = not in the window) and moves
      [v] to the front, evicting the least-recent entry if the ring is
      full. *)

  val touch_seq : t -> int -> bool
  (** Does the pre-touch window contain [v] or [v - 1]? Applies {!touch}'s
      update in the same scan: the per-flush XPLine sequentiality check. *)

  val to_list : t -> int list
  (** Window contents, most recent first (tests/debugging). *)

  val reset : t -> unit
end

(** Model of the Optane write-pending queue (XPBuffer): a shared leaky
    bucket that drains one entry per [wpq_drain_ns] (the media write
    bandwidth); enqueueing into a full bucket stalls until a slot frees.
    An ADR flush waits only for WPQ acceptance plus its classified line
    cost, so the bucket shows only when the device is oversubscribed:
    the throughput plateaus of Figures 9/10/12 and the stripes-vs-threads
    interaction of Figure 16(a). *)
module Xpbuffer : sig
  type t

  val create : Latency.t -> t
  (** Raises [Invalid_argument] naming the offending field unless
      [media_parallelism] is positive and divides the sequential cost,
      the random cost and the cost at every reflush distance: each line's
      media occupancy is its cost divided by the parallelism, in whole
      ns. The device builds one in [create], which raises the same. *)

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
end
