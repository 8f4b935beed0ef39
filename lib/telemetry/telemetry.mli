(** Simulated-time telemetry: per-thread bounded event rings, log-bucketed
    latency histograms, blame-tree attribution, and exporters (Chrome
    trace-event JSON for Perfetto/chrome://tracing, histogram CSV,
    Prometheus text).

    Dependency-free by design so sim, pmem, core and the harness can all
    emit without layering cycles. Recording never charges simulated
    clocks: enabling telemetry cannot change simulated results. Disabled
    cost is one [option] check at each emission site (the sink is held as
    a [Telemetry.t option] by the emitter; this module is never consulted
    when that is [None]). Enabled cost, through the interned-id API, is
    array loads and stores per region, leaf, charge, sample and op
    completion: no allocation, and a hash probe only when the emitting
    thread changes ({!intern} hashes the name). Only the first
    appearance of a thread, name histogram, blame-tree node, per-thread
    op histogram or SLO window allocates. [test/test_telemetry.ml] ("enabled primitives
    allocate nothing") pins zero minor words per call. *)

(** Minimal JSON value type, printer and parser — enough for the trace
    and stats dumps; the repo deliberately has no JSON dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact printer. Integral numbers print without a decimal point;
      others with three decimals (simulated-ns resolution), so
      print/parse round trips are stable. *)

  val parse : string -> (t, string) result

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on other constructors. *)

  val num : t -> float option
  val str : t -> string option
  val arr : t -> t list option

  val escape : Buffer.t -> string -> unit
  (** Append [s] to [b] with JSON string escaping (no quotes added). *)

  val add_num : Buffer.t -> float -> unit
end

(** Log-bucketed latency histogram: 64 power-of-two buckets over
    nanoseconds; exact count/min/max/mean, percentiles within the
    bucket's factor-of-two resolution (exact at the observed tails). *)
module Histogram : sig
  type t

  val create : string -> t
  val name : t -> string

  val observe : t -> int -> unit
  (** Record one value: simulated ns, or a count. *)

  val bucket_of : int -> int
  (** The bucket of a value's whole part: its number of significant bits
      (bucket [b] holds [[2^(b-1), 2^b)], bucket 0 holds 0), and the last
      bucket for a negative int. Computed from the exponent of the value
      as a float, without a loop. Exposed for its test. *)

  val observe_ratio : t -> num:int -> den:int -> unit
  (** Record [num / den] (a sampled gauge such as queue depth). *)

  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  val percentile : t -> float -> float
  (** [percentile t 0.99] — upper bound of the bucket the rank lands in,
      clamped to the observed min/max. 0 when empty. *)

  val merge : name:string -> t list -> t
  (** Sum bucket counts/count/total and combine min/max. Exact: the
      buckets are fixed power-of-two ranges, so merging per-thread
      histograms is indistinguishable from observing every value into
      one histogram. *)
end

type t
(** A telemetry sink: interned names, named histograms, and one lane per
    emitting thread (keyed by simulated clock id) holding its event ring,
    frame stack and per-op latency histograms. *)

val create : ?ring_capacity:int -> unit -> t
(** Per-thread ring capacity in events (default 65536). Oldest events
    are overwritten on wrap. Raises [Invalid_argument] if
    [ring_capacity <= 0]. *)

val snapshot_tid : int
(** Pseudo thread id for events that belong to no simulated thread
    (periodic heap snapshots). Exported as the last, "heap", track. *)

val intern : t -> string -> int
(** Intern a name (event or arg-key), returning a stable id. A hit
    allocates nothing, but hashes the string: hot emitters intern once at
    attach time and use the [int] API below. A ring slot packs three ids
    into one int, so a sink holds at most 65,535 names (ids 0 to 65,534);
    interning one more raises [Invalid_argument]. *)

val name_of : t -> int -> string

(** {2 Recording}

    Each instrumented region of the stack is one {!enter} (or
    {!enter_root}) and one {!leave}; each device leaf is one {!leaf}.
    [leave] writes the region's span, observes its duration into the
    histogram of the region's own name and, with attribution on, settles
    its blame-tree node: one name per region in every view. The
    interned-id calls are the hot path — a bump and a few stores into
    preallocated arrays, no allocation. *)

val enter : t -> tid:int -> name:int -> ts:int -> unit
(** Open a region on [tid]'s frame stack, nested in the innermost open
    one. *)

val enter_root : t -> tid:int -> name:int -> ts:int -> unit
(** Open an operation's root region, first resetting [tid]'s stack (an
    op aborted by a fault may have left regions open). *)

val leave : t -> tid:int -> ts:int -> unit
(** Close the innermost region: a span from its entry to [ts], an
    observation of that duration into the histogram of its name, and,
    when its frame was opened with attribution on, its blame settle —
    wall time minus child/leaf charges becomes the node's self time
    (clamped at 0: batched flushes charge pipeline occupancy that can
    outlast the frame), and closing a root records the op completion
    into the per-thread latency histogram and the SLO window containing
    [ts]. No-op on an empty stack. *)

val leave2 : t -> tid:int -> ts:int -> k1:int -> v1:int -> k2:int -> v2:int -> unit
(** {!leave} whose span carries up to two integer args (interned key
    ids; pass [-1] to omit a slot). *)

val leaf :
  t -> tid:int -> name:int -> ts:int -> dur:int -> k1:int -> v1:int -> k2:int -> v2:int -> unit
(** A device leaf (flush, fence): a span with args, an observation into
    the histogram of [name], and a blame {!charge} of [dur]. *)

val charge : t -> tid:int -> name:int -> ns:int -> unit
(** Attribute [ns] of a leaf component under the innermost open frame
    (blame only; no-op without attribution, or under a frame opened
    before it). *)

val sample : t -> tid:int -> name:int -> ts:int -> num:int -> den:int -> unit
(** A sampled gauge: a counter event of [num / den] and an observation
    of it into the histogram of [name]. *)

val depth : t -> tid:int -> int
(** Open regions on [tid]'s stack (0 = no op in flight). *)

val span : t -> tid:int -> name:int -> ts:int -> dur:int -> unit
(** Bare span ([ph:"X"]), simulated-ns start and duration: no histogram
    and no blame. *)

val counter : t -> tid:int -> name:int -> ts:int -> value:float -> unit
(** Counter sample; the value may be fractional (a queue depth). *)

val counter_int : t -> tid:int -> name:int -> ts:int -> value:int -> unit
(** Counter sample of a whole value: unlike [counter], the caller boxes
    no float. *)

val counter_ratio : t -> tid:int -> name:int -> ts:int -> num:int -> den:int -> unit
(** Sample of [num / den]; unlike [counter], the caller boxes no float. *)

val histograms : t -> Histogram.t list
(** The histogram of every name observed at least once, sorted by name.
    Each interned name has one, allocated with its name slot. *)

(** {2 Blame-tree attribution and SLO monitoring}

    Per-operation latency attribution: each [malloc]/[free]/recovery op
    opens a root region, layers it crosses open nested regions (refill,
    morph, WAL append/group-commit, extent lookup, ...), and leaf
    components (fence, flush/reflush, pm_read, lock_wait) charge
    simulated nanoseconds into the innermost frame. The result is a
    blame tree — component self-times keyed by call path — plus
    per-(thread, op) latency histograms and fixed-width simulated-time
    SLO windows with violation counts against [Config]-declared targets.

    Attribution is opt-in per sink ({!enable_attribution}); recording is
    the sink's ({!enter}, {!leave}, {!leaf}, {!charge}), which settles
    blame when attribution is on, so the disabled cost stays one option
    check per site and charges never touch simulated clocks. *)
module Attr : sig
  type t

  (** {3 SLO monitoring} *)

  val set_slo : t -> window_ns:float -> targets:(string * float * float) list -> unit
  (** Enable windowed monitoring: op completions land in fixed-width
      simulated-time windows of [window_ns]; each [(op, target_ns,
      goal)] target counts completions slower than [target_ns] as
      violations ([goal] is the intended fraction of ops within target;
      the error budget is [1 - goal]). Raises [Invalid_argument] if
      [window_ns <= 0]. *)

  val slo_window_ns : t -> float
  (** 0 when SLO monitoring is off. *)

  val slo_targets : t -> (string * float * float) list

  val note_event : t -> ts:int -> name:string -> unit
  (** Record a degradation event (quarantine, media repair, checkpoint
      stall) for timeline annotation. Capped; excess events dropped. *)

  (** {3 Queries and exporters} *)

  val events : t -> (int * string) list
  (** Recorded degradation events, oldest first. *)

  val op_names : t -> string list
  (** Distinct completed root-op names, sorted. *)

  val op_histogram : t -> string -> Histogram.t
  (** Latency histogram of one op class, merged across threads with
      {!Histogram.merge}. Empty histogram for unknown ops. *)

  val op_thread_histograms : t -> string -> Histogram.t list
  (** The unmerged per-thread histograms, ascending tid order. *)

  val windows : t -> op:string -> (int * Histogram.t * int) list
  (** SLO windows of one op class as [(window index, latencies,
      violations)], ascending index; a window's simulated-time range is
      [[idx * window_ns, (idx+1) * window_ns)]. Empty windows are never
      materialised. *)

  val violations : t -> op:string -> int

  val nodes : t -> (string list * int * int) list
  (** Blame-tree nodes as [(path from root, self ns, count)], sorted by
      path. Self times are attributed pipeline occupancy: their sum can
      exceed the sum of op wall times under batching. *)

  val folded : t -> string
  (** Folded-stack (flamegraph collapsed) export: one
      ["a;b;c <self-ns>"] line per node with non-zero self time,
      sorted by path. *)
end

val enable_attribution : t -> Attr.t
(** Find-or-create the sink's attribution state. Safe to call before or
    after emitters attach; frames opened before it settle no blame. *)

val attribution : t -> Attr.t option

val events_recorded : t -> int
val events_dropped : t -> int

(** {2 Exporters} *)

val chrome_json : t -> string
(** Chrome trace-event JSON ({!https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU}),
    loadable in Perfetto and chrome://tracing. Timestamps are simulated
    nanoseconds. Thread ids are NORMALISED to 0..n-1 in ascending
    raw-clock-id (i.e. thread creation) order so two same-seed runs in
    the same process export byte-identical JSON. *)

val hist_csv : t -> string
(** One row per histogram, sorted by name:
    [histogram,count,min_ns,p50_ns,p90_ns,p99_ns,max_ns,mean_ns,total_ns]. *)

val prometheus : t -> string
(** Prometheus text exposition of every counter and histogram the sink
    holds (cumulative [le] buckets at the power-of-two upper bounds),
    plus — when attribution is enabled — merged per-op latency
    histograms, blame-tree self-time counters ([path] label) and SLO
    violation counts. Deterministically ordered. *)

val tail_events : t -> n:int -> string list
(** Last [n] events across all rings merged by timestamp, rendered one
    per line — the timeline dumped next to a failing fuzz repro. *)

(** {2 Global capture}

    [nvalloc-cli --telemetry] requests capture before constructing
    instances; instance constructors then attach a fresh sink to every
    device they build and register it here so the CLI can export all
    timelines after the run, even for instances it never sees (the
    experiment registry builds its own). *)

val request_capture : unit -> unit
val cancel_capture : unit -> unit

val attach_if_capturing : name:string -> attach:(t -> unit) -> t option
(** If capture was requested: create a sink, call [attach], register it
    under [name], and return it. Otherwise [None]. *)

val registered : unit -> (string * t) list
(** Registered sinks, oldest first. *)

val reset_registered : unit -> unit
