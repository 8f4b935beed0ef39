exception Injected_crash
exception Media_error of { op : string; addr : int; len : int; line : int }

type torn_mode = Torn_prefix | Torn_suffix | Torn_random

type violation = {
  v_commit_addr : int;
  v_commit_len : int;
  v_dep_addr : int;
  v_dep_len : int;
  v_dep_note : string;
  v_dirty_line : int;
  v_dep_epochs : int; (* persists of the dirty line before the violation *)
}

(* Persist-ordering checker (check mode only). Dependencies are declared
   per thread — ordering is a property of one thread's flush stream, like
   the reflush/sequential classification above — and validated when that
   thread's next commit-classified flush retires. *)
type checker = {
  mutable commits_checked : int;
  mutable deps_tracked : int;
  mutable nviol : int;
  mutable violations : violation list; (* oldest first, capped *)
  epochs : (int, int) Hashtbl.t; (* line -> times persisted *)
  pending : (int, (int * int * string) list) Hashtbl.t;
      (* clock id -> declared (addr, len, note) deps, most recent first *)
}

let kept_violations = 32

type t = {
  lat : Latency.t;
  volatile : Store.t;
  persisted : Store.t;
  dirty : Dirtymap.t;
  stats : Stats.t;
  wpq : Xpbuffer.t;
  (* Per-thread flush-stream state, keyed by clock id: the reflush-
     distance LRU (last [reflush_window] distinct lines flushed by that
     thread, most recent first) and the last XPLines it wrote (for the
     sequential-vs-random classification). Reflushes and sequentiality
     are properties of one core's write stream; cross-thread bandwidth
     effects are modelled by the shared XPBuffer instead. The last
     resolved stream is memoised so the per-flush lookup is a single
     integer compare on the common (same thread flushes again) path. *)
  streams : (int, stream) Hashtbl.t;
  mutable cached_id : int; (* -1 (with [no_stream]) when none *)
  mutable cached_stream : stream;
  mutable crash_after : int option;
  mutable torn : (torn_mode * int) option;
  mutable check : checker option;
  (* Media-fault model: lines whose media is uncorrectably damaged.
     Reads through the normal accessors raise [Media_error]; writes are
     allowed (a repair path rewrites the line before clearing it). The
     table survives crashes — media damage is not volatile state. *)
  poisoned : (int, unit) Hashtbl.t;
  (* Lines holding at-rest rot ([corrupt_bit]): persisted differs from
     the cached copy. A crash promotes the rotten media image into the
     fresh cache for lines no writeback absorbed first — restart reads
     come from media, in eADR too. *)
  rotted : (int, unit) Hashtbl.t;
  (* FliT-style flush coalescing: with batching on, plain [flush] calls
     only enqueue their dirty lines into the calling thread's pending set;
     the next ordering point (fence / commit / quiesce) drains the set —
     deduplicated per line — under its single fence. *)
  mutable batching : bool;
  (* Telemetry sink with the interned name/arg-key ids the per-flush
     emission needs, so an enabled emission is stores into preallocated
     arrays and the disabled path is this one option check. *)
  mutable telem : temit option;
}

and stream = {
  recent : Lru_ring.t;
  xplines : Lru_ring.t;
  (* Deferred flushes, kept in flat arrays as FliT keeps per-line flush
     state: [pend.(0 .. npend-1)] holds each pending line with the
     category of its first deferring call, packed as [line lsl 2 lor
     cat], in insertion order. [keys] is an open-addressing index of the
     pending lines whose slots are live iff their [stamps] entry equals
     [gen], so a drain empties the set by bumping [gen]. Membership,
     insertion and the drain allocate nothing; the arrays double when a
     set outgrows them. [pending_calls] counts the [flush] calls absorbed
     since the last drain (each would have paid its own fence
     synchronously). *)
  mutable pend : int array;
  mutable npend : int;
  mutable keys : int array;
  mutable stamps : int array;
  mutable gen : int;
  mutable pending_calls : int;
}

and temit = {
  tsink : Telemetry.t;
  sink : Telemetry.t option; (* [Some tsink], built once for [telemetry] *)
  tn_flush : int array; (* leaf name ids, indexed by Stats.cat_index *)
  tn_reflush : int array;
  tn_fence : int;
  tn_wpq : int; (* samples *)
  tn_group : int;
  tn_pm_read : int; (* blame-only charges *)
  tn_search : int;
  tn_dram : int;
  ta_addr : int; (* arg-key ids *)
  ta_dist : int;
  mutable tflush_seq : int; (* flushes since attach, for WPQ sampling *)
}

let new_stream window =
  {
    recent = Lru_ring.create window;
    xplines = Lru_ring.create 4;
    pend = Array.make 16 0;
    npend = 0;
    keys = Array.make 32 0;
    stamps = Array.make 32 0;
    gen = 1;
    pending_calls = 0;
  }

let no_stream = new_stream 1

(* WPQ occupancy is a queue-depth curve, not a per-event latency: sample
   it once per this many flushes to keep counter tracks readable. *)
let wpq_sample_period = 64

let create ?(lat = Latency.default) ~size () =
  assert (size > 0 && size mod Cacheline.size = 0);
  {
    lat;
    volatile = Store.create ~size;
    persisted = Store.create ~size;
    dirty = Dirtymap.create ~size;
    stats = Stats.create ();
    wpq = Xpbuffer.create lat;
    streams = Hashtbl.create 64;
    cached_id = -1;
    cached_stream = no_stream;
    crash_after = None;
    torn = None;
    check = None;
    poisoned = Hashtbl.create 8;
    rotted = Hashtbl.create 8;
    batching = false;
    telem = None;
  }

let set_batching t on = t.batching <- on

let size t = Store.size t.volatile
let stats t = t.stats

let flush_span_names = [| "flush:meta"; "flush:wal"; "flush:log"; "flush:data" |]
let reflush_span_names = [| "reflush:meta"; "reflush:wal"; "reflush:log"; "reflush:data" |]

let set_telemetry t sink =
  match sink with
  | None -> t.telem <- None
  | Some s ->
      t.telem <-
        Some
          {
            tsink = s;
            sink;
            tn_flush = Array.map (Telemetry.intern s) flush_span_names;
            tn_reflush = Array.map (Telemetry.intern s) reflush_span_names;
            tn_fence = Telemetry.intern s "fence";
            tn_wpq = Telemetry.intern s "wpq_depth";
            tn_group = Telemetry.intern s "group_commit";
            tn_pm_read = Telemetry.intern s "pm_read";
            tn_search = Telemetry.intern s "search";
            tn_dram = Telemetry.intern s "dram";
            ta_addr = Telemetry.intern s "addr";
            ta_dist = Telemetry.intern s "dist";
            tflush_seq = 0;
          }

(* Upper layers (WAL, extent, guard, recovery) open their regions in
   the attached sink through this; it allocates nothing. *)
let telemetry t = match t.telem with None -> None | Some e -> e.sink

let reset_stats t =
  Stats.reset t.stats;
  (* The reflush/sequentiality bookkeeping (per-thread LRU windows) is
     part of what the stats classified: clear it too, so counting starts
     from the same cold state as a fresh device. Deferred flushes are
     simulation state, not stats — they must survive the reset, or a
     mid-protocol reset would silently drop durability. *)
  Hashtbl.iter
    (fun _ st ->
      Lru_ring.reset st.recent;
      Lru_ring.reset st.xplines)
    t.streams
let is_eadr t =
  t.lat.Latency.reflush_step_ns = 0 && t.lat.Latency.seq_flush_ns = t.lat.Latency.reflush_base_ns

(* --- data access ------------------------------------------------------ *)

(* One uniform out-of-bounds message for every accessor: callers (and
   tests) can rely on its shape regardless of which accessor tripped. *)
let[@inline never] bounds_fail op addr len size =
  invalid_arg
    (Printf.sprintf "Pmem.Device.%s: out of bounds (addr=%d, len=%d, device size=%d)" op
       addr len size)

let[@inline] check_bounds t op addr len =
  if addr < 0 || len < 0 || addr + len > Store.size t.volatile then
    bounds_fail op addr len (Store.size t.volatile)

(* Poisoned-line check on the read path. The common case (no poison
   anywhere) is one O(1) length load; only a device with live damage pays
   the per-line probe. Writes skip the check — the repair path rewrites a
   poisoned line in place before clearing it. *)
let[@inline never] poison_fail t op addr len line =
  Stats.bump t.stats Poison_hits;
  raise (Media_error { op; addr; len; line })

let[@inline never] check_poison_slow t op addr len =
  let first = Cacheline.index addr and last = Cacheline.index (addr + len - 1) in
  for line = first to last do
    if Hashtbl.mem t.poisoned line then poison_fail t op addr len line
  done

let[@inline] check_poison t op addr len =
  if Hashtbl.length t.poisoned > 0 && len > 0 then check_poison_slow t op addr len

(* Cacheline.span, open-coded: the tuple it returns would be an
   allocation on every write. *)
let[@inline] mark_dirty t addr len =
  let first = Cacheline.index addr and last = Cacheline.index (addr + len - 1) in
  if first = last then Dirtymap.mark t.dirty first
  else Dirtymap.mark_range t.dirty ~first ~last

let[@inline] read_u8 t addr =
  check_bounds t "read_u8" addr 1;
  check_poison t "read_u8" addr 1;
  Store.get_u8 t.volatile addr

let[@inline] write_u8 t addr v =
  check_bounds t "write_u8" addr 1;
  Store.set_u8 t.volatile addr v;
  mark_dirty t addr 1

let[@inline] read_u16 t addr =
  check_bounds t "read_u16" addr 2;
  check_poison t "read_u16" addr 2;
  Store.get_u16 t.volatile addr

let[@inline] write_u16 t addr v =
  check_bounds t "write_u16" addr 2;
  Store.set_u16 t.volatile addr v;
  mark_dirty t addr 2

let[@inline] read_u32 t addr =
  check_bounds t "read_u32" addr 4;
  check_poison t "read_u32" addr 4;
  Store.get_u32 t.volatile addr

let[@inline] write_u32 t addr v =
  assert (v >= 0 && v <= 0xFFFFFFFF);
  check_bounds t "write_u32" addr 4;
  Store.set_u32 t.volatile addr v;
  mark_dirty t addr 4

let[@inline] read_int64 t addr =
  check_bounds t "read_int64" addr 8;
  check_poison t "read_int64" addr 8;
  Store.get_i64 t.volatile addr

let[@inline] write_int64 t addr v =
  check_bounds t "write_int64" addr 8;
  Store.set_i64 t.volatile addr v;
  mark_dirty t addr 8

let[@inline] read_int t addr =
  check_bounds t "read_int" addr 8;
  check_poison t "read_int" addr 8;
  Store.get_int t.volatile addr

let[@inline] write_int t addr v =
  check_bounds t "write_int" addr 8;
  Store.set_int t.volatile addr v;
  mark_dirty t addr 8

let read_bytes t addr len =
  check_bounds t "read_bytes" addr len;
  check_poison t "read_bytes" addr len;
  Store.read_bytes t.volatile addr len

let write_bytes t addr b =
  check_bounds t "write_bytes" addr (Bytes.length b);
  Store.write_bytes t.volatile addr b;
  mark_dirty t addr (Bytes.length b)

let fill t addr len c =
  check_bounds t "fill" addr len;
  Store.fill t.volatile addr len c;
  mark_dirty t addr len

(* --- persistence ------------------------------------------------------ *)

(* A thread switch allocates nothing: no option in the cache or the probe. *)
let stream_of t clock =
  let id = Sim.Clock.id clock in
  if t.cached_id = id then t.cached_stream
  else begin
    let s =
      match Hashtbl.find t.streams id with
      | s -> s
      | exception Not_found ->
          let s = new_stream t.lat.Latency.reflush_window in
          Hashtbl.replace t.streams id s;
          s
    in
    t.cached_id <- id;
    t.cached_stream <- s;
    s
  end

(* --- pending set -------------------------------------------------------- *)

(* Slot of [line] in the index, or [lnot] of the free slot that ends its
   probe sequence. [keys] has at least twice [pend]'s capacity, so a free
   slot always exists. *)
let rec probe st line i =
  if Array.unsafe_get st.stamps i <> st.gen then lnot i
  else if Array.unsafe_get st.keys i = line then i
  else probe st line ((i + 1) land (Array.length st.keys - 1))

let home st line = ((line * 0x9E3779B1) lsr 7) land (Array.length st.keys - 1)

(* Re-index [pend.(0 .. npend-1)] under a fresh generation. *)
let reindex st =
  st.gen <- st.gen + 1;
  for k = 0 to st.npend - 1 do
    let line = st.pend.(k) lsr 2 in
    let i = lnot (probe st line (home st line)) in
    st.keys.(i) <- line;
    st.stamps.(i) <- st.gen
  done

(* Add [line] unless already pending; false if it was. *)
let rec pending_add st line cat =
  let i = probe st line (home st line) in
  if i >= 0 then false
  else if st.npend = Array.length st.pend then begin
    let n = st.npend in
    let pend = Array.make (2 * n) 0 in
    Array.blit st.pend 0 pend 0 n;
    st.pend <- pend;
    st.keys <- Array.make (4 * n) 0;
    st.stamps <- Array.make (4 * n) 0;
    reindex st;
    pending_add st line cat
  end
  else begin
    let i = lnot i in
    st.keys.(i) <- line;
    st.stamps.(i) <- st.gen;
    st.pend.(st.npend) <- (line lsl 2) lor Stats.cat_index cat;
    st.npend <- st.npend + 1;
    true
  end

(* In-place heapsort of [a.(0 .. n-1)]: the drain's ascending line order
   (lines are unique, so the packed category never decides). *)
let rec sift (a : int array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let sort_prefix a n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for k = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(k);
    a.(k) <- x;
    sift a 0 k
  done

let do_crash t =
  Dirtymap.iter t.dirty (fun line ->
      if is_eadr t then Store.copy_line ~src:t.volatile ~dst:t.persisted line
      else Store.copy_line ~src:t.persisted ~dst:t.volatile line);
  (* Rot promotion: a clean rotted line kept serving the intact cached
     copy, but restart re-reads from media (eADR preserves dirty-line
     writeback above, not the cache itself) — the flips become visible
     now. Dirty rotted lines were just absorbed or overwritten either
     way, so only clean ones promote. *)
  Hashtbl.iter
    (fun line () ->
      if not (Dirtymap.test t.dirty line) then
        Store.copy_line ~src:t.persisted ~dst:t.volatile line)
    t.rotted;
  Hashtbl.reset t.rotted;
  Dirtymap.reset t.dirty;
  Hashtbl.reset t.streams;
  t.cached_id <- -1;
  t.cached_stream <- no_stream;
  Xpbuffer.reset t.wpq;
  t.crash_after <- None;
  t.torn <- None;
  (* A crash voids pending ordering obligations (the volatile writes they
     covered are gone); recorded violations and counters survive. *)
  match t.check with None -> () | Some c -> Hashtbl.reset c.pending

let crash t = do_crash t

let words_per_line = Cacheline.size / 8

(* Which 8-byte words of the in-flight line persist, as a bit mask over
   the line's [words_per_line] words. Deterministic from (seed, line):
   the same plan always tears the same way, which the fuzzer's shrinker
   and the replayable repro lines rely on. *)
let torn_mask mode seed line =
  let rng = Sim.Rng.create ((seed * 1_000_003) lxor line) in
  match mode with
  | Torn_prefix -> (1 lsl Sim.Rng.int rng words_per_line) - 1
  | Torn_suffix ->
      let k = Sim.Rng.int rng words_per_line in
      ((1 lsl k) - 1) lsl (words_per_line - k)
  | Torn_random ->
      (* Uniform over strict subsets: a full persist would be the plain
         line-granular crash, not a torn store. *)
      Sim.Rng.int rng ((1 lsl words_per_line) - 1)

(* The crash point was reached while [line] was being written back. ADR
   only guarantees 8-byte store atomicity: in a torn mode, persist only a
   deterministic subset of the line's words; the rest keep their previous
   persisted content. Without a torn mode the line persists whole (it was
   already admitted to the WPQ). eADR keeps the CPU caches, so [do_crash]
   persists every dirty line anyway. *)
let crash_in_flight t line =
  (if not (is_eadr t) then
     match t.torn with
     | None -> Store.copy_line ~src:t.volatile ~dst:t.persisted line
     | Some (mode, seed) ->
         let mask = torn_mask mode seed line in
         let base = line * Cacheline.size in
         for w = 0 to words_per_line - 1 do
           if mask land (1 lsl w) <> 0 then
             Store.set_i64 t.persisted (base + (w * 8))
               (Store.get_i64 t.volatile (base + (w * 8)))
         done);
  do_crash t;
  raise Injected_crash

let flush_line t clock cat line =
  (match t.crash_after with
  | Some n when n <= 1 -> crash_in_flight t line
  | Some n -> t.crash_after <- Some (n - 1)
  | None -> ());
  let addr = line * Cacheline.size in
  Store.copy_line ~src:t.volatile ~dst:t.persisted line;
  Dirtymap.clear t.dirty line;
  (match t.check with
  | None -> ()
  | Some c ->
      Hashtbl.replace c.epochs line
        (1 + Option.value ~default:0 (Hashtbl.find_opt c.epochs line)));
  let st = stream_of t clock in
  (* Reflush distance of [line]: its position in the thread's recent-
     distinct-lines window, or -1 if absent; the touch updates the
     window either way. *)
  let distance = Lru_ring.touch st.recent line in
  (* Sequentiality: the write lands in (or right after) an XPLine the
     thread recently wrote — the WPQ write-combines per 256 B XPLine, so
     a thread interleaving a few streams (bitmap stripes, WAL frame,
     destinations) still gets combined sequential writes. *)
  let xp = Cacheline.xpline addr in
  let sequential = Lru_ring.touch_seq st.xplines xp in
  let media_ns = Latency.flush_cost t.lat ~distance ~sequential in
  let now = Sim.Clock.ns clock in
  let finish = Xpbuffer.admit t.wpq ~now ~media_ns in
  (* Any hit in the window is a reflush: the window has exactly
     [reflush_window] slots, so a resolved distance is always below it. *)
  let reflush = distance >= 0 in
  Stats.record_flush t.stats cat ~addr ~reflush ~sequential ~ns:media_ns;
  (* Telemetry never charges clocks and the disabled path is this one
     compare: enabling it cannot perturb simulated results. *)
  (match t.telem with
  | None -> ()
  | Some e ->
      let idx = Stats.cat_index cat in
      let tid = Sim.Clock.id clock in
      (* The flush's device occupancy is the leaf: a span, the
         [flush:<cat>] or [reflush:<cat>] histogram, and a blame charge
         under whatever frame the thread has open. *)
      Telemetry.leaf e.tsink ~tid
        ~name:(if reflush then e.tn_reflush.(idx) else e.tn_flush.(idx))
        ~ts:now ~dur:(finish - now) ~k1:e.ta_addr ~v1:addr
        ~k2:(if reflush then e.ta_dist else -1)
        ~v2:(if reflush then distance else 0);
      e.tflush_seq <- e.tflush_seq + 1;
      if e.tflush_seq mod wpq_sample_period = 0 then
        Telemetry.sample e.tsink ~tid ~name:e.tn_wpq ~ts:finish
          ~num:(Xpbuffer.backlog t.wpq ~now:finish) ~den:t.lat.Latency.wpq_drain_ns);
  finish

let charge_fence t clock =
  let fence_ns = t.lat.Latency.fence_ns in
  Sim.Clock.charge clock fence_ns;
  Stats.add t.stats Fence_ns fence_ns;
  match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.leaf e.tsink ~tid:(Sim.Clock.id clock) ~name:e.tn_fence
        ~ts:(Sim.Clock.ns clock - fence_ns) ~dur:fence_ns ~k1:(-1) ~v1:0 ~k2:(-1) ~v2:0

let sync_flush t clock cat ~addr ~len =
  if len > 0 then begin
    let first = Cacheline.index addr and last = Cacheline.index (addr + len - 1) in
    let finish = ref (Sim.Clock.ns clock) in
    for line = first to last do
      if Dirtymap.test t.dirty line then finish := Int.max !finish (flush_line t clock cat line)
    done;
    Sim.Clock.wait_until clock !finish;
    charge_fence t clock
  end

(* Defer: enqueue the span's dirty lines into the calling thread's
   pending set (a clwb with no sfence — free until the drain). A line
   already pending, or clean by drain time, is a coalesced flush. *)
let flush_weak t clock cat ~addr ~len =
  if len > 0 then begin
    let st = stream_of t clock in
    st.pending_calls <- st.pending_calls + 1;
    let first = Cacheline.index addr and last = Cacheline.index (addr + len - 1) in
    for line = first to last do
      if Dirtymap.test t.dirty line && not (pending_add st line cat) then
        Stats.bump t.stats Flushes_coalesced
    done
  end

(* Drain the thread's pending set in ascending line order, without
   charging a fence — the ordering point that triggered the drain charges
   its own. Every absorbed call but one would have paid a fence
   synchronously. The pending set is emptied before any line flushes so
   an injected crash mid-drain leaves consistent state (do_crash resets
   the streams anyway); nothing enqueues during the loop, so the sorted
   prefix stays intact while it is walked. *)
let drain_pending t clock st =
  if st.npend > 0 || st.pending_calls > 0 then begin
    let n = st.npend in
    sort_prefix st.pend n;
    st.npend <- 0;
    st.gen <- st.gen + 1;
    Stats.add t.stats Fences_saved (st.pending_calls - 1);
    st.pending_calls <- 0;
    let finish = ref (Sim.Clock.ns clock) in
    for k = 0 to n - 1 do
      let e = st.pend.(k) in
      let line = e lsr 2 in
      if Dirtymap.test t.dirty line then
        finish := Int.max !finish (flush_line t clock (Stats.cat_of_index (e land 3)) line)
      else Stats.bump t.stats Flushes_coalesced
    done;
    Sim.Clock.wait_until clock !finish
  end

let flush t clock cat ~addr ~len =
  if t.batching then flush_weak t clock cat ~addr ~len
  else sync_flush t clock cat ~addr ~len

let unpend t clock ~addr ~len =
  if len > 0 then begin
    let st = stream_of t clock in
    let first = Cacheline.index addr and last = Cacheline.index (addr + len - 1) in
    let k = ref 0 in
    while !k < st.npend do
      let line = st.pend.(!k) lsr 2 in
      if line >= first && line <= last then begin
        st.npend <- st.npend - 1;
        st.pend.(!k) <- st.pend.(st.npend)
      end
      else incr k
    done;
    reindex st
  end

let flush_all t clock cat =
  (* Pending sets of every thread are subsumed: each deferred line is
     either still dirty (flushed below) or already persisted. *)
  Hashtbl.iter
    (fun _ st ->
      if st.npend > 0 || st.pending_calls > 0 then begin
        Stats.add t.stats Fences_saved (st.pending_calls - 1);
        st.npend <- 0;
        st.gen <- st.gen + 1;
        st.pending_calls <- 0
      end)
    t.streams;
  (* Dirtymap.iter yields ascending line order — the same order the old
     sort-then-flush implementation used. *)
  let finish = ref (Sim.Clock.ns clock) in
  Dirtymap.iter t.dirty (fun line -> finish := Int.max !finish (flush_line t clock cat line));
  Sim.Clock.wait_until clock !finish;
  charge_fence t clock

let fence t clock =
  drain_pending t clock (stream_of t clock);
  charge_fence t clock

let note_group_commit t clock ~entries =
  Stats.bump t.stats Group_commits;
  Stats.add t.stats Group_commit_entries entries;
  match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.sample e.tsink ~tid:(Sim.Clock.id clock) ~name:e.tn_group
        ~ts:(Sim.Clock.ns clock) ~num:entries ~den:1

let charge_pm_read t clock ~lines =
  let ns = lines * t.lat.Latency.pm_read_line_ns in
  Sim.Clock.charge clock ns;
  Stats.add t.stats Read_ns ns;
  match t.telem with
  | None -> ()
  | Some e -> Telemetry.charge e.tsink ~tid:(Sim.Clock.id clock) ~name:e.tn_pm_read ~ns

let charge_work t clock work ~ns =
  Sim.Clock.charge clock ns;
  Stats.add t.stats (match work with Stats.Search -> Search_ns | Other -> Other_ns) ns;
  match t.telem with
  | None -> ()
  | Some e ->
      Telemetry.charge e.tsink ~tid:(Sim.Clock.id clock)
        ~name:(match work with Stats.Search -> e.tn_search | Other -> e.tn_dram)
        ~ns

let dram_op t clock = charge_work t clock Stats.Other ~ns:t.lat.Latency.dram_ns
let search_step t clock = charge_work t clock Stats.Search ~ns:t.lat.Latency.search_ns
let schedule_crash_after ?torn ?(torn_seed = 0) t n =
  if n < 1 then
    invalid_arg
      (Printf.sprintf "Device.schedule_crash_after: countdown must be >= 1 (got %d)" n);
  (* Re-arming replaces any pending countdown and torn spec wholesale. *)
  t.crash_after <- Some n;
  t.torn <- Option.map (fun mode -> (mode, torn_seed)) torn

let cancel_scheduled_crash t =
  (* Idempotent; also well-defined after the countdown already fired (the
     crash reset the arming, so this is a no-op). *)
  t.crash_after <- None;
  t.torn <- None

let crash_armed t = t.crash_after <> None
let dirty_lines t = Dirtymap.count t.dirty
let pending_flushes t clock = (stream_of t clock).npend
let persisted_int64 t addr = Store.get_i64 t.persisted addr
let persisted_u8 t addr = Store.get_u8 t.persisted addr

(* --- media faults ------------------------------------------------------ *)

let[@inline] check_line t op line =
  if line < 0 || (line + 1) * Cacheline.size > Store.size t.volatile then
    bounds_fail op (line * Cacheline.size) Cacheline.size (Store.size t.volatile)

(* Poisoning scrambles the line's content in BOTH images, deterministically
   from the line number: an uncorrectable error returns garbage, not stale
   data, so a repair path must genuinely restore the bytes (and a "repair"
   that merely clears the flag is observably broken). *)
let poison t ~line =
  check_line t "poison" line;
  if not (Hashtbl.mem t.poisoned line) then begin
    let rng = Sim.Rng.create (0x9015 lxor (line * 0x2545F)) in
    let base = line * Cacheline.size in
    for i = 0 to Cacheline.size - 1 do
      let b = Sim.Rng.int rng 256 in
      Store.set_u8 t.volatile (base + i) b;
      Store.set_u8 t.persisted (base + i) b
    done;
    Hashtbl.replace t.poisoned line ()
  end

let clear_poison t ~line =
  check_line t "clear_poison" line;
  Hashtbl.remove t.poisoned line

let is_poisoned t ~line =
  check_line t "is_poisoned" line;
  Hashtbl.mem t.poisoned line

let is_rotted t ~line =
  check_line t "is_rotted" line;
  Hashtbl.mem t.rotted line

let poisoned_lines t =
  List.sort compare (Hashtbl.fold (fun line () acc -> line :: acc) t.poisoned [])

let poisoned_count t = Hashtbl.length t.poisoned

let poisoned_within t ~addr ~len =
  check_bounds t "poisoned_within" addr len;
  len > 0
  && Hashtbl.length t.poisoned > 0
  &&
  let first = Cacheline.index addr and last = Cacheline.index (addr + len - 1) in
  let hit = ref false in
  for line = first to last do
    if Hashtbl.mem t.poisoned line then hit := true
  done;
  !hit

let clear_poison_within t ~addr ~len =
  check_bounds t "clear_poison_within" addr len;
  if len > 0 then begin
    let first = Cacheline.index addr and last = Cacheline.index (addr + len - 1) in
    for line = first to last do
      Hashtbl.remove t.poisoned line
    done
  end

(* At-rest rot flips the media image only: the runtime's cached copy
   (the volatile image) stays intact, so reads are unaffected and the
   next writeback of the line silently absorbs the flip. The damage
   surfaces when [do_crash] promotes the rotten media image of clean
   lines into the restarted cache — or when a scrub pass compares the
   two first ([scrub_lines]). *)
let corrupt_bit t ~addr ~bit =
  check_bounds t "corrupt_bit" addr 1;
  if bit < 0 || bit > 7 then
    invalid_arg (Printf.sprintf "Pmem.Device.corrupt_bit: bit must be 0..7 (got %d)" bit);
  Store.set_u8 t.persisted addr (Store.get_u8 t.persisted addr lxor (1 lsl bit));
  Hashtbl.replace t.rotted (Cacheline.index addr) ();
  Stats.bump t.stats Bitrot_flips

(* Media scrub over [addr, addr+len): rewrite any clean line whose
   persisted bytes have drifted from the cached (volatile) copy — the
   at-rest rot case, since clean lines otherwise satisfy persisted =
   volatile by construction. Dirty and poisoned lines are skipped: a
   dirty line's next writeback overwrites the media content anyway, and
   poison is the repair path's job, not the scrubber's. Returns the
   number of lines rewritten. *)
let scrub_lines t ~addr ~len =
  check_bounds t "scrub_lines" addr len;
  if len = 0 then 0
  else begin
    let first = Cacheline.index addr and last = Cacheline.index (addr + len - 1) in
    let rewritten = ref 0 in
    for line = first to last do
      if (not (Dirtymap.test t.dirty line)) && not (Hashtbl.mem t.poisoned line) then begin
        let off = line * Cacheline.size in
        let differs = ref false in
        for i = 0 to Cacheline.size - 1 do
          if Store.get_u8 t.persisted (off + i) <> Store.get_u8 t.volatile (off + i) then
            differs := true
        done;
        if !differs then begin
          for i = 0 to Cacheline.size - 1 do
            Store.set_u8 t.persisted (off + i) (Store.get_u8 t.volatile (off + i))
          done;
          Hashtbl.remove t.rotted line;
          incr rewritten
        end
      end
    done;
    !rewritten
  end

(* Guard-path primitives: checksum and copy that bypass the poison check.
   A repair path must be able to hash and move bytes on lines it already
   knows are damaged; normal readers keep raising [Media_error]. *)
let sum16 t ~addr ~len =
  check_bounds t "sum16" addr len;
  let h = ref 0x9E37 in
  for i = 0 to len - 1 do
    h := (!h lxor Store.get_u8 t.volatile (addr + i)) * 0x01000193 land 0x3FFFFFFF;
    h := !h lxor (!h lsr 15)
  done;
  !h land 0xFFFF

let blit t ~src ~dst ~len =
  check_bounds t "blit" src len;
  check_bounds t "blit" dst len;
  if len > 0 then begin
    for i = 0 to len - 1 do
      Store.set_u8 t.volatile (dst + i) (Store.get_u8 t.volatile (src + i))
    done;
    mark_dirty t dst len
  end

(* --- persist-ordering checker ----------------------------------------- *)

let set_check_mode t on =
  if on then
    t.check <-
      Some
        {
          commits_checked = 0;
          deps_tracked = 0;
          nviol = 0;
          violations = [];
          epochs = Hashtbl.create 256;
          pending = Hashtbl.create 8;
        }
  else t.check <- None

let check_mode t = t.check <> None

let depends_on ?(note = "") t clock ~addr ~len =
  match t.check with
  | None -> ()
  | Some c ->
      check_bounds t "depends_on" addr len;
      if len > 0 then begin
        c.deps_tracked <- c.deps_tracked + 1;
        let id = Sim.Clock.id clock in
        let prev = Option.value ~default:[] (Hashtbl.find_opt c.pending id) in
        Hashtbl.replace c.pending id ((addr, len, note) :: prev)
      end

(* A declared dependency is satisfied iff its bytes are durable when the
   commit begins to retire: every covering line is clean, or — a dirty
   line may owe its dirtiness to unrelated neighbours (a later WAL entry
   sharing the line, say) — the dep's own bytes already match the
   persisted image. *)
let dep_violation t c ~commit_addr ~commit_len (dep_addr, dep_len, note) =
  let first = Cacheline.index dep_addr
  and last = Cacheline.index (dep_addr + dep_len - 1) in
  let bad = ref None in
  let line = ref first in
  while !bad = None && !line <= last do
    (if Dirtymap.test t.dirty !line then begin
       let lo = max dep_addr (!line * Cacheline.size)
       and hi = min (dep_addr + dep_len) ((!line + 1) * Cacheline.size) in
       let differs = ref false in
       for a = lo to hi - 1 do
         if Store.get_u8 t.volatile a <> Store.get_u8 t.persisted a then differs := true
       done;
       if !differs then bad := Some !line
     end);
    incr line
  done;
  match !bad with
  | None -> ()
  | Some l ->
      c.nviol <- c.nviol + 1;
      if List.length c.violations < kept_violations then
        c.violations <-
          c.violations
          @ [
              {
                v_commit_addr = commit_addr;
                v_commit_len = commit_len;
                v_dep_addr = dep_addr;
                v_dep_len = dep_len;
                v_dep_note = note;
                v_dirty_line = l;
                v_dep_epochs = Option.value ~default:0 (Hashtbl.find_opt c.epochs l);
              };
            ]

let validate_deps t clock ~addr ~len =
  match t.check with
  | None -> ()
  | Some c -> (
      c.commits_checked <- c.commits_checked + 1;
      let id = Sim.Clock.id clock in
      match Hashtbl.find_opt c.pending id with
      | None -> ()
      | Some deps ->
          Hashtbl.remove c.pending id;
          (* Deps are validated before the commit's own lines flush: a dep
             sharing a line with the commit must have been persisted by an
             earlier flush, not smuggled out by this one (clwb A; clwb B;
             sfence orders neither before the other). *)
          List.iter (dep_violation t c ~commit_addr:addr ~commit_len:len) (List.rev deps))

let commit_flush t clock cat ~addr ~len =
  (* With batching on, the commit's dependencies may still sit in the
     thread's pending set: drain them under their own fence first, so the
     checker (and the crash model) sees them durable strictly before the
     commit's own lines retire. The two fences must not merge — the drain
     orders deps before the commit, the commit's flush orders the commit
     record before whatever follows. *)
  if t.batching then begin
    let st = stream_of t clock in
    if st.npend > 0 then begin
      drain_pending t clock st;
      charge_fence t clock
    end
    else if st.pending_calls > 0 then begin
      Stats.add t.stats Fences_saved (st.pending_calls - 1);
      st.pending_calls <- 0
    end
  end;
  validate_deps t clock ~addr ~len;
  sync_flush t clock cat ~addr ~len

let commit_flush_weak t clock cat ~addr ~len =
  validate_deps t clock ~addr ~len;
  flush_weak t clock cat ~addr ~len

let ordering_commits_checked t =
  match t.check with None -> 0 | Some c -> c.commits_checked

let ordering_deps_tracked t = match t.check with None -> 0 | Some c -> c.deps_tracked
let ordering_violation_count t = match t.check with None -> 0 | Some c -> c.nviol
let ordering_violations t = match t.check with None -> [] | Some c -> c.violations

let pp_violation ppf v =
  Format.fprintf ppf
    "commit [%d..%d) retired before dependency%s [%d..%d) persisted (line %d dirty, \
     persisted %d time%s)"
    v.v_commit_addr
    (v.v_commit_addr + v.v_commit_len)
    (if v.v_dep_note = "" then "" else " " ^ v.v_dep_note)
    v.v_dep_addr (v.v_dep_addr + v.v_dep_len) v.v_dirty_line v.v_dep_epochs
    (if v.v_dep_epochs = 1 then "" else "s")
