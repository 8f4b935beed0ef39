(* Line geometry ([Cacheline] re-exports it) and the device's substrate:
   byte images, dirty-line bitmap, LRU windows and WPQ model. They live
   in this unit because they run on every write and every flushed line,
   and a build that passes [-opaque] inlines no call into another unit. *)

let line_shift = 6
let line_bytes = 1 lsl line_shift (* 64 B cache line *)
let xpline_shift = 8 (* 256 B XPLine *)

(* Absent granules share the empty [absent]: a slot read is a load and a
   physical compare, and materialising a granule boxes nothing. *)
module Store = struct
  (* 16 KiB granules, chosen by the sweep in EXPERIMENTS.md. *)
  let shift = 14
  let chunk_bytes = 1 lsl shift
  let () = assert (chunk_bytes mod line_bytes = 0)
  let absent = Bytes.create 0

  (* Above [Max_young_wosize] (256 words): the first table and every grown
     one go straight to the major heap, so a write that grows the table
     counts no minor words. *)
  let initial_slots = 512

  type t = { total : int; granules : int; mutable chunks : Bytes.t array }

  let create ~size =
    assert (size > 0);
    let granules = (size + chunk_bytes - 1) / chunk_bytes in
    { total = size; granules; chunks = Array.make (min granules initial_slots) absent }

  (* Granule [i]'s slot, [absent] past the table. [i] comes from [lsr], so
     it is never negative and the bounds test is the table length alone. *)
  let[@inline] slot t i = if i < Array.length t.chunks then Array.unsafe_get t.chunks i else absent

  let[@inline never] grow t i =
    assert (i < t.granules);
    let n = Array.length t.chunks in
    let chunks = Array.make (min t.granules (max (i + 1) (2 * n))) absent in
    Array.blit t.chunks 0 chunks 0 n;
    t.chunks <- chunks

  let chunk_of t i =
    if i >= Array.length t.chunks then grow t i;
    match t.chunks.(i) with
    | c when c != absent -> c
    | _ ->
        let c = Bytes.make chunk_bytes '\000' in
        t.chunks.(i) <- c;
        c

  (* Fast-path predicate: the [len]-byte access stays inside one granule. *)
  let[@inline] within addr len = addr land (chunk_bytes - 1) <= chunk_bytes - len

  let get_u8 t addr =
    assert (addr >= 0 && addr < t.total);
    match slot t (addr lsr shift) with
    | c when c == absent -> 0
    | c -> Bytes.get_uint8 c (addr land (chunk_bytes - 1))

  let set_u8 t addr v =
    assert (addr >= 0 && addr < t.total);
    Bytes.set_uint8 (chunk_of t (addr lsr shift)) (addr land (chunk_bytes - 1)) v

  let get_u16 t addr =
    if within addr 2 then
      match slot t (addr lsr shift) with
      | c when c == absent -> 0
      | c -> Bytes.get_uint16_le c (addr land (chunk_bytes - 1))
    else get_u8 t addr lor (get_u8 t (addr + 1) lsl 8)

  let set_u16 t addr v =
    if within addr 2 then Bytes.set_uint16_le (chunk_of t (addr lsr shift)) (addr land (chunk_bytes - 1)) v
    else begin
      set_u8 t addr (v land 0xFF);
      set_u8 t (addr + 1) ((v lsr 8) land 0xFF)
    end

  let get_i64 t addr =
    if within addr 8 then
      match slot t (addr lsr shift) with
      | c when c == absent -> 0L
      | c -> Bytes.get_int64_le c (addr land (chunk_bytes - 1))
    else begin
      let v = ref 0L in
      for i = 7 downto 0 do
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 t (addr + i)))
      done;
      !v
    end

  let set_i64 t addr v =
    if within addr 8 then Bytes.set_int64_le (chunk_of t (addr lsr shift)) (addr land (chunk_bytes - 1)) v
    else
      for i = 0 to 7 do
        set_u8 t (addr + i)
          (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
      done

  (* 8-byte words as OCaml ints: the int64 stays unboxed inside these
     functions, so neither call allocates. A stored word must fit 63 bits. *)
  let get_int t addr =
    if within addr 8 then
      match slot t (addr lsr shift) with
      | c when c == absent -> 0
      | c ->
          let v = Bytes.get_int64_le c (addr land (chunk_bytes - 1)) in
          let i = Int64.to_int v in
          assert (Int64.of_int i = v);
          i
    else begin
      let v = get_i64 t addr in
      let i = Int64.to_int v in
      assert (Int64.of_int i = v);
      i
    end

  let set_int t addr v =
    if within addr 8 then
      Bytes.set_int64_le (chunk_of t (addr lsr shift)) (addr land (chunk_bytes - 1)) (Int64.of_int v)
    else set_i64 t addr (Int64.of_int v)

  let get_u32 t addr =
    if within addr 4 then
      match slot t (addr lsr shift) with
      | c when c == absent -> 0
      | c -> Int32.to_int (Bytes.get_int32_le c (addr land (chunk_bytes - 1))) land 0xFFFFFFFF
    else
      get_u8 t addr
      lor (get_u8 t (addr + 1) lsl 8)
      lor (get_u8 t (addr + 2) lsl 16)
      lor (get_u8 t (addr + 3) lsl 24)

  let set_u32 t addr v =
    if within addr 4 then
      Bytes.set_int32_le (chunk_of t (addr lsr shift)) (addr land (chunk_bytes - 1)) (Int32.of_int v)
    else
      for i = 0 to 3 do
        set_u8 t (addr + i) ((v lsr (8 * i)) land 0xFF)
      done

  (* Four consecutive u32 words, one granule lookup when they share one. *)
  let set_u32x4 t addr w0 w1 w2 w3 =
    if within addr 16 then begin
      let c = chunk_of t (addr lsr shift) and off = addr land (chunk_bytes - 1) in
      Bytes.set_int32_le c off (Int32.of_int w0);
      Bytes.set_int32_le c (off + 4) (Int32.of_int w1);
      Bytes.set_int32_le c (off + 8) (Int32.of_int w2);
      Bytes.set_int32_le c (off + 12) (Int32.of_int w3)
    end
    else begin
      set_u32 t addr w0;
      set_u32 t (addr + 4) w1;
      set_u32 t (addr + 8) w2;
      set_u32 t (addr + 12) w3
    end

  (* Range operations walk granule by granule. *)
  let rec iter_ranges t addr len f =
    if len > 0 then begin
      let off = addr land (chunk_bytes - 1) in
      let n = min len (chunk_bytes - off) in
      f (addr lsr shift) off addr n;
      iter_ranges t (addr + n) (len - n) f
    end

  let read_bytes t addr len =
    let b = Bytes.make len '\000' in
    iter_ranges t addr len (fun ci off abs n ->
        match slot t ci with
        | c when c == absent -> ()
        | c -> Bytes.blit c off b (abs - addr) n);
    b

  let write_bytes t addr src =
    iter_ranges t addr (Bytes.length src) (fun ci off abs n ->
        Bytes.blit src (abs - addr) (chunk_of t ci) off n)

  let fill t addr len ch =
    iter_ranges t addr len (fun ci off _abs n ->
        (* Zero-filling a granule that was never written is a no-op for
           every segment of the range — head, whole granules and partial
           tail alike — since absent granules already read as zeros. Only
           materialise a granule when the fill byte is non-zero. *)
        match slot t ci with
        | c when c == absent && ch = '\000' -> ()
        | _ -> Bytes.fill (chunk_of t ci) off n ch)

  let allocated_chunks t =
    Array.fold_left (fun acc c -> if c == absent then acc else acc + 1) 0 t.chunks

  let copy_line ~src ~dst line =
    let addr = line lsl line_shift in
    let ci = addr lsr shift and off = addr land (chunk_bytes - 1) in
    match slot src ci with
    | s when s == absent -> (
        (* Source line is zeros. *)
        match slot dst ci with
        | d when d == absent -> ()
        | d -> Bytes.fill d off line_bytes '\000')
    | s -> Bytes.blit s off (chunk_of dst ci) off line_bytes
end

(* Iteration skips absent chunks and zero words, so [flush_all] and crash
   sweeps cost O(dirty + words touched), not O(device). *)
module Dirtymap = struct
  let chunk_shift = 14
  let lines_per_chunk = 1 lsl chunk_shift

  (* 32 dirty bits per word: power-of-two indexing, and every mask fits a
     63-bit OCaml int with room for the popcount/De Bruijn arithmetic. *)
  let bits_per_word = 32
  let words_per_chunk = lines_per_chunk / bits_per_word

  type t = { chunks : int array array; mutable dirty : int }

  let absent : int array = [||]

  let create ~size =
    assert (size > 0 && size mod line_bytes = 0);
    let lines = size lsr line_shift in
    let n = (lines + lines_per_chunk - 1) / lines_per_chunk in
    { chunks = Array.make n absent; dirty = 0 }

  let count t = t.dirty

  let words_of t ci =
    match t.chunks.(ci) with
    | w when w != absent -> w
    | _ ->
        let w = Array.make words_per_chunk 0 in
        t.chunks.(ci) <- w;
        w

  let mark t line =
    let w = words_of t (line lsr chunk_shift) in
    let wi = (line lsr 5) land (words_per_chunk - 1) in
    let bit = 1 lsl (line land 31) in
    let old = w.(wi) in
    if old land bit = 0 then begin
      w.(wi) <- old lor bit;
      t.dirty <- t.dirty + 1
    end

  let popcount32 x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F in
    ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

  let mark_range t ~first ~last =
    assert (first <= last);
    let line = ref first in
    while !line <= last do
      let w = words_of t (!line lsr chunk_shift) in
      let wi = (!line lsr 5) land (words_per_chunk - 1) in
      let lo = !line land 31 in
      (* Bits [lo .. lo+span] of this word lie inside [first, last]. *)
      let span = min (last - !line) (31 - lo) in
      let mask = ((1 lsl (span + 1)) - 1) lsl lo in
      let old = w.(wi) in
      let updated = old lor mask in
      if updated <> old then begin
        w.(wi) <- updated;
        t.dirty <- t.dirty + popcount32 (updated lxor old)
      end;
      line := !line + span + 1
    done

  let test t line =
    match t.chunks.(line lsr chunk_shift) with
    | w when w == absent -> false
    | w -> w.((line lsr 5) land (words_per_chunk - 1)) land (1 lsl (line land 31)) <> 0

  let clear t line =
    match t.chunks.(line lsr chunk_shift) with
    | w when w == absent -> ()
    | w ->
        let wi = (line lsr 5) land (words_per_chunk - 1) in
        let bit = 1 lsl (line land 31) in
        let old = w.(wi) in
        if old land bit <> 0 then begin
          w.(wi) <- old land lnot bit;
          t.dirty <- t.dirty - 1
        end

  (* Lowest-set-bit index via a De Bruijn multiply (the product is masked
     to 32 bits so the 63-bit native int does not leak high bits). *)
  let tz_table =
    let tbl = Array.make 32 0 in
    for i = 0 to 31 do
      tbl.((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) <- i
    done;
    tbl

  let iter t f =
    for ci = 0 to Array.length t.chunks - 1 do
      match t.chunks.(ci) with
      | words when words == absent -> ()
      | words ->
          let base = ci lsl chunk_shift in
          for wi = 0 to words_per_chunk - 1 do
            (* Snapshot the word: [f] may clear bits of the line it is
               visiting (flush does) without disturbing the sweep. *)
            let w = ref words.(wi) in
            if !w <> 0 then begin
              let word_base = base + (wi lsl 5) in
              while !w <> 0 do
                let bit = !w land (- !w) in
                f (word_base + tz_table.(((bit * 0x077CB531) land 0xFFFFFFFF) lsr 27));
                w := !w land lnot bit
              done
            end
          done
    done

  let reset t =
    Array.fill t.chunks 0 (Array.length t.chunks) absent;
    t.dirty <- 0
end

(* The front is a moving [head] index: a miss is O(scan) with an O(1)
   insert over the victim; only a hit at distance [d] pays an O(d)
   rotation to restore recency order. *)
module Lru_ring = struct
  type t = { cap : int; slots : int array; mutable head : int; mutable len : int }

  let create capacity =
    assert (capacity >= 0);
    { cap = capacity; slots = Array.make (max capacity 1) min_int; head = 0; len = 0 }

  (* Physical slot of logical position [i] (0 = most recent). *)
  let slot t i =
    let p = t.head + i in
    if p >= t.cap then p - t.cap else p

  (* Logical position of [v], or -1. Tail recursion over int arguments:
     this is the per-flush hot path, and unlike a [ref]-based loop it
     allocates nothing. *)
  let rec find_from t v i =
    if i >= t.len then -1
    else
      let p = t.head + i in
      let p = if p >= t.cap then p - t.cap else p in
      if Array.unsafe_get t.slots p = v then i else find_from t v (i + 1)

  (* Move-to-front of [v], known to sit at logical position [d] (-1: absent,
     insert over the least-recent slot). *)
  let promote t v d =
    if d < 0 then begin
      t.head <- (if t.head = 0 then t.cap - 1 else t.head - 1);
      Array.unsafe_set t.slots t.head v;
      if t.len < t.cap then t.len <- t.len + 1
    end
    else begin
      for i = d downto 1 do
        t.slots.(slot t i) <- t.slots.(slot t (i - 1))
      done;
      t.slots.(t.head) <- v
    end

  let touch t v =
    if t.cap = 0 then -1
    else begin
      let d = find_from t v 0 in
      promote t v d;
      d
    end

  (* One scan finds both the position of [v] and whether [v] or [v - 1] is
     in the pre-touch window, then applies [touch]'s update: the device's
     per-flush XPLine sequentiality test in a single ring traversal. *)
  let touch_seq t v =
    let w = t.cap in
    if w = 0 then false
    else begin
      let pos = ref (-1) in
      let seq = ref false in
      for i = 0 to t.len - 1 do
        let p = t.head + i in
        let p = if p >= w then p - w else p in
        let s = Array.unsafe_get t.slots p in
        if s = v then begin
          seq := true;
          if !pos < 0 then pos := i
        end
        else if s + 1 = v then seq := true
      done;
      promote t v !pos;
      !seq
    end

  let to_list t = List.init t.len (fun i -> t.slots.(slot t i))

  let reset t =
    t.head <- 0;
    t.len <- 0
end

module Xpbuffer = struct
  type t = {
    lat : Latency.t;
    mutable media_free : int; (* virtual time the media catches up with the queue *)
    mutable stalls : int;
  }

  (* Media occupancy is a flush cost divided by the parallelism; in whole
     ns every such quotient must be exact. *)
  let validate (lat : Latency.t) =
    let p = lat.media_parallelism in
    let reject fmt = Printf.ksprintf invalid_arg ("Pmem.Device.Xpbuffer.create: " ^^ fmt) in
    if p <= 0 then reject "media_parallelism must be positive (got %d)" p;
    let check name ns =
      if ns mod p <> 0 then reject "%s = %d ns does not divide by media_parallelism = %d" name ns p
    in
    check "seq_flush_ns" lat.seq_flush_ns;
    check "rand_flush_ns" lat.rand_flush_ns;
    for d = 0 to lat.reflush_window - 1 do
      check
        (Printf.sprintf "reflush cost at distance %d" d)
        (Latency.flush_cost lat ~distance:d ~sequential:false)
    done

  let create lat =
    validate lat;
    { lat; media_free = 0; stalls = 0 }

  let reset t =
    t.media_free <- 0;
    t.stalls <- 0

  let admit t ~now ~media_ns =
    let lat = t.lat in
    (* The WPQ absorbs up to [capacity] entries of backlog; beyond that the
       flush stalls until the media catches up. Each admitted line occupies
       the shared media for its classified latency divided by the media
       parallelism, which is what bounds aggregate flush bandwidth. *)
    let window = lat.Latency.wpq_capacity * lat.Latency.wpq_drain_ns in
    let stall = Int.max 0 (t.media_free - now - window) in
    t.stalls <- t.stalls + stall;
    let start = now + stall in
    t.media_free <- Int.max t.media_free start + (media_ns / lat.Latency.media_parallelism);
    start + media_ns

  let stall_time t = t.stalls

  (* Telemetry-only — never consulted on the simulation path. *)
  let backlog t ~now = Int.max 0 (t.media_free - now)
end

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
  size : int;
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
  assert (size > 0 && size mod line_bytes = 0);
  {
    lat;
    size;
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

let size t = t.size
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
  if addr < 0 || len < 0 || addr + len > t.size then
    bounds_fail op addr len t.size

(* Poisoned-line check on the read path. The common case (no poison
   anywhere) is one O(1) length load; only a device with live damage pays
   the per-line probe. Writes skip the check — the repair path rewrites a
   poisoned line in place before clearing it. *)
let[@inline never] poison_fail t op addr len line =
  Stats.bump t.stats Poison_hits;
  raise (Media_error { op; addr; len; line })

let[@inline never] check_poison_slow t op addr len =
  let first = addr lsr line_shift and last = (addr + len - 1) lsr line_shift in
  for line = first to last do
    if Hashtbl.mem t.poisoned line then poison_fail t op addr len line
  done

let[@inline] check_poison t op addr len =
  if Hashtbl.length t.poisoned > 0 && len > 0 then check_poison_slow t op addr len

(* The span's first and last line as two ints: a tuple would be an
   allocation on every write. *)
let[@inline] mark_dirty t addr len =
  let first = addr lsr line_shift and last = (addr + len - 1) lsr line_shift in
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

(* A WAL entry's store: one bounds check and one dirty mark for the four
   words, which [Store] writes with one granule lookup. *)
let write_u32x4 t addr w0 w1 w2 w3 =
  assert (w0 lor w1 lor w2 lor w3 >= 0 && w0 lor w1 lor w2 lor w3 <= 0xFFFFFFFF);
  check_bounds t "write_u32x4" addr 16;
  Store.set_u32x4 t.volatile addr w0 w1 w2 w3;
  mark_dirty t addr 16

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

(* [mark_dirty] needs a non-empty range, as in [blit]. *)
let write_bytes t addr b =
  check_bounds t "write_bytes" addr (Bytes.length b);
  Store.write_bytes t.volatile addr b;
  if Bytes.length b > 0 then mark_dirty t addr (Bytes.length b)

let fill t addr len c =
  check_bounds t "fill" addr len;
  Store.fill t.volatile addr len c;
  if len > 0 then mark_dirty t addr len

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

let words_per_line = line_bytes / 8

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
         let base = line * line_bytes in
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
  let addr = line * line_bytes in
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
  let xp = addr lsr xpline_shift in
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
    let first = addr lsr line_shift and last = (addr + len - 1) lsr line_shift in
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
    let first = addr lsr line_shift and last = (addr + len - 1) lsr line_shift in
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
    let first = addr lsr line_shift and last = (addr + len - 1) lsr line_shift in
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

let resident_bytes t =
  (Store.allocated_chunks t.volatile + Store.allocated_chunks t.persisted) * Store.chunk_bytes

let pending_flushes t clock = (stream_of t clock).npend
let persisted_int64 t addr =
  check_bounds t "persisted_int64" addr 8;
  Store.get_i64 t.persisted addr

let persisted_u8 t addr =
  check_bounds t "persisted_u8" addr 1;
  Store.get_u8 t.persisted addr

(* --- media faults ------------------------------------------------------ *)

let[@inline] check_line t op line =
  if line < 0 || (line + 1) * line_bytes > t.size then
    bounds_fail op (line * line_bytes) line_bytes t.size

(* Poisoning scrambles the line's content in BOTH images, deterministically
   from the line number: an uncorrectable error returns garbage, not stale
   data, so a repair path must genuinely restore the bytes (and a "repair"
   that merely clears the flag is observably broken). *)
let poison t ~line =
  check_line t "poison" line;
  if not (Hashtbl.mem t.poisoned line) then begin
    let rng = Sim.Rng.create (0x9015 lxor (line * 0x2545F)) in
    let base = line * line_bytes in
    for i = 0 to line_bytes - 1 do
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
  let first = addr lsr line_shift and last = (addr + len - 1) lsr line_shift in
  let hit = ref false in
  for line = first to last do
    if Hashtbl.mem t.poisoned line then hit := true
  done;
  !hit

let clear_poison_within t ~addr ~len =
  check_bounds t "clear_poison_within" addr len;
  if len > 0 then begin
    let first = addr lsr line_shift and last = (addr + len - 1) lsr line_shift in
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
  Hashtbl.replace t.rotted (addr lsr line_shift) ();
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
    let first = addr lsr line_shift and last = (addr + len - 1) lsr line_shift in
    let rewritten = ref 0 in
    for line = first to last do
      if (not (Dirtymap.test t.dirty line)) && not (Hashtbl.mem t.poisoned line) then begin
        let off = line * line_bytes in
        let differs = ref false in
        for i = 0 to line_bytes - 1 do
          if Store.get_u8 t.persisted (off + i) <> Store.get_u8 t.volatile (off + i) then
            differs := true
        done;
        if !differs then begin
          for i = 0 to line_bytes - 1 do
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
  let first = dep_addr lsr line_shift
  and last = (dep_addr + dep_len - 1) lsr line_shift in
  let bad = ref None in
  let line = ref first in
  while !bad = None && !line <= last do
    (if Dirtymap.test t.dirty !line then begin
       let lo = max dep_addr (!line * line_bytes)
       and hi = min (dep_addr + dep_len) ((!line + 1) * line_bytes) in
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
