(* Observational equivalence of the fast-path substrate rewrites with
   the straightforward implementations they replaced, plus regressions
   for the Store.fill fast path and the Stats trace buffers.

   - Dirtymap (per-chunk bitmaps) vs the former [(int, unit) Hashtbl.t]
     dirty set;
   - Lru_ring (move-to-front ring) vs the former array-shift LRU,
     modelled here as a plain most-recent-first list;
   - the whole Device flush pipeline vs a byte-for-byte model device
     (same flush classifications, same dirty sets, same crash
     survivors) over randomized write/flush/crash sequences;
   - the array-backed per-thread pending set vs the former Hashtbl one,
     over the batched pipeline's whole API on three clocks;
   - the heap-based Scheduler vs the former linear min-scan on
     tie-heavy schedules. *)

let mib = 1024 * 1024

(* --- Dirtymap vs Hashtbl model ---------------------------------------- *)

(* Three chunks' worth of lines so ops cross chunk boundaries:
   16384 lines per 1 MiB chunk. *)
let dm_size = 3 * mib
let dm_lines = dm_size / 64

type dm_op = Mark of int | MarkRange of int * int | Clear of int

let dm_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun l -> Mark l) (int_bound (dm_lines - 1)));
        ( 1,
          map2
            (fun a b -> MarkRange (min a b, max a b))
            (int_bound (dm_lines - 1))
            (int_bound (dm_lines - 1)) );
        (3, map (fun l -> Clear l) (int_bound (dm_lines - 1)));
      ])

let dm_op_print = function
  | Mark l -> Printf.sprintf "Mark %d" l
  | MarkRange (a, b) -> Printf.sprintf "MarkRange (%d, %d)" a b
  | Clear l -> Printf.sprintf "Clear %d" l

let prop_dirtymap_model =
  let open QCheck in
  Test.make ~name:"dirtymap equals Hashtbl dirty-set model" ~count:200
    (list_of_size Gen.(int_range 0 400) (make ~print:dm_op_print dm_op_gen))
    (fun ops ->
      let dm = Pmem.Dirtymap.create ~size:dm_size in
      let model = Hashtbl.create 64 in
      List.iter
        (function
          | Mark l ->
              Pmem.Dirtymap.mark dm l;
              Hashtbl.replace model l ()
          | MarkRange (a, b) ->
              Pmem.Dirtymap.mark_range dm ~first:a ~last:b;
              for l = a to b do
                Hashtbl.replace model l ()
              done
          | Clear l ->
              Pmem.Dirtymap.clear dm l;
              Hashtbl.remove model l)
        ops;
      (* Same cardinality, same membership, same (sorted) iteration. *)
      let count_ok = Pmem.Dirtymap.count dm = Hashtbl.length model in
      let member_ok =
        List.for_all
          (fun op ->
            let l = match op with Mark l | Clear l -> l | MarkRange (a, _) -> a in
            Pmem.Dirtymap.test dm l = Hashtbl.mem model l)
          ops
      in
      let visited = ref [] in
      Pmem.Dirtymap.iter dm (fun l -> visited := l :: !visited);
      let visited = List.rev !visited in
      let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
      count_ok && member_ok && visited = expected)

(* --- Lru_ring vs array-shift (list) model ------------------------------ *)

(* The former LRU shifted an array on every touch; a most-recent-first
   list is the same structure. *)
let model_touch cap lru v =
  let rec index i = function
    | [] -> -1
    | x :: _ when x = v -> i
    | _ :: tl -> index (i + 1) tl
  in
  let d = index 0 !lru in
  let without = List.filter (fun x -> x <> v) !lru in
  let trimmed =
    if d = -1 && List.length without >= cap then
      List.filteri (fun i _ -> i < cap - 1) without
    else without
  in
  lru := v :: trimmed;
  if cap = 0 then begin
    lru := [];
    -1
  end
  else d

let prop_lru_ring_model =
  let open QCheck in
  (* Values from a domain of 8 against capacity 4: plenty of hits at
     every distance, plenty of evictions. *)
  Test.make ~name:"lru_ring equals array-shift LRU model" ~count:500
    (pair (int_range 0 6) (list_of_size Gen.(int_range 0 200) (int_range 0 7)))
    (fun (cap, touches) ->
      let ring = Pmem.Lru_ring.create cap in
      let lru = ref [] in
      List.for_all
        (fun v ->
          let expect = model_touch cap lru v in
          let got = Pmem.Lru_ring.touch ring v in
          got = expect && Pmem.Lru_ring.to_list ring = !lru)
        touches)

let prop_lru_touch_seq =
  let open QCheck in
  (* touch_seq = "v or v - 1 in the pre-touch window" + the same window
     update as touch. *)
  Test.make ~name:"lru_ring touch_seq fuses membership and touch" ~count:500
    (pair (int_range 0 6) (list_of_size Gen.(int_range 0 200) (int_range 0 7)))
    (fun (cap, touches) ->
      let ring = Pmem.Lru_ring.create cap in
      let lru = ref [] in
      List.for_all
        (fun v ->
          let expect_seq = List.exists (fun s -> s = v || s + 1 = v) !lru in
          let got_seq = Pmem.Lru_ring.touch_seq ring v in
          ignore (model_touch cap lru v);
          got_seq = (expect_seq && cap > 0) && Pmem.Lru_ring.to_list ring = !lru)
        touches)

(* --- Device flush pipeline vs model device ----------------------------- *)

(* A model device: plain Bytes images, a Hashtbl dirty set, and
   list-based per-thread LRU windows — the pre-rewrite implementation,
   restated. Compared observables: flush classification counters, the
   dirty-line set, and the byte images surviving a crash. *)

let dev_size = 64 * 1024
let dev_lines = dev_size / 64
let reflush_window = Pmem.Latency.default.Pmem.Latency.reflush_window

type model_dev = {
  volatile : Bytes.t;
  persisted : Bytes.t;
  dirty : (int, unit) Hashtbl.t;
  streams : (int, int list ref * int list ref) Hashtbl.t;
  mutable m_flushes : int;
  mutable m_reflushes : int;
  mutable m_seq : int;
  mutable m_rand : int;
}

let model_create () =
  {
    volatile = Bytes.make dev_size '\000';
    persisted = Bytes.make dev_size '\000';
    dirty = Hashtbl.create 64;
    streams = Hashtbl.create 4;
    m_flushes = 0;
    m_reflushes = 0;
    m_seq = 0;
    m_rand = 0;
  }

let model_stream m id =
  match Hashtbl.find_opt m.streams id with
  | Some s -> s
  | None ->
      let s = (ref [], ref []) in
      Hashtbl.replace m.streams id s;
      s

let model_flush_line m id line =
  Bytes.blit m.volatile (line * 64) m.persisted (line * 64) 64;
  Hashtbl.remove m.dirty line;
  let recent, xplines = model_stream m id in
  let distance = model_touch reflush_window recent line in
  let xp = line * 64 / 256 in
  let sequential = List.exists (fun s -> s = xp || s + 1 = xp) !xplines in
  ignore (model_touch 4 xplines xp);
  m.m_flushes <- m.m_flushes + 1;
  if distance >= 0 then m.m_reflushes <- m.m_reflushes + 1
  else if sequential then m.m_seq <- m.m_seq + 1
  else m.m_rand <- m.m_rand + 1

let model_flush m id ~addr ~len =
  if len > 0 then
    for line = addr / 64 to (addr + len - 1) / 64 do
      if Hashtbl.mem m.dirty line then model_flush_line m id line
    done

let model_crash m =
  Hashtbl.iter
    (fun line () -> Bytes.blit m.persisted (line * 64) m.volatile (line * 64) 64)
    m.dirty;
  Hashtbl.reset m.dirty;
  Hashtbl.reset m.streams

type dev_op =
  | Write of int * int * int (* thread, addr, byte *)
  | Flush of int * int * int (* thread, addr, len *)
  | FlushAll of int
  | Crash

let dev_op_gen =
  QCheck.Gen.(
    let thread = int_bound 1 in
    frequency
      [
        ( 6,
          map3
            (fun th a b -> Write (th, a, b))
            thread
            (int_bound (dev_size - 1))
            (int_bound 255) );
        ( 5,
          map3
            (fun th a l -> Flush (th, a, l))
            thread
            (int_bound (dev_size - 1))
            (int_range 1 256) );
        (1, map (fun th -> FlushAll th) thread);
        (1, return Crash);
      ])

let dev_op_print = function
  | Write (t, a, b) -> Printf.sprintf "Write (%d, %d, %d)" t a b
  | Flush (t, a, l) -> Printf.sprintf "Flush (%d, %d, %d)" t a l
  | FlushAll t -> Printf.sprintf "FlushAll %d" t
  | Crash -> "Crash"

let prop_device_model =
  let open QCheck in
  Test.make ~name:"device flush pipeline equals model device" ~count:100
    (list_of_size Gen.(int_range 0 300) (make ~print:dev_op_print dev_op_gen))
    (fun ops ->
      let dev = Pmem.Device.create ~size:dev_size () in
      let clocks = [| Sim.Clock.create (); Sim.Clock.create () |] in
      let ids = Array.map Sim.Clock.id clocks in
      let m = model_create () in
      List.iter
        (function
          | Write (th, addr, b) ->
              (* The clock is irrelevant to a write; [th] only varies
                 which flush stream later persists it. *)
              ignore th;
              let addr = min addr (dev_size - 1) in
              Pmem.Device.write_u8 dev addr b;
              Bytes.set m.volatile addr (Char.chr b);
              Hashtbl.replace m.dirty (addr / 64) ()
          | Flush (th, addr, len) ->
              let len = min len (dev_size - addr) in
              Pmem.Device.flush dev clocks.(th) Pmem.Stats.Meta ~addr ~len;
              model_flush m ids.(th) ~addr ~len
          | FlushAll th ->
              Pmem.Device.flush_all dev clocks.(th) Pmem.Stats.Meta;
              (* flush_all visits dirty lines in ascending order. *)
              let lines =
                List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) m.dirty [])
              in
              List.iter (model_flush_line m ids.(th)) lines
          | Crash ->
              Pmem.Device.crash dev;
              model_crash m)
        ops;
      let stats = Pmem.Device.stats dev in
      let counters_ok =
        Pmem.Stats.get stats Flushes = m.m_flushes
        && Pmem.Stats.get stats Reflushes = m.m_reflushes
        && Pmem.Stats.get stats Sequential_flushes = m.m_seq
        && Pmem.Stats.get stats Random_flushes = m.m_rand
      in
      let dirty_ok = Pmem.Device.dirty_lines dev = Hashtbl.length m.dirty in
      (* Crash: surviving volatile state must match the model's. *)
      Pmem.Device.crash dev;
      model_crash m;
      let bytes_ok = ref true in
      for line = 0 to dev_lines - 1 do
        (* One probe byte per line keeps the check O(lines). *)
        let a = line * 64 in
        if Pmem.Device.read_u8 dev a <> Char.code (Bytes.get m.volatile a) then
          bytes_ok := false
      done;
      counters_ok && dirty_ok && !bytes_ok)

(* --- Pending set vs the former Hashtbl pending set --------------------- *)

(* The batched persistence path restated with the pre-rewrite pending set:
   a per-thread [(line, category) Hashtbl.t] of the first deferring call,
   sorted into ascending line order at each drain. The flush cost model
   (Lru_ring windows, Latency, Xpbuffer, Stats) is the device's own, so
   equal traces, counters and clocks mean the array-backed pending set
   drained the same lines, in the same order, with the same categories,
   at the same ordering points. *)

let ps_lines = 160 (* device lines: spans up to 40 lines overlap often *)
let ps_size = ps_lines * 64
let lat = Pmem.Latency.default

type ps_stream = {
  s_recent : Pmem.Lru_ring.t;
  s_xplines : Pmem.Lru_ring.t;
  s_pending : (int, Pmem.Stats.category) Hashtbl.t;
  mutable s_calls : int;
}

type ps_model = {
  p_dirty : (int, unit) Hashtbl.t;
  p_streams : (int, ps_stream) Hashtbl.t;
  p_wpq : Pmem.Xpbuffer.t;
  p_stats : Pmem.Stats.t;
  p_clocks : Sim.Clock.t array;
}

let ps_fresh_stream pending calls =
  {
    s_recent = Pmem.Lru_ring.create lat.Pmem.Latency.reflush_window;
    s_xplines = Pmem.Lru_ring.create 4;
    s_pending = pending;
    s_calls = calls;
  }

let ps_stream m th =
  match Hashtbl.find_opt m.p_streams th with
  | Some st -> st
  | None ->
      let st = ps_fresh_stream (Hashtbl.create 16) 0 in
      Hashtbl.replace m.p_streams th st;
      st

let ps_flush_line m th cat line =
  Hashtbl.remove m.p_dirty line;
  let st = ps_stream m th in
  let distance = Pmem.Lru_ring.touch st.s_recent line in
  let sequential = Pmem.Lru_ring.touch_seq st.s_xplines (line * 64 / 256) in
  let media_ns = Pmem.Latency.flush_cost lat ~distance ~sequential in
  let finish = Pmem.Xpbuffer.admit m.p_wpq ~now:(Sim.Clock.ns m.p_clocks.(th)) ~media_ns in
  Pmem.Stats.record_flush m.p_stats cat ~addr:(line * 64) ~reflush:(distance >= 0)
    ~sequential ~ns:media_ns;
  finish

let ps_fence m th =
  Sim.Clock.charge m.p_clocks.(th) lat.Pmem.Latency.fence_ns;
  Pmem.Stats.add m.p_stats Fence_ns lat.Pmem.Latency.fence_ns

let ps_span addr len = (addr / 64, (addr + len - 1) / 64)

let ps_sync_flush m th cat ~addr ~len =
  let first, last = ps_span addr len in
  let finish = ref (Sim.Clock.ns m.p_clocks.(th)) in
  for line = first to last do
    if Hashtbl.mem m.p_dirty line then finish := Int.max !finish (ps_flush_line m th cat line)
  done;
  Sim.Clock.wait_until m.p_clocks.(th) !finish;
  ps_fence m th

let ps_flush_weak m th cat ~addr ~len =
  let st = ps_stream m th in
  st.s_calls <- st.s_calls + 1;
  let first, last = ps_span addr len in
  for line = first to last do
    if Hashtbl.mem m.p_dirty line then
      if Hashtbl.mem st.s_pending line then Pmem.Stats.bump m.p_stats Flushes_coalesced
      else Hashtbl.replace st.s_pending line cat
  done

let ps_drain m th =
  let st = ps_stream m th in
  if Hashtbl.length st.s_pending > 0 || st.s_calls > 0 then begin
    let lines = Hashtbl.fold (fun line cat acc -> (line, cat) :: acc) st.s_pending [] in
    Hashtbl.reset st.s_pending;
    Pmem.Stats.add m.p_stats Fences_saved (st.s_calls - 1);
    st.s_calls <- 0;
    let finish = ref (Sim.Clock.ns m.p_clocks.(th)) in
    List.iter
      (fun (line, cat) ->
        if Hashtbl.mem m.p_dirty line then
          finish := Int.max !finish (ps_flush_line m th cat line)
        else Pmem.Stats.bump m.p_stats Flushes_coalesced)
      (List.sort compare lines);
    Sim.Clock.wait_until m.p_clocks.(th) !finish
  end

type ps_op =
  | P_write of int * int (* addr, len *)
  | P_flush of int * int * int * int (* thread, category, addr, len *)
  | P_flush_weak of int * int * int * int
  | P_unpend of int * int * int
  | P_fence of int
  | P_commit of int * int * int * int
  | P_commit_weak of int * int * int * int
  | P_flush_all of int
  | P_crash
  | P_reset_stats

let ps_cat = Pmem.Stats.cat_of_index

(* Apply [op] to the device (driven by [dclocks]) and to the model (its
   own clocks, same thread indices). *)
let ps_apply dev dclocks m op =
  let clock th = dclocks.(th) in
  match op with
  | P_write (addr, len) ->
      Pmem.Device.fill dev addr len 'x';
      let first, last = ps_span addr len in
      for line = first to last do
        Hashtbl.replace m.p_dirty line ()
      done
  | P_flush (th, c, addr, len) ->
      (* Batching is on, so a plain flush defers exactly like flush_weak. *)
      Pmem.Device.flush dev (clock th) (ps_cat c) ~addr ~len;
      ps_flush_weak m th (ps_cat c) ~addr ~len
  | P_flush_weak (th, c, addr, len) ->
      Pmem.Device.flush_weak dev (clock th) (ps_cat c) ~addr ~len;
      ps_flush_weak m th (ps_cat c) ~addr ~len
  | P_unpend (th, addr, len) ->
      Pmem.Device.unpend dev (clock th) ~addr ~len;
      let first, last = ps_span addr len in
      let st = ps_stream m th in
      for line = first to last do
        Hashtbl.remove st.s_pending line
      done
  | P_fence th ->
      Pmem.Device.fence dev (clock th);
      ps_drain m th;
      ps_fence m th
  | P_commit (th, c, addr, len) ->
      Pmem.Device.commit_flush dev (clock th) (ps_cat c) ~addr ~len;
      let st = ps_stream m th in
      if Hashtbl.length st.s_pending > 0 then begin
        ps_drain m th;
        ps_fence m th
      end
      else if st.s_calls > 0 then begin
        Pmem.Stats.add m.p_stats Fences_saved (st.s_calls - 1);
        st.s_calls <- 0
      end;
      ps_sync_flush m th (ps_cat c) ~addr ~len
  | P_commit_weak (th, c, addr, len) ->
      Pmem.Device.commit_flush_weak dev (clock th) (ps_cat c) ~addr ~len;
      ps_flush_weak m th (ps_cat c) ~addr ~len
  | P_flush_all th ->
      Pmem.Device.flush_all dev (clock th) Pmem.Stats.Meta;
      Hashtbl.iter
        (fun _ st ->
          if Hashtbl.length st.s_pending > 0 || st.s_calls > 0 then begin
            Pmem.Stats.add m.p_stats Fences_saved (st.s_calls - 1);
            Hashtbl.reset st.s_pending;
            st.s_calls <- 0
          end)
        m.p_streams;
      let lines = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) m.p_dirty []) in
      let finish = ref (Sim.Clock.ns m.p_clocks.(th)) in
      List.iter
        (fun line -> finish := Int.max !finish (ps_flush_line m th Pmem.Stats.Meta line))
        lines;
      Sim.Clock.wait_until m.p_clocks.(th) !finish;
      ps_fence m th
  | P_crash ->
      Pmem.Device.crash dev;
      Hashtbl.reset m.p_dirty;
      Hashtbl.reset m.p_streams;
      Pmem.Xpbuffer.reset m.p_wpq
  | P_reset_stats ->
      Pmem.Device.reset_stats dev;
      Pmem.Stats.reset m.p_stats;
      (* The former reset: rebuild the streams that hold deferred flushes
         with cold LRU windows, drop the rest. *)
      let kept =
        Hashtbl.fold
          (fun th st acc ->
            if Hashtbl.length st.s_pending > 0 || st.s_calls > 0 then (th, st) :: acc else acc)
          m.p_streams []
      in
      Hashtbl.reset m.p_streams;
      List.iter
        (fun (th, st) -> Hashtbl.replace m.p_streams th (ps_fresh_stream st.s_pending st.s_calls))
        kept

let ps_op_gen =
  QCheck.Gen.(
    let th = int_bound 2 and cat = int_bound 3 in
    let span =
      int_bound (ps_lines - 1) >>= fun line ->
      int_range 1 (min 40 (ps_lines - line) * 64) >>= fun len ->
      int_bound 63 >|= fun skew ->
      let addr = (line * 64) + min skew (len - 1) in
      (addr, min len (ps_size - addr))
    in
    let spanned f = map3 (fun t c (a, l) -> f t c a l) th cat span in
    frequency
      [
        (8, map (fun (a, l) -> P_write (a, l)) span);
        (4, spanned (fun t c a l -> P_flush (t, c, a, l)));
        (4, spanned (fun t c a l -> P_flush_weak (t, c, a, l)));
        (1, map2 (fun t (a, l) -> P_unpend (t, a, l)) th span);
        (2, map (fun t -> P_fence t) th);
        (2, spanned (fun t c a l -> P_commit (t, c, a, l)));
        (2, spanned (fun t c a l -> P_commit_weak (t, c, a, l)));
        (1, map (fun t -> P_flush_all t) th);
        (1, return P_crash);
        (1, return P_reset_stats);
      ])

let ps_op_print = function
  | P_write (a, l) -> Printf.sprintf "write %d+%d" a l
  | P_flush (t, c, a, l) -> Printf.sprintf "flush t%d c%d %d+%d" t c a l
  | P_flush_weak (t, c, a, l) -> Printf.sprintf "flush_weak t%d c%d %d+%d" t c a l
  | P_unpend (t, a, l) -> Printf.sprintf "unpend t%d %d+%d" t a l
  | P_fence t -> Printf.sprintf "fence t%d" t
  | P_commit (t, c, a, l) -> Printf.sprintf "commit_flush t%d c%d %d+%d" t c a l
  | P_commit_weak (t, c, a, l) -> Printf.sprintf "commit_flush_weak t%d c%d %d+%d" t c a l
  | P_flush_all t -> Printf.sprintf "flush_all t%d" t
  | P_crash -> "crash"
  | P_reset_stats -> "reset_stats"

let prop_pending_set_model =
  let open QCheck in
  Test.make ~name:"pending set equals the Hashtbl pending-set model" ~count:200
    (list_of_size Gen.(int_range 0 250) (make ~print:ps_op_print ps_op_gen))
    (fun ops ->
      let dev = Pmem.Device.create ~size:ps_size () in
      Pmem.Device.set_batching dev true;
      let dclocks = Array.init 3 (fun _ -> Sim.Clock.create ()) in
      let m =
        {
          p_dirty = Hashtbl.create 64;
          p_streams = Hashtbl.create 4;
          p_wpq = Pmem.Xpbuffer.create lat;
          p_stats = Pmem.Stats.create ();
          p_clocks = Array.init 3 (fun _ -> Sim.Clock.create ());
        }
      in
      let ms = m.p_stats and ds = Pmem.Device.stats dev in
      (* Counters, clocks and pending sizes after every op; the flush
         trace (addresses and categories in order) once at the end. *)
      let agree () =
        Pmem.Stats.get ds Flushes = Pmem.Stats.get ms Flushes
        && Pmem.Stats.get ds Reflushes = Pmem.Stats.get ms Reflushes
        && Pmem.Stats.get ds Flushes_coalesced = Pmem.Stats.get ms Flushes_coalesced
        && Pmem.Stats.get ds Fences_saved = Pmem.Stats.get ms Fences_saved
        && Array.for_all2
             (fun d c -> Sim.Clock.ns d = Sim.Clock.ns c)
             dclocks m.p_clocks
        && Array.for_all
             (fun th ->
               let pending =
                 match Hashtbl.find_opt m.p_streams th with
                 | Some st -> Hashtbl.length st.s_pending
                 | None -> 0
               in
               Pmem.Device.pending_flushes dev dclocks.(th) = pending)
             [| 0; 1; 2 |]
      in
      List.for_all
        (fun op ->
          ps_apply dev dclocks m op;
          agree ())
        ops
      && Pmem.Stats.trace ds = Pmem.Stats.trace ms)

(* A thousand-line pending set (grown well past its initial arrays): a
   deferral of a line already pending is a lookup and a counter bump,
   with no allocation (the only words counted are [before]'s own box). *)
let test_pending_membership_allocation_free () =
  let lines = 1024 in
  let dev = Pmem.Device.create ~size:(lines * 64) () in
  Pmem.Device.set_batching dev true;
  let clock = Sim.Clock.create () in
  Pmem.Device.fill dev 0 (lines * 64) 'x';
  Pmem.Device.flush_weak dev clock Pmem.Stats.Meta ~addr:0 ~len:(lines * 64);
  let before = Gc.minor_words () in
  for line = 0 to lines - 1 do
    Pmem.Device.flush_weak dev clock Pmem.Stats.Wal ~addr:(line * 64) ~len:8
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all pending" lines (Pmem.Device.pending_flushes dev clock);
  Alcotest.(check bool) (Printf.sprintf "no allocation (%.0f words)" words) true (words < 16.0);
  Pmem.Device.fence dev clock;
  Alcotest.(check int) "drained" 0 (Pmem.Device.pending_flushes dev clock);
  Alcotest.(check int) "each line flushed once" lines
    (Pmem.Stats.get (Pmem.Device.stats dev) Flushes)

(* --- Scheduler: heap visits = linear-scan visits ----------------------- *)

(* Each thread runs a script of charges drawn from {0, 10, 20} ns — a
   tie-heavy schedule — and records each visit. The reference order is
   the former linear scan: smallest clock, lowest index on ties. *)
let prop_scheduler_order =
  let open QCheck in
  Test.make ~name:"heap scheduler visits = linear-scan order" ~count:200
    (list_of_size
       Gen.(int_range 1 8)
       (list_of_size Gen.(int_range 0 20) (int_range 0 2)))
    (fun scripts ->
      let scripts = List.map (List.map (fun c -> c * 10)) scripts in
      let n = List.length scripts in
      let arr = Array.of_list scripts in
      (* Real scheduler. *)
      let visits = ref [] in
      let threads =
        Array.init n (fun i ->
            let clock = Sim.Clock.create () in
            let remaining = ref arr.(i) in
            let step () =
              visits := i :: !visits;
              match !remaining with
              | [] -> false
              | c :: tl ->
                  Sim.Clock.charge clock c;
                  remaining := tl;
                  true
            in
            { Sim.Scheduler.clock; step })
      in
      Sim.Scheduler.run threads;
      let visits = List.rev !visits in
      (* Linear-scan reference. *)
      let clocks = Array.make n 0 in
      let remaining = Array.map (fun s -> ref s) arr in
      let live = Array.make n true in
      let expected = ref [] in
      let rec loop () =
        let best = ref (-1) in
        for i = n - 1 downto 0 do
          if live.(i) && (!best = -1 || clocks.(i) <= clocks.(!best)) then best := i
        done;
        if !best >= 0 then begin
          let i = !best in
          expected := i :: !expected;
          (match !(remaining.(i)) with
          | [] -> live.(i) <- false
          | c :: tl ->
              clocks.(i) <- clocks.(i) + c;
              remaining.(i) := tl);
          loop ()
        end
      in
      loop ();
      visits = List.rev !expected)

(* --- Store.fill fast path ---------------------------------------------- *)

let test_fill_zero_no_chunks () =
  (* Filling zeros into unwritten space is the status quo: no chunk may
     materialise. 3 MiB spans three chunks, all untouched. *)
  let s = Pmem.Store.create ~size:(8 * mib) in
  Alcotest.(check int) "fresh store" 0 (Pmem.Store.allocated_chunks s);
  Pmem.Store.fill s 0 (3 * mib) '\000';
  Alcotest.(check int) "zero fill allocates nothing" 0 (Pmem.Store.allocated_chunks s);
  (* A touched chunk still gets zeroed in place... *)
  Pmem.Store.set_u8 s 10 0xAB;
  Alcotest.(check int) "one chunk" 1 (Pmem.Store.allocated_chunks s);
  Pmem.Store.fill s 0 (3 * mib) '\000';
  Alcotest.(check int) "still one chunk" 1 (Pmem.Store.allocated_chunks s);
  Alcotest.(check int) "byte zeroed" 0 (Pmem.Store.get_u8 s 10);
  (* ...and a nonzero fill materialises exactly the chunks it covers. *)
  Pmem.Store.fill s (4 * mib) mib '\xFF';
  Alcotest.(check int) "nonzero fill allocates" 2 (Pmem.Store.allocated_chunks s);
  Alcotest.(check int) "fill visible" 0xFF (Pmem.Store.get_u8 s ((4 * mib) + 123))

(* --- Stats trace buffers ----------------------------------------------- *)

(* The trace keeps the first 1000 metadata flushes (Figure 2). *)
let test_trace_truncation () =
  let stats = Pmem.Stats.create () in
  (* Data flushes never enter the trace. *)
  Pmem.Stats.record_flush stats Pmem.Stats.Data ~addr:9999 ~reflush:false
    ~sequential:true ~ns:10;
  for i = 0 to 1004 do
    let cat = if i mod 2 = 0 then Pmem.Stats.Meta else Pmem.Stats.Wal in
    Pmem.Stats.record_flush stats cat ~addr:(i * 64) ~reflush:false ~sequential:true
      ~ns:10
  done;
  let trace = Pmem.Stats.trace stats in
  Alcotest.(check int) "truncated to limit" 1000 (List.length trace);
  List.iteri
    (fun i (cat, addr) ->
      Alcotest.(check int) (Printf.sprintf "addr %d" i) (i * 64) addr;
      Alcotest.(check bool)
        (Printf.sprintf "cat %d" i)
        true
        (cat = if i mod 2 = 0 then Pmem.Stats.Meta else Pmem.Stats.Wal))
    trace;
  Alcotest.(check int) "all flushes counted" 1006 (Pmem.Stats.get stats Flushes)

(* --- Allocation-free hot paths ------------------------------------------ *)

(* Simulated time is an int, so charging it, reading a clock and
   releasing a lock box nothing even in the dev profile (-opaque, no
   cross-module inlining). Each path runs [calls] times after a warm-up
   and must add no minor words at all. Flushes cycle over 1024 lines, so
   the warm-up has already materialised every chunk they touch. *)
let words_per_call ?(warmup = 100) ~calls f =
  for _ = 1 to warmup do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let check_no_words ?warmup ?(calls = 10_000) name f =
  let words = words_per_call ?warmup ~calls f in
  Alcotest.(check (float 0.0)) (name ^ ": minor words per call") 0.0 words

let test_hot_paths_allocation_free () =
  let dev = Pmem.Device.create ~size:mib () in
  let clock = Sim.Clock.create () in
  let i = ref 0 in
  let write_flush dev clock () =
    incr i;
    let addr = !i mod 1024 * 64 in
    Pmem.Device.write_int64 dev addr 42L;
    Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr ~len:8
  in
  check_no_words "sync Device.flush" (write_flush dev clock);
  (* The same with a telemetry sink attached (a span and a histogram
     observation per flush), then with attribution on and an open root
     frame (a blame-tree charge per flush, as under malloc). *)
  let with_sink ~attribution =
    let sink = Telemetry.create () in
    let tdev = Pmem.Device.create ~size:mib () in
    let tclock = Sim.Clock.create () in
    Pmem.Device.set_telemetry tdev (Some sink);
    if attribution then begin
      ignore (Telemetry.enable_attribution sink : Telemetry.Attr.t);
      Telemetry.enter_root sink ~tid:(Sim.Clock.id tclock) ~name:(Telemetry.intern sink "bench")
        ~ts:0
    end;
    write_flush tdev tclock
  in
  check_no_words "sync Device.flush, telemetry sink attached" (with_sink ~attribution:false);
  check_no_words "sync Device.flush, attribution on" (with_sink ~attribution:true);
  let bdev = Pmem.Device.create ~size:mib () in
  Pmem.Device.set_batching bdev true;
  check_no_words "four batched flushes and a fence" (fun () ->
      for k = 0 to 3 do
        incr i;
        let addr = !i mod 1024 * 64 in
        Pmem.Device.write_int bdev addr k;
        Pmem.Device.flush bdev clock Pmem.Stats.Wal ~addr ~len:8
      done;
      Pmem.Device.fence bdev clock);
  let lock = Sim.Lock.create () in
  let holder = Sim.Clock.create () and waiter = Sim.Clock.create () in
  let contended = ref 0 in
  check_no_words "contended Sim.Lock pair" (fun () ->
      Sim.Clock.charge holder 1000;
      Sim.Lock.acquire lock holder;
      Sim.Lock.release lock holder;
      let before = Sim.Lock.contention_count lock in
      Sim.Lock.acquire lock waiter;
      Sim.Lock.release lock waiter;
      contended := !contended + Sim.Lock.contention_count lock - before);
  Alcotest.(check bool) "every waiter acquire contended" true (!contended >= 10_000);
  let wdev = Pmem.Device.create ~size:(4 * mib) () in
  let wal = Nvalloc_core.Wal.create wdev ~base:0 ~entries:65536 ~interleave:true in
  check_no_words "Wal.append" (fun () ->
      if Nvalloc_core.Wal.near_full wal then Nvalloc_core.Wal.checkpoint wal clock;
      Nvalloc_core.Wal.append wal clock Nvalloc_core.Wal.Alloc ~addr:4096 ~dest:8192)

(* NVAlloc's small path, one thread of NVAlloc-LOG with the default
   configuration: once the tcache arrays have grown, no step of it
   allocates. A tcache-hit pair also crosses the inline WAL checkpoints
   and the refills after them; the 64-malloc/64-free loop refills once
   per iteration and returns 32 frees through [return_block] (the tcache
   holds 32); the daemon's tick checkpoints and drains. *)
let test_small_path_allocation_free () =
  let open Nvalloc_core in
  let dev = Pmem.Device.create ~size:(64 * mib) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config:Config.log_default dev clock in
  let th = Nvalloc.thread t clock in
  let arena = (Nvalloc.arenas t).(0) in
  let wal = Arena.wal arena in
  let dest i = Nvalloc.root_addr t i in
  let pair () =
    ignore (Nvalloc.malloc_to t th ~size:64 ~dest:(dest 0) : int);
    Nvalloc.free_from t th ~dest:(dest 0)
  in
  check_no_words ~warmup:10_000 "tcache-hit malloc_to/free_from pair" pair;
  let checkpoints = ref 0 in
  check_no_words ~calls:1_000 "64 mallocs then 64 frees" (fun () ->
      let used = Wal.used wal in
      for i = 0 to 63 do
        ignore (Nvalloc.malloc_to t th ~size:64 ~dest:(dest i) : int)
      done;
      for i = 0 to 63 do
        Nvalloc.free_from t th ~dest:(dest i)
      done;
      if Wal.used wal < used then incr checkpoints);
  Alcotest.(check bool) "the loop crossed inline checkpoints" true (!checkpoints >= 10);
  check_no_words ~warmup:5 ~calls:20 "async_checkpoint_tick that checkpoints and drains"
    (fun () ->
      while not (Arena.async_checkpoint_tick arena clock) do
        pair ()
      done);
  Alcotest.(check int) "the last tick checkpointed" 0 (Wal.used wal)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_dirtymap_model;
    QCheck_alcotest.to_alcotest prop_lru_ring_model;
    QCheck_alcotest.to_alcotest prop_lru_touch_seq;
    QCheck_alcotest.to_alcotest prop_device_model;
    QCheck_alcotest.to_alcotest prop_pending_set_model;
    QCheck_alcotest.to_alcotest prop_scheduler_order;
    Alcotest.test_case "store fill '\\000' materialises no chunks" `Quick
      test_fill_zero_no_chunks;
    Alcotest.test_case "stats trace truncates at limit" `Quick test_trace_truncation;
    Alcotest.test_case "pending membership allocates nothing" `Quick
      test_pending_membership_allocation_free;
    Alcotest.test_case "flush, fence, lock and WAL append allocate nothing" `Quick
      test_hot_paths_allocation_free;
    Alcotest.test_case "small malloc/free, refill, overflow and checkpoints allocate nothing"
      `Quick test_small_path_allocation_free;
  ]
