(* The persistent-memory device: persistence semantics, crash behaviour,
   flush classification (reflush / sequential / random), and the
   latency model's shape. *)

let mk ?(size = 1 lsl 20) () =
  let dev = Pmem.Device.create ~size () in
  (dev, Sim.Clock.create ())

let test_write_read () =
  let dev, _ = mk () in
  Pmem.Device.write_int64 dev 128 0x1122334455667788L;
  Alcotest.(check int64) "int64 roundtrip" 0x1122334455667788L (Pmem.Device.read_int64 dev 128);
  Pmem.Device.write_u16 dev 200 0xBEEF;
  Alcotest.(check int) "u16 roundtrip" 0xBEEF (Pmem.Device.read_u16 dev 200);
  Pmem.Device.write_u32 dev 204 0xCAFEBABE;
  Alcotest.(check int) "u32 roundtrip" 0xCAFEBABE (Pmem.Device.read_u32 dev 204)

let test_crash_discards_unflushed () =
  let dev, clock = mk () in
  Pmem.Device.write_int64 dev 0 11L;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:8;
  Pmem.Device.write_int64 dev 64 22L;
  (* not flushed *)
  Pmem.Device.crash dev;
  Alcotest.(check int64) "flushed survives" 11L (Pmem.Device.read_int64 dev 0);
  Alcotest.(check int64) "unflushed lost" 0L (Pmem.Device.read_int64 dev 64)

let test_crash_partial_line () =
  (* Two writes to the same line: crash keeps both or neither. *)
  let dev, clock = mk () in
  Pmem.Device.write_int64 dev 0 1L;
  Pmem.Device.write_int64 dev 8 2L;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:16;
  Pmem.Device.write_int64 dev 16 3L;
  Pmem.Device.crash dev;
  Alcotest.(check int64) "first" 1L (Pmem.Device.read_int64 dev 0);
  Alcotest.(check int64) "second" 2L (Pmem.Device.read_int64 dev 8);
  Alcotest.(check int64) "third lost" 0L (Pmem.Device.read_int64 dev 16)

let test_eadr_crash_keeps_cache () =
  let dev = Pmem.Device.create ~lat:Pmem.Latency.eadr ~size:(1 lsl 20) () in
  Pmem.Device.write_int64 dev 64 77L;
  Pmem.Device.crash dev;
  Alcotest.(check int64) "eADR keeps unflushed writes" 77L (Pmem.Device.read_int64 dev 64)

let test_reflush_classification () =
  let dev, clock = mk () in
  let stats = Pmem.Device.stats dev in
  (* Flush the same line twice in a row: the second is a reflush. *)
  Pmem.Device.write_u8 dev 0 1;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:0 ~len:1;
  Pmem.Device.write_u8 dev 1 1;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:1 ~len:1;
  Alcotest.(check int) "two flushes" 2 (Pmem.Stats.flushes stats);
  Alcotest.(check int) "one reflush" 1 (Pmem.Stats.reflushes stats)

let test_reflush_window () =
  let dev, clock = mk () in
  let stats = Pmem.Device.stats dev in
  let touch line =
    Pmem.Device.write_u8 dev (line * 64) 1;
    Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:(line * 64) ~len:1
  in
  (* A, B, C, D, E then A again: distance 4 >= window, not a reflush. *)
  List.iter touch [ 0; 100; 200; 300; 400; 0 ];
  Alcotest.(check int) "no reflush at distance >= 4" 0 (Pmem.Stats.reflushes stats);
  (* A, B, A: distance 1, reflush. *)
  List.iter touch [ 10; 20; 10 ];
  Alcotest.(check int) "reflush at distance 1" 1 (Pmem.Stats.reflushes stats)

let test_sequential_vs_random () =
  let dev, clock = mk () in
  let stats = Pmem.Device.stats dev in
  let touch addr =
    Pmem.Device.write_u8 dev addr 1;
    Pmem.Device.flush dev clock Pmem.Stats.Data ~addr ~len:1
  in
  (* The very first flush has no predecessor: random. Then consecutive
     XPLines are sequential; a far jump is random again. *)
  touch 0;
  touch 256;
  touch 512;
  touch 65536;
  Alcotest.(check int) "sequential count" 2 (Pmem.Stats.sequential_flushes stats);
  Alcotest.(check int) "random count" 2 (Pmem.Stats.random_flushes stats)

let test_reflush_costs_more () =
  let lat = Pmem.Latency.default in
  let reflush0 = Pmem.Latency.flush_cost lat ~distance:0 ~sequential:false in
  let reflush3 = Pmem.Latency.flush_cost lat ~distance:3 ~sequential:false in
  let rand = Pmem.Latency.flush_cost lat ~distance:(-1) ~sequential:false in
  let seq = Pmem.Latency.flush_cost lat ~distance:(-1) ~sequential:true in
  Alcotest.(check int) "800ns at distance 0" 800 reflush0;
  Alcotest.(check int) "500ns at distance 3" 500 reflush3;
  Alcotest.(check bool) "reflush > random > sequential" true (reflush3 > rand && rand > seq)

(* Media occupancy is a flush cost divided by the parallelism, in whole
   ns: a device whose costs do not divide is rejected, naming the field. *)
let test_latency_must_divide () =
  let create lat = ignore (Pmem.Device.create ~lat ~size:4096 ()) in
  create Pmem.Latency.default;
  create Pmem.Latency.eadr;
  let d = Pmem.Latency.default in
  let rejects name lat msg =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> create lat)
  in
  rejects "150 ns sequential flush"
    { d with seq_flush_ns = 150 }
    "Pmem.Xpbuffer.create: seq_flush_ns = 150 ns does not divide by media_parallelism = 4";
  rejects "random flush"
    { d with rand_flush_ns = 302 }
    "Pmem.Xpbuffer.create: rand_flush_ns = 302 ns does not divide by media_parallelism = 4";
  rejects "reflush step"
    { d with reflush_step_ns = 50 }
    "Pmem.Xpbuffer.create: reflush cost at distance 1 = 750 ns does not divide by \
     media_parallelism = 4";
  rejects "zero parallelism"
    { d with media_parallelism = 0 }
    "Pmem.Xpbuffer.create: media_parallelism must be positive (got 0)"

let test_clean_line_flush_free () =
  let dev, clock = mk () in
  Pmem.Device.write_u8 dev 0 1;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:0 ~len:1;
  let n = Pmem.Stats.flushes (Pmem.Device.stats dev) in
  (* Flushing a clean line does nothing. *)
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:0 ~len:1;
  Alcotest.(check int) "clean flush skipped" n (Pmem.Stats.flushes (Pmem.Device.stats dev))

let test_crash_injection () =
  let dev, clock = mk () in
  Pmem.Device.schedule_crash_after dev 2;
  Pmem.Device.write_u8 dev 0 1;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:0 ~len:1;
  Pmem.Device.write_u8 dev 64 1;
  Alcotest.check_raises "crash on second flushed line" Pmem.Device.Injected_crash (fun () ->
      Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:64 ~len:1);
  (* Both lines were admitted before the crash triggered after them. *)
  Alcotest.(check int) "first line persisted" 1 (Pmem.Device.persisted_u8 dev 0)

let test_crash_rearm_and_cancel () =
  let dev, clock = mk () in
  Alcotest.check_raises "n < 1 rejected"
    (Invalid_argument "Device.schedule_crash_after: countdown must be >= 1 (got 0)")
    (fun () -> Pmem.Device.schedule_crash_after dev 0);
  (* Re-arming replaces the pending countdown, it does not stack. *)
  Pmem.Device.schedule_crash_after dev 100;
  Pmem.Device.schedule_crash_after dev 1;
  Alcotest.(check bool) "armed" true (Pmem.Device.crash_armed dev);
  Pmem.Device.write_u8 dev 0 1;
  Alcotest.check_raises "re-armed countdown fires" Pmem.Device.Injected_crash (fun () ->
      Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:0 ~len:1);
  (* Firing disarms; cancel afterwards is a no-op, twice too. *)
  Alcotest.(check bool) "disarmed by firing" false (Pmem.Device.crash_armed dev);
  Pmem.Device.cancel_scheduled_crash dev;
  Pmem.Device.cancel_scheduled_crash dev;
  Pmem.Device.write_u8 dev 64 1;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:64 ~len:1;
  (* Cancelling a live countdown prevents it from ever firing. *)
  Pmem.Device.schedule_crash_after dev 1;
  Pmem.Device.cancel_scheduled_crash dev;
  Alcotest.(check bool) "cancelled" false (Pmem.Device.crash_armed dev);
  Pmem.Device.write_u8 dev 128 1;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:128 ~len:1;
  Alcotest.(check int) "flush survived cancel" 1 (Pmem.Device.persisted_u8 dev 128)

(* Tear one fully-written line and report, per 8-byte word, whether the
   new value persisted. *)
let tear ?(seed = 7) mode =
  let dev, clock = mk () in
  for w = 0 to 7 do
    Pmem.Device.write_int64 dev (w * 8) (Int64.of_int (0x100 + w))
  done;
  Pmem.Device.schedule_crash_after ~torn:mode ~torn_seed:seed dev 1;
  (try Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:64
   with Pmem.Device.Injected_crash -> ());
  Array.init 8 (fun w -> Pmem.Device.persisted_int64 dev (w * 8) = Int64.of_int (0x100 + w))

let test_torn_modes () =
  (* Prefix: once a word is missing, all later words are missing. *)
  let monotone dir got =
    let arr = if dir = `Suffix then Array.of_list (List.rev (Array.to_list got)) else got in
    let ok = ref true and seen_gap = ref false in
    Array.iter
      (fun present ->
        if not present then seen_gap := true else if !seen_gap then ok := false)
      arr;
    !ok
  in
  for seed = 1 to 32 do
    let p = tear ~seed Pmem.Device.Torn_prefix in
    Alcotest.(check bool) "prefix shape" true (monotone `Prefix p);
    let s = tear ~seed Pmem.Device.Torn_suffix in
    Alcotest.(check bool) "suffix shape" true (monotone `Suffix s);
    (* Random tears a strict subset: never all eight words. *)
    let r = tear ~seed Pmem.Device.Torn_random in
    Alcotest.(check bool) "random is strict subset" true
      (Array.exists (fun b -> not b) r)
  done;
  (* Deterministic in the seed: the same plan tears the same way. *)
  Alcotest.(check (array bool)) "torn mask deterministic"
    (tear ~seed:11 Pmem.Device.Torn_random)
    (tear ~seed:11 Pmem.Device.Torn_random);
  (* Words not persisted keep their previous persisted content, not the
     volatile one. *)
  let dev, clock = mk () in
  Pmem.Device.write_int64 dev 0 1L;
  Pmem.Device.write_int64 dev 56 1L;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:64;
  for w = 0 to 7 do
    Pmem.Device.write_int64 dev (w * 8) 2L
  done;
  Pmem.Device.schedule_crash_after ~torn:Pmem.Device.Torn_prefix ~torn_seed:3 dev 1;
  (try Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:64
   with Pmem.Device.Injected_crash -> ());
  for w = 0 to 7 do
    let v = Pmem.Device.persisted_int64 dev (w * 8) in
    let old = if w = 0 || w = 7 then 1L else 0L in
    Alcotest.(check bool)
      (Printf.sprintf "word %d is old or new" w)
      true
      (v = 2L || v = old)
  done

let test_clock_advances () =
  let dev, clock = mk () in
  Pmem.Device.write_u8 dev 0 1;
  let before = Sim.Clock.now clock in
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:0 ~len:1;
  Alcotest.(check bool) "flush costs time" true (Sim.Clock.now clock > before)

let test_dax_mmap () =
  let dev, clock = mk () in
  let dax = Pmem.Dax.create dev in
  let a = Pmem.Dax.mmap dax clock ~size:8192 in
  let b = Pmem.Dax.mmap dax clock ~size:4096 in
  Alcotest.(check bool) "distinct regions" true (b >= a + 8192 || a >= b + 4096);
  Alcotest.(check int) "mapped" 12288 (Pmem.Dax.mapped_bytes dax);
  Pmem.Dax.munmap dax clock ~addr:a ~size:8192 ();
  Alcotest.(check int) "after munmap" 4096 (Pmem.Dax.mapped_bytes dax);
  Alcotest.(check int) "peak" 12288 (Pmem.Dax.peak_mapped_bytes dax);
  (* Coalescing: the freed range is reusable. *)
  let c = Pmem.Dax.mmap dax clock ~size:8192 in
  Alcotest.(check int) "first fit reuses hole" a c

let test_dax_decommit () =
  let dev, clock = mk () in
  let dax = Pmem.Dax.create dev in
  let a = Pmem.Dax.mmap dax clock ~size:16384 in
  Pmem.Dax.decommit dax clock ~addr:a ~size:16384;
  Alcotest.(check int) "decommitted" 0 (Pmem.Dax.mapped_bytes dax);
  Pmem.Dax.recommit dax clock ~addr:a ~size:16384;
  Alcotest.(check int) "recommitted" 16384 (Pmem.Dax.mapped_bytes dax)

(* Every accessor reports out-of-bounds access with one uniform message
   naming the accessor, the offending extent and the device size. *)
let test_bounds_messages () =
  let size = 1 lsl 20 in
  let dev, _ = mk ~size () in
  let expect op addr len f =
    Alcotest.check_raises op
      (Invalid_argument
         (Printf.sprintf "Pmem.Device.%s: out of bounds (addr=%d, len=%d, device size=%d)"
            op addr len size))
      f
  in
  expect "read_u8" size 1 (fun () -> ignore (Pmem.Device.read_u8 dev size));
  expect "write_u16" (size - 1) 2 (fun () -> Pmem.Device.write_u16 dev (size - 1) 7);
  expect "read_u32" (-4) 4 (fun () -> ignore (Pmem.Device.read_u32 dev (-4)));
  expect "write_int64" (size - 7) 8 (fun () -> Pmem.Device.write_int64 dev (size - 7) 1L);
  expect "read_int" (size - 4) 8 (fun () -> ignore (Pmem.Device.read_int dev (size - 4)));
  expect "read_bytes" 0 (size + 1) (fun () -> ignore (Pmem.Device.read_bytes dev 0 (size + 1)));
  expect "write_bytes" (size - 2) 4 (fun () ->
      Pmem.Device.write_bytes dev (size - 2) (Bytes.create 4));
  expect "fill" 64 (-1) (fun () -> Pmem.Device.fill dev 64 (-1) 'x')

(* --- persist-ordering checker ------------------------------------------- *)

let test_checker_off_costs_nothing () =
  let dev, clock = mk () in
  Alcotest.(check bool) "off by default" false (Pmem.Device.check_mode dev);
  (* No-ops when off: *)
  Pmem.Device.depends_on dev clock ~addr:0 ~len:8;
  Pmem.Device.commit_flush dev clock Pmem.Stats.Meta ~addr:0 ~len:8;
  Alcotest.(check int) "no commits counted" 0 (Pmem.Device.ordering_commits_checked dev)

let test_checker_clean_commit () =
  let dev, clock = mk () in
  Pmem.Device.set_check_mode dev true;
  Pmem.Device.write_int64 dev 0 1L;
  Pmem.Device.flush dev clock Pmem.Stats.Wal ~addr:0 ~len:8;
  Pmem.Device.depends_on ~note:"wal" dev clock ~addr:0 ~len:8;
  Pmem.Device.write_u8 dev 4096 1;
  Pmem.Device.commit_flush dev clock Pmem.Stats.Meta ~addr:4096 ~len:1;
  Alcotest.(check int) "commit counted" 1 (Pmem.Device.ordering_commits_checked dev);
  Alcotest.(check int) "dep counted" 1 (Pmem.Device.ordering_deps_tracked dev);
  Alcotest.(check int) "no violation" 0 (Pmem.Device.ordering_violation_count dev)

let test_checker_dirty_dep_flagged () =
  let dev, clock = mk () in
  Pmem.Device.set_check_mode dev true;
  Pmem.Device.write_int64 dev 128 1L;
  (* not flushed *)
  Pmem.Device.depends_on ~note:"wal" dev clock ~addr:128 ~len:8;
  Pmem.Device.write_u8 dev 4096 1;
  Pmem.Device.commit_flush dev clock Pmem.Stats.Meta ~addr:4096 ~len:1;
  Alcotest.(check int) "violation" 1 (Pmem.Device.ordering_violation_count dev);
  (match Pmem.Device.ordering_violations dev with
  | [ v ] ->
      Alcotest.(check string) "note" "wal" v.Pmem.Device.v_dep_note;
      Alcotest.(check int) "commit addr" 4096 v.Pmem.Device.v_commit_addr;
      Alcotest.(check int) "dirty line" 2 v.Pmem.Device.v_dirty_line;
      (* pp renders without raising and names the dependency *)
      let rendered = Format.asprintf "%a" Pmem.Device.pp_violation v in
      Alcotest.(check bool) "pp non-empty" true (String.length rendered > 0)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* Deps are consumed: an immediate second commit is clean. *)
  Pmem.Device.commit_flush dev clock Pmem.Stats.Meta ~addr:4096 ~len:1;
  Alcotest.(check int) "deps consumed" 1 (Pmem.Device.ordering_violation_count dev)

let test_checker_shared_line_no_false_positive () =
  (* A dependency whose bytes already persisted does not trip the check
     just because an unrelated write dirtied its cache line again. *)
  let dev, clock = mk () in
  Pmem.Device.set_check_mode dev true;
  Pmem.Device.write_int64 dev 0 1L;
  Pmem.Device.flush dev clock Pmem.Stats.Wal ~addr:0 ~len:8;
  Pmem.Device.write_int64 dev 8 2L;
  (* same line, not flushed: line dirty, dep bytes persisted *)
  Pmem.Device.depends_on ~note:"wal" dev clock ~addr:0 ~len:8;
  Pmem.Device.commit_flush dev clock Pmem.Stats.Meta ~addr:4096 ~len:1;
  Alcotest.(check int) "no false positive" 0 (Pmem.Device.ordering_violation_count dev)

let test_checker_crash_voids_pending () =
  let dev, clock = mk () in
  Pmem.Device.set_check_mode dev true;
  (* One real violation before the crash... *)
  Pmem.Device.write_int64 dev 128 1L;
  Pmem.Device.depends_on ~note:"pre" dev clock ~addr:128 ~len:8;
  Pmem.Device.commit_flush dev clock Pmem.Stats.Meta ~addr:4096 ~len:1;
  (* ...and one dependency left pending across it. *)
  Pmem.Device.write_int64 dev 256 1L;
  Pmem.Device.depends_on ~note:"pending" dev clock ~addr:256 ~len:8;
  Pmem.Device.crash dev;
  Pmem.Device.commit_flush dev clock Pmem.Stats.Meta ~addr:4096 ~len:1;
  Alcotest.(check int) "recorded violation survives, pending voided" 1
    (Pmem.Device.ordering_violation_count dev);
  match Pmem.Device.ordering_violations dev with
  | [ v ] -> Alcotest.(check string) "the pre-crash one" "pre" v.Pmem.Device.v_dep_note
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* --- flush coalescing ------------------------------------------------- *)

let test_batching_defers_until_fence () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  Pmem.Device.write_int64 dev 0 11L;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:8;
  (* Deferred: the persisted image is untouched until an ordering point. *)
  Alcotest.(check int64) "not yet persistent" 0L (Pmem.Device.persisted_int64 dev 0);
  Alcotest.(check int) "one line pending" 1 (Pmem.Device.pending_flushes dev clock);
  Pmem.Device.fence dev clock;
  Alcotest.(check int64) "persistent after fence" 11L (Pmem.Device.persisted_int64 dev 0);
  Alcotest.(check int) "drained" 0 (Pmem.Device.pending_flushes dev clock)

let test_batching_coalesces_same_line () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  let stats = Pmem.Device.stats dev in
  (* Three flushes of the same line collapse to one media write-back and
     one fence: two fences saved, two calls coalesced. *)
  for i = 0 to 2 do
    Pmem.Device.write_int64 dev (i * 8) (Int64.of_int (i + 1));
    Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:(i * 8) ~len:8
  done;
  Pmem.Device.fence dev clock;
  Alcotest.(check int) "one media flush" 1 (Pmem.Stats.flushes stats);
  Alcotest.(check int) "two coalesced" 2 (Pmem.Stats.flushes_coalesced stats);
  Alcotest.(check int) "two fences saved" 2 (Pmem.Stats.fences_saved stats)

let test_batching_crash_discards_pending () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  Pmem.Device.write_int64 dev 0 42L;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:8;
  Pmem.Device.crash dev;
  (* A deferred flush is exactly an unflushed cache line at crash time. *)
  Alcotest.(check int64) "pending flush lost" 0L (Pmem.Device.read_int64 dev 0);
  Pmem.Device.write_int64 dev 64 7L;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:64 ~len:8;
  Pmem.Device.fence dev clock;
  Alcotest.(check int64) "post-crash stream works" 7L (Pmem.Device.persisted_int64 dev 64)

let test_batching_commit_drains_first () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  Pmem.Device.set_check_mode dev true;
  (* Dependency deferred by an earlier flush: commit_flush must drain the
     pending set before validating, so no violation is recorded. *)
  Pmem.Device.write_int64 dev 0 1L;
  Pmem.Device.flush dev clock Pmem.Stats.Wal ~addr:0 ~len:8;
  Pmem.Device.depends_on ~note:"deferred-dep" dev clock ~addr:0 ~len:8;
  Pmem.Device.write_int64 dev 4096 2L;
  Pmem.Device.commit_flush dev clock Pmem.Stats.Meta ~addr:4096 ~len:8;
  Alcotest.(check int) "drain precedes validation" 0
    (Pmem.Device.ordering_violation_count dev);
  Alcotest.(check int64) "dep persisted" 1L (Pmem.Device.persisted_int64 dev 0);
  Alcotest.(check int64) "commit persisted" 2L (Pmem.Device.persisted_int64 dev 4096)

let test_unpend_drops_line () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  Pmem.Device.write_int64 dev 0 5L;
  Pmem.Device.write_int64 dev 64 6L;
  Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:0 ~len:72;
  Pmem.Device.unpend dev clock ~addr:0 ~len:8;
  Pmem.Device.fence dev clock;
  Alcotest.(check int64) "unpended line not persisted" 0L (Pmem.Device.persisted_int64 dev 0);
  Alcotest.(check int64) "other line persisted" 6L (Pmem.Device.persisted_int64 dev 64)

let test_batching_same_seed_deterministic () =
  (* The batched pipeline must not perturb determinism: identical op
     sequences give identical clocks and stats. *)
  let run () =
    let dev, clock = mk () in
    Pmem.Device.set_batching dev true;
    for i = 0 to 199 do
      Pmem.Device.write_int64 dev (i * 24 mod 4096) (Int64.of_int i);
      Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:(i * 24 mod 4096) ~len:8;
      if i mod 7 = 0 then Pmem.Device.fence dev clock
    done;
    Pmem.Device.fence dev clock;
    let s = Pmem.Device.stats dev in
    (Sim.Clock.now clock, Pmem.Stats.flushes s, Pmem.Stats.fences_saved s)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same clock and counters" true (a = b)

let suite =
  [
    Alcotest.test_case "write/read roundtrips" `Quick test_write_read;
    Alcotest.test_case "crash discards unflushed lines" `Quick test_crash_discards_unflushed;
    Alcotest.test_case "crash is line-granular" `Quick test_crash_partial_line;
    Alcotest.test_case "eADR crash keeps caches" `Quick test_eadr_crash_keeps_cache;
    Alcotest.test_case "reflush classification" `Quick test_reflush_classification;
    Alcotest.test_case "reflush window boundary" `Quick test_reflush_window;
    Alcotest.test_case "sequential vs random" `Quick test_sequential_vs_random;
    Alcotest.test_case "latency ordering" `Quick test_reflush_costs_more;
    Alcotest.test_case "latency costs divide by parallelism" `Quick test_latency_must_divide;
    Alcotest.test_case "clean-line flush is free" `Quick test_clean_line_flush_free;
    Alcotest.test_case "crash injection" `Quick test_crash_injection;
    Alcotest.test_case "crash re-arm and cancel" `Quick test_crash_rearm_and_cancel;
    Alcotest.test_case "torn-store modes" `Quick test_torn_modes;
    Alcotest.test_case "flush charges the clock" `Quick test_clock_advances;
    Alcotest.test_case "dax mmap/munmap/coalesce" `Quick test_dax_mmap;
    Alcotest.test_case "dax decommit/recommit" `Quick test_dax_decommit;
    Alcotest.test_case "uniform bounds messages" `Quick test_bounds_messages;
    Alcotest.test_case "checker off by default" `Quick test_checker_off_costs_nothing;
    Alcotest.test_case "checker: clean commit" `Quick test_checker_clean_commit;
    Alcotest.test_case "checker: dirty dependency flagged" `Quick test_checker_dirty_dep_flagged;
    Alcotest.test_case "checker: shared line, persisted dep" `Quick
      test_checker_shared_line_no_false_positive;
    Alcotest.test_case "checker: crash voids pending deps" `Quick
      test_checker_crash_voids_pending;
    Alcotest.test_case "batching: deferred until fence" `Quick test_batching_defers_until_fence;
    Alcotest.test_case "batching: same-line coalescing" `Quick test_batching_coalesces_same_line;
    Alcotest.test_case "batching: crash discards pending" `Quick
      test_batching_crash_discards_pending;
    Alcotest.test_case "batching: commit drains before validating" `Quick
      test_batching_commit_drains_first;
    Alcotest.test_case "batching: unpend drops a line" `Quick test_unpend_drops_line;
    Alcotest.test_case "batching: deterministic" `Quick test_batching_same_seed_deterministic;
  ]
