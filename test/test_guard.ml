(* Guard protocol corners the media suite leaves uncovered: primary-wins
   resync when both copies carry valid checksums but diverged, primary
   restoration when only the replica's checksum is broken, the bless
   mutation on silent bit-rot (no poison involved), and the
   replica-first persistence order of region-table slot writes, proven
   by a deterministic crash sweep over every flush of a
   [Heap.register_region] under the synchronous pipeline. *)

open Nvalloc_core

let guard_fixture () =
  let dev = Pmem.Device.create ~size:(1 lsl 20) () in
  let clock = Sim.Clock.create () in
  let r =
    { Guard.primary = 0; len = 14; p_ck = 14; replica = 64; r_ck = 78; cat = Pmem.Stats.Meta }
  in
  for i = 0 to r.Guard.len - 1 do
    Pmem.Device.write_u8 dev i (i + 1)
  done;
  Guard.refresh dev r;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:0 ~len:16;
  Guard.write_replica dev clock r;
  (dev, clock, r)

let bytes_at dev addr len = List.init len (fun i -> Pmem.Device.read_u8 dev (addr + i))
let primary_bytes dev (r : Guard.record) = bytes_at dev r.Guard.primary r.Guard.len
let replica_bytes dev (r : Guard.record) = bytes_at dev r.Guard.replica r.Guard.len

(* Both checksums valid, contents diverged (a committed primary update
   whose replica mirror was lost): primary must win and the replica must
   be resynced from it — never the reverse. *)
let test_primary_wins_stale_replica () =
  let dev, clock, r = guard_fixture () in
  let stale = replica_bytes dev r in
  for i = 0 to r.Guard.len - 1 do
    Pmem.Device.write_u8 dev (r.Guard.primary + i) (100 + i)
  done;
  Guard.refresh dev r;
  Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr:r.Guard.primary ~len:16;
  Alcotest.(check bool) "primary valid" true (Guard.primary_ok dev r);
  Alcotest.(check bool) "replica still valid on its own" true (Guard.replica_ok dev r);
  Alcotest.(check (list int)) "replica is the stale content" stale (replica_bytes dev r);
  Alcotest.(check bool)
    "diverged copies repair" true
    (Guard.verify_repair dev clock r = Guard.Repaired);
  Alcotest.(check (list int))
    "replica resynced from the primary" (primary_bytes dev r) (replica_bytes dev r);
  Alcotest.(check bool) "second pass clean" true (Guard.verify_repair dev clock r = Guard.Clean)

(* Replica checksum broken (its line rotted), primary intact: repair
   rewrites the replica and the primary bytes never change. *)
let test_primary_wins_bad_replica_checksum () =
  let dev, clock, r = guard_fixture () in
  let original = primary_bytes dev r in
  Pmem.Device.write_u8 dev r.Guard.r_ck
    (Pmem.Device.read_u8 dev r.Guard.r_ck lxor 0xFF);
  Alcotest.(check bool) "replica invalid" false (Guard.replica_ok dev r);
  Alcotest.(check bool)
    "repairs" true
    (Guard.verify_repair dev clock r = Guard.Repaired);
  Alcotest.(check (list int)) "primary untouched" original (primary_bytes dev r);
  Alcotest.(check bool) "replica valid again" true (Guard.replica_ok dev r);
  Alcotest.(check (list int)) "replica matches primary" original (replica_bytes dev r)

(* The bless mutation on silent bit-rot: no poison anywhere, just a
   flipped primary byte. A correct scrub would restore the byte from
   the replica; bless recomputes the checksum over the garbage and then
   propagates it into the replica — both copies end up "valid" and
   wrong, which is exactly why --mutate scrub must be caught downstream
   by the oracle rather than by any checksum. *)
let test_bless_blesses_bitrot () =
  let dev, clock, r = guard_fixture () in
  let original = primary_bytes dev r in
  Pmem.Device.write_u8 dev r.Guard.primary
    (Pmem.Device.read_u8 dev r.Guard.primary lxor 0x40);
  Alcotest.(check bool) "rot detected by the checksum" false (Guard.primary_ok dev r);
  Guard.bless dev clock r;
  Alcotest.(check bool) "garbage blessed as valid" true (Guard.primary_ok dev r);
  Alcotest.(check bool) "bytes are still the garbage" true (primary_bytes dev r <> original);
  Alcotest.(check bool) "replica blessed too" true (Guard.replica_ok dev r);
  Alcotest.(check (list int))
    "replica carries the garbage" (primary_bytes dev r) (replica_bytes dev r)

(* Replica-first slot writes. Under the synchronous pipeline with
   replication on, one [register_region] costs exactly three flushes in
   protocol order: the mirror line, the shared checksum line, then the
   primary slot commit. Crashing after each k and repairing must give
   all-or-nothing: k=1 rolls the half-written mirror back (no region),
   k=2 rolls forward from the persisted mirror+checksum (full region),
   k=3 is simply complete — never a torn entry, never a lost line. *)
let sync_replicated =
  { Config.log_default with Config.media_replication = true; batch = false }

let region_addr = 8 * 1024 * 1024
let region_size = 4 * 1024 * 1024

let fresh_heap () =
  let dev = Pmem.Device.create ~size:(64 * 1024 * 1024) () in
  let clock = Sim.Clock.create () in
  let heap = Heap.init dev sync_replicated in
  (* Heap.init formats a volatile image; persist it so the sweep's
     baseline is a clean heap and the only unpersisted state is the
     register_region under test. *)
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  (dev, clock, heap)

let test_register_region_flush_count () =
  let dev, clock, heap = fresh_heap () in
  let before = Pmem.Stats.get (Pmem.Device.stats dev) Flushes in
  Heap.register_region heap clock ~addr:region_addr ~size:region_size;
  Alcotest.(check int)
    "replica line, checksum line, primary commit" 3
    (Pmem.Stats.get (Pmem.Device.stats dev) Flushes - before)

let test_register_region_crash_sweep () =
  let expected_after_repair = [ (1, []); (2, [ (region_addr, region_size) ]); (3, [ (region_addr, region_size) ]) ] in
  List.iter
    (fun (k, expected) ->
      let dev, clock, heap = fresh_heap () in
      Pmem.Device.schedule_crash_after dev k;
      (try
         Heap.register_region heap clock ~addr:region_addr ~size:region_size;
         Pmem.Device.cancel_scheduled_crash dev;
         Pmem.Device.crash dev
       with Pmem.Device.Injected_crash -> ());
      let c2 = Sim.Clock.create () in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d superblock survives" k)
        true
        (Heap.verify_superblock dev c2 = Guard.Clean);
      let repaired, lost = Heap.verify_regions dev c2 in
      Alcotest.(check int) (Printf.sprintf "k=%d nothing lost" k) 0 lost;
      (* k=3 persisted everything, so there is nothing to repair; the
         two partial cuts each heal exactly the one in-flight line. *)
      Alcotest.(check int)
        (Printf.sprintf "k=%d repairs" k)
        (if k < 3 then 1 else 0)
        repaired;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "k=%d all-or-nothing region table" k)
        expected (Heap.read_regions dev))
    expected_after_repair

let suite =
  [
    Alcotest.test_case "primary wins over a stale (valid) replica" `Quick
      test_primary_wins_stale_replica;
    Alcotest.test_case "primary wins over a broken replica checksum" `Quick
      test_primary_wins_bad_replica_checksum;
    Alcotest.test_case "bless blesses silent bit-rot into both copies" `Quick
      test_bless_blesses_bitrot;
    Alcotest.test_case "register_region costs replica+ck+primary flushes" `Quick
      test_register_region_flush_count;
    Alcotest.test_case "slot-write crash sweep is all-or-nothing" `Quick
      test_register_region_crash_sweep;
  ]
