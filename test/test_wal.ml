(* Write-ahead log: slot mapping, replay, epochs, crash survival. *)

open Nvalloc_core

let mk () = (Pmem.Device.create ~size:(4 * 1024 * 1024) (), Sim.Clock.create ())

let test_append_replay () =
  let dev, clock = mk () in
  let wal = Wal.create dev ~base:0 ~entries:256 ~interleave:true in
  Wal.append wal clock Wal.Alloc ~addr:4096 ~dest:64;
  Wal.append wal clock Wal.Free ~addr:8192 ~dest:128;
  Wal.append wal clock Wal.Refill ~addr:12288 ~dest:0;
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  let entries = Wal.replay dev ~base:0 ~entries:256 in
  Alcotest.(check int) "three entries" 3 (List.length entries);
  let kinds = List.map (fun e -> e.Wal.kind) entries in
  Alcotest.(check bool) "ordered by seq" true (kinds = [ Wal.Alloc; Wal.Free; Wal.Refill ]);
  let first = List.hd entries in
  Alcotest.(check int) "addr" 4096 first.Wal.addr;
  Alcotest.(check int) "dest" 64 first.Wal.dest

let test_replay_survives_crash () =
  let dev, clock = mk () in
  let wal = Wal.create dev ~base:0 ~entries:256 ~interleave:false in
  (* The header epoch must be persistent before entries matter. *)
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  for i = 1 to 10 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
  done;
  Pmem.Device.crash dev;
  let entries = Wal.replay dev ~base:0 ~entries:256 in
  (* Appends flush synchronously: all survive the crash. *)
  Alcotest.(check int) "all appends survive" 10 (List.length entries)

let test_checkpoint_invalidates () =
  let dev, clock = mk () in
  let wal = Wal.create dev ~base:0 ~entries:256 ~interleave:true in
  for i = 1 to 5 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
  done;
  Wal.checkpoint wal clock;
  Alcotest.(check int) "empty after checkpoint" 0 (List.length (Wal.replay dev ~base:0 ~entries:256));
  Wal.append wal clock Wal.Free ~addr:4096 ~dest:9;
  let entries = Wal.replay dev ~base:0 ~entries:256 in
  Alcotest.(check int) "only the new entry" 1 (List.length entries);
  Alcotest.(check bool) "right kind" true ((List.hd entries).Wal.kind = Wal.Free)

let test_near_full () =
  let dev, clock = mk () in
  let wal = Wal.create dev ~base:0 ~entries:64 ~interleave:true in
  for i = 1 to 64 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
  done;
  Alcotest.(check bool) "full" true (Wal.near_full wal);
  Wal.checkpoint wal clock;
  Alcotest.(check bool) "empty again" false (Wal.near_full wal)

let test_reopen_bumps_epoch () =
  let dev, clock = mk () in
  let wal = Wal.create dev ~base:0 ~entries:256 ~interleave:true in
  Wal.append wal clock Wal.Alloc ~addr:4096 ~dest:1;
  let wal' = Wal.reopen dev clock ~base:0 ~entries:256 ~interleave:true in
  Alcotest.(check int) "old entries invalidated" 0
    (List.length (Wal.replay dev ~base:0 ~entries:256));
  Wal.append wal' clock Wal.Alloc ~addr:8192 ~dest:2;
  Alcotest.(check int) "new entry valid" 1 (List.length (Wal.replay dev ~base:0 ~entries:256))

let test_torn_entry_rejected () =
  (* ADR persists 8-byte words atomically, but a WAL entry spans two
     words: tearing either one must fail the checksum, and replay must
     skip (and count) the entry without disturbing its neighbours. *)
  let dev, clock = mk () in
  let wal = Wal.create dev ~base:0 ~entries:256 ~interleave:false in
  Wal.append wal clock Wal.Alloc ~addr:4096 ~dest:1;
  Wal.append wal clock Wal.Free ~addr:8192 ~dest:2;
  Wal.append wal clock Wal.Refill ~addr:12288 ~dest:0;
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  (* Entry 1 sits at 64 + 16 bytes (no interleave): smash its second
     word (the addr field) as a torn store would. *)
  Pmem.Device.write_u32 dev (64 + 16 + 8) 0xDEAD00;
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  let entries, torn = Wal.replay_torn dev ~base:0 ~entries:256 in
  Alcotest.(check int) "one entry torn" 1 torn;
  Alcotest.(check (list int)) "neighbours survive" [ 4096; 12288 ]
    (List.map (fun e -> e.Wal.addr) entries);
  (* Now tear the first word of entry 2 (its seq field). *)
  Pmem.Device.write_u32 dev (64 + 32 + 4) 0xBEEF;
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  let entries, torn = Wal.replay_torn dev ~base:0 ~entries:256 in
  Alcotest.(check int) "two entries torn" 2 torn;
  Alcotest.(check (list int)) "only the intact entry remains" [ 4096 ]
    (List.map (fun e -> e.Wal.addr) entries)

let prop_interleaved_appends_rotate_lines =
  (* Consecutive interleaved appends never write the same cache line
     within the reflush window. *)
  let open QCheck in
  Test.make ~name:"interleaved WAL appends avoid reflushes" ~count:50
    (make Gen.(int_range 5 200))
    (fun n ->
      let dev, clock = mk () in
      let wal = Wal.create dev ~base:0 ~entries:1024 ~interleave:true in
      Pmem.Stats.reset (Pmem.Device.stats dev);
      for i = 1 to n do
        Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
      done;
      Pmem.Stats.get (Pmem.Device.stats dev) Reflushes = 0)

let prop_sequential_appends_reflush =
  let open QCheck in
  Test.make ~name:"sequential WAL appends do reflush" ~count:20
    (make Gen.(int_range 16 200))
    (fun n ->
      let dev, clock = mk () in
      let wal = Wal.create dev ~base:0 ~entries:1024 ~interleave:false in
      Pmem.Stats.reset (Pmem.Device.stats dev);
      for i = 1 to n do
        Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
      done;
      Pmem.Stats.get (Pmem.Device.stats dev) Reflushes > 0)

let prop_replay_roundtrip =
  let open QCheck in
  Test.make ~name:"replay returns exactly what was appended" ~count:50
    (make Gen.(pair bool (list_size (int_range 1 60) (pair (int_range 1 1000) (int_range 0 1000)))))
    (fun (interleave, ops) ->
      let dev, clock = mk () in
      let wal = Wal.create dev ~base:0 ~entries:128 ~interleave in
      List.iter (fun (a, d) -> Wal.append wal clock Wal.Alloc ~addr:(a * 8) ~dest:d) ops;
      let entries = Wal.replay dev ~base:0 ~entries:128 in
      List.map (fun e -> (e.Wal.addr / 8, e.Wal.dest)) entries = ops)

(* --- entry bytes ------------------------------------------------------- *)

(* The reference writer: an entry field by field, through its own copy of
   the entry layout and of the checksum. [append] writes the entry in one
   device call; its 16 bytes must equal these. *)
module Ref_entry = struct
  let l = Pstruct.layout "wal.entry (reference)"
  let kind = Pstruct.u8 l "kind" ~off:0
  let epoch = Pstruct.u8 l "epoch" ~off:1
  let ck = Pstruct.u16 l "ck" ~off:2
  let seq = Pstruct.u32 l "seq" ~off:4
  let addr = Pstruct.u32 l "addr" ~off:8
  let dest = Pstruct.u32 l "dest" ~off:12
  let () = Pstruct.seal l ~size:16

  let mix h v =
    let h = (h lxor v) * 0x01000193 land 0x3FFFFFFF in
    h lxor (h lsr 15)

  let code = function
    | Wal.Alloc -> 1
    | Free -> 2
    | Refill -> 3
    | Large_alloc -> 4
    | Large_free -> 5

  let write dev ~off k ~epoch:e ~seq:n ~addr:a ~dest:d =
    let c = code k in
    Pstruct.set dev ~base:off kind c;
    Pstruct.set dev ~base:off epoch e;
    Pstruct.set dev ~base:off ck (mix (mix (mix (mix (mix 0x9E37 c) e) n) a) d land 0xFFFF);
    Pstruct.set dev ~base:off seq n;
    Pstruct.set dev ~base:off addr a;
    Pstruct.set dev ~base:off dest d
end

let hex b = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

let test_entry_bytes_pinned () =
  let values = [ 0; 1; 4096; 0xFFFF_FFFF ] in
  List.iter
    (fun interleave ->
      let dev, clock = mk () in
      let ref_dev = Pmem.Device.create ~size:(Pmem.Device.size dev) () in
      let wal = Wal.create dev ~base:0 ~entries:256 ~interleave in
      let seq = ref 0 and epoch = ref 1 in
      List.iter
        (fun kind ->
          List.iter
            (fun addr ->
              List.iter
                (fun dest ->
                  let off = Wal.append_off wal clock kind ~addr ~dest in
                  Ref_entry.write ref_dev ~off kind ~epoch:!epoch ~seq:!seq ~addr ~dest;
                  Alcotest.(check string)
                    (Printf.sprintf "interleave=%b kind=%d seq=%d addr=%#x dest=%#x" interleave
                       (Ref_entry.code kind) !seq addr dest)
                    (hex (Pmem.Device.read_bytes ref_dev off Wal.entry_bytes))
                    (hex (Pmem.Device.read_bytes dev off Wal.entry_bytes));
                  incr seq)
                values)
            values;
          (* The next kind's entries carry the next epoch. *)
          Wal.checkpoint wal clock;
          incr epoch)
        Wal.[ Alloc; Free; Refill; Large_alloc; Large_free ])
    [ true; false ]

(* --- group commit ------------------------------------------------------ *)

let test_group_open_discarded_on_crash () =
  let dev, clock = mk () in
  let wal = Wal.create ~group:4 dev ~base:0 ~entries:256 ~interleave:true in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  for i = 1 to 3 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
  done;
  Alcotest.(check int) "group open" 3 (Wal.open_group wal);
  (* Even if the entry lines reach the media, the watermark has not
     advanced: replay must discard the whole open group. *)
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  Pmem.Device.crash dev;
  Alcotest.(check int) "open group lost wholesale" 0
    (List.length (Wal.replay dev ~base:0 ~entries:256))

let test_group_close_commits_batch () =
  let dev, clock = mk () in
  let wal = Wal.create ~group:4 dev ~base:0 ~entries:256 ~interleave:true in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  for i = 1 to 4 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
  done;
  Wal.flush_group wal clock;
  Alcotest.(check int) "group closed" 0 (Wal.open_group wal);
  for i = 5 to 6 do
    Wal.append wal clock Wal.Free ~addr:(i * 4096) ~dest:i
  done;
  Pmem.Device.crash dev;
  (* The closed group survives; the reopened one does not. *)
  let entries = Wal.replay dev ~base:0 ~entries:256 in
  Alcotest.(check (list int)) "exactly the closed batch" [ 4096; 8192; 12288; 16384 ]
    (List.map (fun e -> e.Wal.addr) entries)

let test_group_deferred_effects_ride_close () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  let wal = Wal.create ~group:8 dev ~base:0 ~entries:256 ~interleave:true in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  Wal.append wal clock Wal.Alloc ~addr:4096 ~dest:1;
  (* A metadata effect deferred into the group: volatile at once,
     persistent only at the close. *)
  Pmem.Device.write_int64 dev 8192 99L;
  Wal.defer_commit wal clock Pmem.Stats.Meta ~deps:[] ~addr:8192 ~len:8;
  Alcotest.(check int64) "effect volatile before close" 0L
    (Pmem.Device.persisted_int64 dev 8192);
  Wal.flush_group wal clock;
  Alcotest.(check int64) "effect persistent after close" 99L
    (Pmem.Device.persisted_int64 dev 8192);
  Alcotest.(check int) "entry committed" 1 (List.length (Wal.replay dev ~base:0 ~entries:256))

let test_group_auto_close_at_capacity () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  let wal = Wal.create ~group:2 dev ~base:0 ~entries:256 ~interleave:true in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  for i = 1 to 2 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i;
    Pmem.Device.write_int64 dev (16384 + (i * 64)) (Int64.of_int i);
    Wal.defer_commit wal clock Pmem.Stats.Meta ~deps:[] ~addr:(16384 + (i * 64)) ~len:8
  done;
  (* The second defer_commit reached the group size: closed without an
     explicit flush_group. *)
  Alcotest.(check int) "auto-closed" 0 (Wal.open_group wal);
  Pmem.Device.crash dev;
  Alcotest.(check int) "both entries durable" 2
    (List.length (Wal.replay dev ~base:0 ~entries:256));
  Alcotest.(check int64) "effects durable" 2L (Pmem.Device.persisted_int64 dev (16384 + 128))

let test_group_checkpoint_closes_first () =
  let dev, clock = mk () in
  let wal = Wal.create ~group:8 dev ~base:0 ~entries:256 ~interleave:true in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  for i = 1 to 3 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
  done;
  Wal.checkpoint wal clock;
  Alcotest.(check int) "nothing open" 0 (Wal.open_group wal);
  Alcotest.(check int) "ring invalidated" 0
    (List.length (Wal.replay dev ~base:0 ~entries:256));
  (* Fresh epoch: grouping still works after the checkpoint. *)
  Wal.append wal clock Wal.Free ~addr:4096 ~dest:9;
  Wal.flush_group wal clock;
  Pmem.Device.crash dev;
  Alcotest.(check int) "post-checkpoint group commits" 1
    (List.length (Wal.replay dev ~base:0 ~entries:256))

let test_group_sync_mode_accepts_all () =
  (* A log written with grouping, then reopened synchronous: the sync
     header zeroes the watermark fields, so replay falls back to
     accept-all and sync appends are never filtered. *)
  let dev, clock = mk () in
  let wal = Wal.create ~group:4 dev ~base:0 ~entries:256 ~interleave:true in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  Wal.append wal clock Wal.Alloc ~addr:4096 ~dest:1;
  Wal.flush_group wal clock;
  let wal' = Wal.reopen dev clock ~base:0 ~entries:256 ~interleave:true in
  for i = 1 to 3 do
    Wal.append wal' clock Wal.Alloc ~addr:(i * 8192) ~dest:i
  done;
  Pmem.Device.crash dev;
  Alcotest.(check int) "sync appends all accepted" 3
    (List.length (Wal.replay dev ~base:0 ~entries:256))

let test_group_forgotten_commit_record () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  let wal =
    Wal.create ~group:4 ~mutation:Nvalloc_core.Mutation.Wal_record dev ~base:0 ~entries:256
      ~interleave:true
  in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  Wal.append wal clock Wal.Alloc ~addr:4096 ~dest:1;
  Pmem.Device.write_int64 dev 8192 55L;
  Wal.defer_commit wal clock Pmem.Stats.Meta ~deps:[] ~addr:8192 ~len:8;
  Wal.flush_group wal clock;
  Pmem.Device.crash dev;
  (* The broken close persisted the watermark and the effect but dropped
     the entry: replay finds nothing behind the commit record while the
     effect survives — the evidence-free inconsistency the model checker
     must catch at the allocator level. *)
  Alcotest.(check int) "entry lost" 0 (List.length (Wal.replay dev ~base:0 ~entries:256));
  Alcotest.(check int64) "effect leaked" 55L (Pmem.Device.persisted_int64 dev 8192)

(* The open group's arrays start at [group] entries and [2 * group]
   deferred commits; a group that outgrows both (appends past the size
   without a defer_commit to close it, then a tcache-drain-sized run of
   deferred commits) must still close with every entry and effect. *)
let test_group_outgrows_initial_capacity () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  let wal = Wal.create ~group:2 dev ~base:0 ~entries:256 ~interleave:true in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  for i = 1 to 40 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
  done;
  Alcotest.(check int) "group still open" 40 (Wal.open_group wal);
  Wal.flush_group wal clock;
  for i = 0 to 49 do
    let addr = 65536 + (i * 64) in
    Pmem.Device.write_int64 dev addr (Int64.of_int (i + 1));
    Wal.defer_commit wal clock Pmem.Stats.Meta ~deps:[] ~addr ~len:8
  done;
  Alcotest.(check int64) "effects deferred" 0L (Pmem.Device.persisted_int64 dev 65536);
  Wal.flush_group wal clock;
  Pmem.Device.crash dev;
  Alcotest.(check int) "every entry committed" 40
    (List.length (Wal.replay dev ~base:0 ~entries:256));
  for i = 0 to 49 do
    Alcotest.(check int64)
      (Printf.sprintf "effect %d durable" i)
      (Int64.of_int (i + 1))
      (Pmem.Device.persisted_int64 dev (65536 + (i * 64)))
  done

(* [Mutation.Wal_flush] under group commit: entries sharing a line (the
   sequential layout packs four per line) are written but never reach
   the media — not at the append, and not through the group's close,
   which must not re-persist the suppressed line — while the commit
   record still advances. *)
let test_group_wal_flush_suppresses_shared_line () =
  let dev, clock = mk () in
  Pmem.Device.set_batching dev true;
  let wal =
    Wal.create ~group:8 ~mutation:Nvalloc_core.Mutation.Wal_flush dev ~base:0 ~entries:256
      ~interleave:false
  in
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  for i = 1 to 3 do
    Wal.append wal clock Wal.Alloc ~addr:(i * 4096) ~dest:i
  done;
  Alcotest.(check int) "nothing pending" 0 (Pmem.Device.pending_flushes dev clock);
  Wal.flush_group wal clock;
  let line = Pmem.Cacheline.size in
  Alcotest.(check int) "entry line still dirty" 1 (Pmem.Device.dirty_lines dev);
  Pmem.Device.crash dev;
  Alcotest.(check int) "no entry survives" 0 (List.length (Wal.replay dev ~base:0 ~entries:256));
  Alcotest.(check int64) "entry line never persisted" 0L (Pmem.Device.persisted_int64 dev line)

let suite =
  [
    Alcotest.test_case "append then replay" `Quick test_append_replay;
    Alcotest.test_case "replay survives a crash" `Quick test_replay_survives_crash;
    Alcotest.test_case "checkpoint invalidates" `Quick test_checkpoint_invalidates;
    Alcotest.test_case "near_full and reset" `Quick test_near_full;
    Alcotest.test_case "reopen bumps the epoch" `Quick test_reopen_bumps_epoch;
    Alcotest.test_case "torn entries fail the checksum" `Quick test_torn_entry_rejected;
    Alcotest.test_case "entry bytes match a field-by-field writer" `Quick test_entry_bytes_pinned;
    Alcotest.test_case "group: open group lost on crash" `Quick
      test_group_open_discarded_on_crash;
    Alcotest.test_case "group: close commits the batch" `Quick test_group_close_commits_batch;
    Alcotest.test_case "group: deferred effects ride the close" `Quick
      test_group_deferred_effects_ride_close;
    Alcotest.test_case "group: auto-close at capacity" `Quick test_group_auto_close_at_capacity;
    Alcotest.test_case "group: checkpoint closes first" `Quick test_group_checkpoint_closes_first;
    Alcotest.test_case "group: sync reopen accepts all" `Quick test_group_sync_mode_accepts_all;
    Alcotest.test_case "group: forgotten commit record" `Quick
      test_group_forgotten_commit_record;
    Alcotest.test_case "group: outgrows initial capacity" `Quick
      test_group_outgrows_initial_capacity;
    Alcotest.test_case "group: wal-flush suppresses the shared line" `Quick
      test_group_wal_flush_suppresses_shared_line;
    QCheck_alcotest.to_alcotest prop_interleaved_appends_rotate_lines;
    QCheck_alcotest.to_alcotest prop_sequential_appends_reflush;
    QCheck_alcotest.to_alcotest prop_replay_roundtrip;
  ]
